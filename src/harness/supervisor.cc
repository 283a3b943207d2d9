#include "harness/supervisor.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <poll.h>
#include <stdio_ext.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/knobs.hh"
#include "base/logging.hh"
#include "core/machine_config.hh"
#include "store/record.hh"

namespace loopsim
{

namespace
{

/** Isolation / deadline overrides; the environment applies until a
 *  setter runs. isolateOverride: -1 unset, else 0/1. */
std::atomic<int> isolateOverride{-1};
std::atomic<std::uint64_t> deadlineMsFlag{0};
std::atomic<bool> deadlineSet{false};

/** Campaign shutdown flag polled while a child is in flight. */
std::atomic<const std::atomic<bool> *> stopFlag{nullptr};

bool
stopRequested()
{
    const std::atomic<bool> *f = stopFlag.load(std::memory_order_acquire);
    return f != nullptr && f->load(std::memory_order_acquire);
}

/**
 * The wire record travels between two processes of the same binary, so
 * the store codec's fingerprint check only needs a fixed sentinel; the
 * CRC is what catches a child that died mid-write.
 */
const store::Fingerprint kWireFp{0x6c6f6f7073696d00ull,
                                 0x00737570657276ull};

void
appendU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
readU32(const std::string &in, std::size_t &at, std::uint32_t &v)
{
    if (in.size() - at < 4)
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    at += 4;
    return true;
}

bool
readU64(const std::string &in, std::size_t &at, std::uint64_t &v)
{
    if (in.size() - at < 8)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    at += 8;
    return true;
}

/**
 * Wire format, child -> parent:
 *   [u32 record_len][record]            store codec, kWireFp
 *   [u32 profile_count]                 tick-profile extension —
 *   per entry: [u32 len][name][u64 ticks][u64 scan_ticks]
 *              [u64 seconds bits]
 * The record codec excludes tickProfile by design (replaying wall
 * clock from the store would fabricate telemetry), but here the
 * profile is this run's real measurement, just taken in the child.
 */
std::string
encodeWire(const RunResult &result)
{
    std::string rec = store::encodeRecord(kWireFp, result);
    std::string wire;
    wire.reserve(4 + rec.size() + 64);
    appendU32(wire, static_cast<std::uint32_t>(rec.size()));
    wire.append(rec);
    appendU32(wire, static_cast<std::uint32_t>(result.tickProfile.size()));
    for (const ComponentProfile &p : result.tickProfile) {
        appendU32(wire, static_cast<std::uint32_t>(p.name.size()));
        wire.append(p.name);
        appendU64(wire, p.ticks);
        appendU64(wire, p.scanTicks);
        appendU64(wire, std::bit_cast<std::uint64_t>(p.seconds));
    }
    return wire;
}

bool
decodeWire(const std::string &wire, RunResult &result)
{
    std::size_t at = 0;
    std::uint32_t rec_len = 0;
    if (!readU32(wire, at, rec_len) || wire.size() - at < rec_len)
        return false;
    if (!store::decodeRecord(wire.substr(at, rec_len), kWireFp, result))
        return false;
    at += rec_len;
    std::uint32_t profiles = 0;
    if (!readU32(wire, at, profiles))
        return false;
    for (std::uint32_t i = 0; i < profiles; ++i) {
        ComponentProfile p;
        std::uint32_t len = 0;
        if (!readU32(wire, at, len) || wire.size() - at < len)
            return false;
        p.name.assign(wire, at, len);
        at += len;
        std::uint64_t sec_bits = 0;
        if (!readU64(wire, at, p.ticks) ||
            !readU64(wire, at, p.scanTicks) ||
            !readU64(wire, at, sec_bits)) {
            return false;
        }
        p.seconds = std::bit_cast<double>(sec_bits);
        result.tickProfile.push_back(std::move(p));
    }
    return at == wire.size();
}

/** Send all of @p data; a dead peer is EPIPE (false), never SIGPIPE. */
bool
sendAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Blocking exact receive; false on EOF or error. */
bool
recvAll(int fd, char *data, std::size_t n)
{
    while (n > 0) {
        ssize_t r = ::recv(fd, data, n, 0);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        data += r;
        n -= static_cast<std::size_t>(r);
    }
    return true;
}

/** Channel end the child keeps; everything above it is closed. */
constexpr int kChildChannelFd = 3;

/** A result frame longer than this is garbage, not a record. */
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/**
 * The child half. Keep stdio and the channel, close every other
 * inherited descriptor (a sibling's channel end would otherwise keep
 * that sibling from ever seeing EOF, and the journal/store fds belong
 * to the parent), drop the parent's unwritten stdout buffer so it is
 * never written twice, then serve cell indices until the channel
 * closes. Cells run through @p body against state frozen before the
 * fork; an exception escaping it is a worker death. _exit() skips the
 * parent's atexit handlers.
 */
[[noreturn]] void
childMain(int fd, const SupervisedWorker::Body &body)
{
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (fd != kChildChannelFd) {
        ::dup2(fd, kChildChannelFd);
        fd = kChildChannelFd;
    }
    if (::close_range(kChildChannelFd + 1, ~0u, 0) != 0) {
        for (long i = kChildChannelFd + 1; i < ::sysconf(_SC_OPEN_MAX);
             ++i)
            ::close(static_cast<int>(i));
    }
    ::__fpurge(stdout);

    for (;;) {
        char cmd[8];
        if (!recvAll(fd, cmd, sizeof(cmd)))
            ::_exit(0); // the supervisor closed the channel
        std::uint64_t index = 0;
        std::memcpy(&index, cmd, sizeof(index));
        std::string frame;
        try {
            std::string wire =
                encodeWire(body(static_cast<std::size_t>(index)));
            frame.reserve(4 + wire.size());
            appendU32(frame, static_cast<std::uint32_t>(wire.size()));
            frame.append(wire);
        } catch (const std::exception &err) {
            // runOnceResilientWith is fail-soft by default; anything
            // that still escapes (fatal_if on a malformed spec,
            // bad_alloc, a !fail_soft rethrow) is a real worker death.
            std::fprintf(stderr, "isolated worker: %s\n", err.what());
            ::_exit(2);
        } catch (...) {
            ::_exit(2);
        }
        if (!sendAll(fd, frame.data(), frame.size()))
            ::_exit(3);
    }
}

/** Interruptible backoff sleep; returns false when shutdown struck. */
bool
backoffSleep(std::uint64_t ms)
{
    using clock = std::chrono::steady_clock;
    // loop:exempt(analyze: wall-clock backoff between child respawns)
    const auto until = clock::now() + std::chrono::milliseconds(ms);
    // loop:exempt(analyze: wall-clock backoff between child respawns)
    while (clock::now() < until) {
        if (stopRequested())
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
}

} // anonymous namespace

SupervisorPolicy
SupervisorPolicy::fromConfig(const Config &cfg)
{
    SupervisorPolicy p;
    p.attempts = static_cast<unsigned>(
        cfg.getUint("integrity.supervisor.attempts", p.attempts));
    p.deadlineMs = cfg.getUint("integrity.supervisor.deadline_ms",
                               loopsim::deadlineMs());
    p.backoffMs = cfg.getUint("integrity.supervisor.backoff_ms",
                              p.backoffMs);
    p.backoffGrowth = cfg.getDouble("integrity.supervisor.backoff_growth",
                                    p.backoffGrowth);
    p.backoffMaxMs = cfg.getUint("integrity.supervisor.backoff_max_ms",
                                 p.backoffMaxMs);
    fatal_if(p.attempts == 0, "supervisor policy with zero attempts");
    return p;
}

bool
isolationSupported()
{
#if defined(__linux__) // close_range, MSG_NOSIGNAL, __fpurge
    return true;
#else
    return false;
#endif
}

bool
isolationActive()
{
    const int forced = isolateOverride.load(std::memory_order_relaxed);
    const bool on = forced >= 0 ? forced != 0 : knobs::env().isolate;
    return on && isolationSupported();
}

void
setIsolation(bool on)
{
    if (on && !isolationSupported()) {
        warn("process isolation is not supported on this platform; "
             "cells will run in-process");
    }
    isolateOverride.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t
deadlineMs()
{
    if (deadlineSet.load(std::memory_order_acquire))
        return deadlineMsFlag.load(std::memory_order_relaxed);
    return knobs::env().deadlineMs;
}

void
setDeadlineMs(std::uint64_t ms)
{
    deadlineMsFlag.store(ms, std::memory_order_relaxed);
    deadlineSet.store(true, std::memory_order_release);
}

void
setSupervisorStopFlag(const std::atomic<bool> *flag)
{
    stopFlag.store(flag, std::memory_order_release);
}

enum class SupervisedWorker::Fate
{
    Ok,      ///< a valid record came back; the worker stays
    Crash,   ///< death, EOF or garbled record; worker reaped
    Timeout, ///< wall-clock deadline overrun; SIGKILLed and reaped
    Interrupted,
};

SupervisedWorker::SupervisedWorker(Body body_) : body(std::move(body_))
{
    fatal_if(!isolationSupported(),
             "supervised worker on a platform without fork()");
}

SupervisedWorker::~SupervisedWorker() { stop(); }

bool
SupervisedWorker::spawn(std::string &why)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
        why = std::string("socketpair failed: ") + std::strerror(errno);
        return false;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        why = std::string("fork failed: ") + std::strerror(errno);
        ::close(sv[0]);
        ::close(sv[1]);
        return false;
    }
    if (pid == 0) {
        ::close(sv[0]);
        childMain(sv[1], body);
    }
    ::close(sv[1]);
    child = pid;
    channel = sv[0];
    return true;
}

std::string
SupervisedWorker::reap()
{
    // SIGKILL first: harmless to a worker that already exited (its
    // status is settled before its channel end closes), and the only
    // sure way to end one that is hung or garbling.
    ::kill(child, SIGKILL);
    int status = 0;
    while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(channel);
    child = -1;
    channel = -1;
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        return std::string("worker died on signal ") +
               std::to_string(sig) + " (" + strsignal(sig) + ")";
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        return "worker exited with status " +
               std::to_string(WEXITSTATUS(status));
    }
    return "worker exited without returning a result record";
}

void
SupervisedWorker::stop()
{
    if (child >= 0)
        reap();
}

SupervisedWorker::Fate
SupervisedWorker::dispatch(std::size_t index, std::uint64_t deadline_ms,
                           RunResult &result, std::string &why)
{
    using clock = std::chrono::steady_clock;
    const std::uint64_t wire_index = index;
    char cmd[sizeof(wire_index)];
    std::memcpy(cmd, &wire_index, sizeof(cmd));
    // loop:exempt(analyze: wall-clock worker deadline, host side only)
    const auto deadline = clock::now() + std::chrono::milliseconds(deadline_ms);
    const bool bounded = deadline_ms != 0;
    // A failed send (EPIPE) means the worker died after the idle
    // check: a death with this cell dispatched, charged like any other.
    if (!sendAll(channel, cmd, sizeof(cmd))) {
        why = reap();
        return Fate::Crash;
    }

    std::string frame;
    std::size_t need = 4;
    while (frame.size() < need) {
        if (stopRequested()) {
            reap();
            return Fate::Interrupted;
        }
        // Poll in short slices so the deadline and the shutdown flag
        // are both observed even while the worker is silent.
        int slice_ms = 100;
        if (bounded) {
            auto left = std::chrono::duration_cast<
                // loop:exempt(analyze: wall-clock worker deadline)
                std::chrono::milliseconds>(deadline - clock::now());
            if (left.count() <= 0) {
                reap();
                why = "worker overran the " + std::to_string(deadline_ms) +
                      " ms wall-clock deadline";
                return Fate::Timeout;
            }
            slice_ms = static_cast<int>(
                std::min<long long>(slice_ms, left.count()));
        }
        struct pollfd pfd = {channel, POLLIN, 0};
        int pr = ::poll(&pfd, 1, slice_ms);
        if (pr == 0 || (pr < 0 && errno == EINTR))
            continue;
        char buf[16384];
        ssize_t r = -1;
        if (pr > 0) {
            r = ::recv(channel, buf,
                       std::min(sizeof(buf), need - frame.size()), 0);
            if (r < 0 && errno == EINTR)
                continue;
        }
        if (r <= 0) {
            // EOF: the worker died mid-cell (or the channel broke).
            why = reap();
            return Fate::Crash;
        }
        frame.append(buf, static_cast<std::size_t>(r));
        if (need == 4 && frame.size() == 4) {
            std::size_t at = 0;
            std::uint32_t len = 0;
            readU32(frame, at, len);
            if (len > kMaxFrameBytes)
                break; // garbage, not a length: don't wait for it
            need += len;
        }
    }
    RunResult decoded;
    if (frame.size() < need || !decodeWire(frame.substr(4), decoded)) {
        reap();
        why = "worker returned a garbled result record";
        return Fate::Crash;
    }
    result = std::move(decoded);
    return Fate::Ok;
}

SupervisedOutcome
SupervisedWorker::run(std::size_t index, const RunSpec &spec,
                      const Config &resolved,
                      const std::string &fallback_label)
{
    const SupervisorPolicy sup = SupervisorPolicy::fromConfig(resolved);

    SupervisedOutcome out;
    FailKind last_kind = FailKind::Crash;
    std::string last_why;
    double backoff = static_cast<double>(sup.backoffMs);
    for (unsigned attempt = 1;; ++attempt) {
        out.attempts = attempt;
        // A worker that died while idle (OOM-killed, signalled from
        // outside) owes this cell nothing: reap it and fork afresh.
        int status = 0;
        if (child >= 0 && ::waitpid(child, &status, WNOHANG) == child) {
            warn("isolated worker ", child,
                 " died while idle; respawning it");
            ::close(channel);
            child = -1;
            channel = -1;
        }
        std::string why;
        if (child < 0 && spawn(why))
            ++out.spawns;
        const Fate fate = child >= 0 ? dispatch(index, sup.deadlineMs,
                                                out.result, why)
                                     : Fate::Crash;
        if (fate == Fate::Ok)
            return out;
        if (fate == Fate::Interrupted) {
            out.interrupted = true;
            return out;
        }

        last_kind = fate == Fate::Timeout ? FailKind::Timeout
                                          : FailKind::Crash;
        last_why = why;
        if (fate == Fate::Timeout)
            ++out.timeouts;
        else
            ++out.crashes;
        warn("isolated run \"", spec.workload.label, "\" attempt ",
             attempt, "/", sup.attempts, " ",
             failKindName(last_kind), "ed: ", why);
        if (attempt >= sup.attempts)
            break;

        auto wait = static_cast<std::uint64_t>(backoff);
        wait = std::min(wait, sup.backoffMaxMs);
        ++out.backoffWaits;
        out.backoffWaitMs += wait;
        if (!backoffSleep(wait)) {
            out.interrupted = true;
            return out;
        }
        backoff *= sup.backoffGrowth;
    }

    // Every attempt died: degrade to a crash/timeout figure cell, the
    // same fail-soft shape runOnceResilient() produces for SimErrors.
    RunResult res;
    res.failed = true;
    res.failKind = last_kind;
    res.error = last_why;
    res.workloadLabel = figureLabel(spec.workload);
    if (res.workloadLabel.empty())
        res.workloadLabel = fallback_label;
    res.pipeLabel = MachineConfig::fromConfig(resolved).pipeLabel();
    res.ipc = failPoint(last_kind);
    out.result = std::move(res);
    return out;
}

SupervisedOutcome
runCellSupervised(const RunSpec &spec, const RetryPolicy &policy,
                  const std::string &fallback_label)
{
    // Resolve the configuration before forking: the child must never
    // take the overlay mutex (see the fork-safety note in the header).
    const Config resolved = effectiveRunConfig(spec);
    SupervisedWorker worker([&](std::size_t) {
        return runOnceResilientWith(spec, resolved, policy);
    });
    return worker.run(0, spec, resolved, fallback_label);
}

} // namespace loopsim
