#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "base/logging.hh"
#include "core/machine_config.hh"
#include "harness/supervisor.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/result_store.hh"

namespace loopsim::serve
{

namespace
{

/** Daemon drain flag, set from the SIGTERM/SIGINT handler. */
std::atomic<bool> drainFlag{false};

void
onDrainSignal(int)
{
    drainFlag.store(true, std::memory_order_release);
}

/**
 * One unit of work: a unique fingerprint some session needs simulated.
 * Sessions needing the same fingerprint (the same cell submitted by a
 * concurrent tenant, or a duplicate plan point) all wait on the one
 * task instead of enqueuing it again.
 */
struct CellTask
{
    store::Fingerprint fp;
    RunSpec spec;
    RetryPolicy policy;
    std::string label;

    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    RunResult result;
    unsigned crashes = 0;
    unsigned timeouts = 0;

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return done; });
    }
};

using TaskPtr = std::shared_ptr<CellTask>;

/** Fail-soft shape for anything that escapes the supervisor (fatal()
 *  on a malformed spec, fork resource exhaustion, ...), mirroring the
 *  campaign executor's degradation: a labeled failed cell, never a
 *  torn session. */
RunResult
failSoftResult(const RunSpec &spec, const std::string &label,
               const char *what)
{
    RunResult res;
    res.failed = true;
    res.failKind = FailKind::Sim;
    res.error = what;
    res.ipc = failPoint(FailKind::Sim);
    try {
        res.workloadLabel = spec.workload.threads.empty()
                                ? spec.workload.label
                                : figureLabel(spec.workload);
        res.pipeLabel =
            MachineConfig::fromConfig(spec.overrides).pipeLabel();
    } catch (const std::exception &) {
        // The spec itself is unprintable; keep whatever stuck.
    }
    if (res.workloadLabel.empty())
        res.workloadLabel = label.empty() ? "?" : label;
    if (res.pipeLabel.empty())
        res.pipeLabel = "?";
    return res;
}

} // anonymous namespace

void
requestDrain()
{
    drainFlag.store(true, std::memory_order_release);
}

bool
drainRequested()
{
    return drainFlag.load(std::memory_order_acquire);
}

void
clearDrainRequest()
{
    drainFlag.store(false, std::memory_order_release);
}

void
installDrainSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onDrainSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

struct CampaignServer::Impl
{
    ServerOptions opts;
    int listenFd = -1;
    unsigned short boundPort = 0;
    unsigned poolJobs = 1;

    std::atomic<bool> started{false};
    std::atomic<bool> draining{false};
    std::atomic<bool> stopping{false};
    std::atomic<bool> stopped{false};

    std::thread acceptThread;
    std::mutex sessionMutex;
    std::vector<std::thread> sessions;

    std::mutex queueMutex;
    std::condition_variable queueCv;
    std::deque<TaskPtr> queue;
    std::vector<std::thread> executors;

    /** In-flight dedup: fingerprint -> the task computing it. Entries
     *  are erased only after the result is published to the memo, so
     *  a resolver holding this mutex that misses both the memo and
     *  this map knows nobody is (or was) computing the cell. */
    std::mutex inflightMutex;
    std::map<store::Fingerprint, TaskPtr> inflight;

    /** Open journals by plan fingerprint: concurrent sessions of the
     *  same plan must share one CampaignJournal (its appends are
     *  internally locked; two file handles would interleave). */
    std::mutex journalMutex;
    std::map<store::Fingerprint, std::weak_ptr<store::CampaignJournal>>
        journals;

    mutable std::mutex totalsMutex;
    ServeTelemetry totalsTele;

    void acceptLoop();
    void sessionLoop(int fd);
    void executorLoop();
    void servePlan(int fd, const std::string &tenant,
                   const CampaignPlan &plan, const RetryPolicy &policy,
                   bool &client_gone);
    std::shared_ptr<store::CampaignJournal>
    journalFor(const store::Fingerprint &plan_fp, std::uint64_t cells);
};

CampaignServer::CampaignServer(ServerOptions options)
    : impl(std::make_unique<Impl>())
{
    impl->opts = std::move(options);
}

CampaignServer::~CampaignServer()
{
    stop();
}

bool
CampaignServer::start(std::string &error)
{
    Impl &s = *impl;
    if (s.started.load(std::memory_order_acquire)) {
        error = "server already started";
        return false;
    }

    s.listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (s.listenFd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(s.listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    // Resolve the bind address the way the client resolves endpoints
    // (getaddrinfo), so "--host localhost" works on both sides; the
    // listener stays IPv4 to match the sockaddr_in plumbing below.
    struct addrinfo hints = {};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    struct addrinfo *resolved = nullptr;
    const int gai =
        ::getaddrinfo(s.opts.host.c_str(), nullptr, &hints, &resolved);
    if (gai != 0 || resolved == nullptr) {
        error = "unusable bind address " + s.opts.host + ": " +
                (gai != 0 ? gai_strerror(gai) : "no IPv4 address");
        if (resolved != nullptr)
            ::freeaddrinfo(resolved);
        ::close(s.listenFd);
        s.listenFd = -1;
        return false;
    }
    struct sockaddr_in addr = {};
    std::memcpy(&addr, resolved->ai_addr,
                std::min(sizeof(addr),
                         static_cast<std::size_t>(resolved->ai_addrlen)));
    ::freeaddrinfo(resolved);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(s.opts.port);
    if (::bind(s.listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(s.listenFd, 16) != 0) {
        error = std::string("bind/listen on ") + s.opts.host + ": " +
                std::strerror(errno);
        ::close(s.listenFd);
        s.listenFd = -1;
        return false;
    }

    struct sockaddr_in bound = {};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(s.listenFd, reinterpret_cast<struct sockaddr *>(&bound),
                  &bound_len);
    s.boundPort = ntohs(bound.sin_port);

    s.poolJobs = s.opts.jobs != 0 ? s.opts.jobs : campaignJobs();
    s.poolJobs = std::max(s.poolJobs, 1u);

    s.started.store(true, std::memory_order_release);
    for (unsigned i = 0; i < s.poolJobs; ++i)
        s.executors.emplace_back([&s] { s.executorLoop(); });
    s.acceptThread = std::thread([&s] { s.acceptLoop(); });
    return true;
}

void
CampaignServer::beginDrain()
{
    impl->draining.store(true, std::memory_order_release);
}

bool
CampaignServer::draining() const
{
    return impl->draining.load(std::memory_order_acquire);
}

void
CampaignServer::stop()
{
    Impl &s = *impl;
    if (!s.started.load(std::memory_order_acquire) ||
        s.stopped.exchange(true)) {
        return;
    }
    beginDrain();

    // Sessions first (they may still be waiting on queued tasks, so
    // the executors must keep running underneath them), then the pool.
    if (s.acceptThread.joinable())
        s.acceptThread.join();
    if (s.listenFd >= 0) {
        ::close(s.listenFd);
        s.listenFd = -1;
    }
    for (;;) {
        std::vector<std::thread> taken;
        {
            std::lock_guard<std::mutex> lock(s.sessionMutex);
            taken.swap(s.sessions);
        }
        if (taken.empty())
            break;
        for (std::thread &t : taken) {
            if (t.joinable())
                t.join();
        }
    }
    {
        std::lock_guard<std::mutex> lock(s.queueMutex);
        s.stopping.store(true, std::memory_order_release);
    }
    s.queueCv.notify_all();
    for (std::thread &t : s.executors) {
        if (t.joinable())
            t.join();
    }
    s.executors.clear();
}

unsigned short
CampaignServer::port() const
{
    return impl->boundPort;
}

unsigned
CampaignServer::jobs() const
{
    return impl->poolJobs;
}

ServeTelemetry
CampaignServer::totals() const
{
    std::lock_guard<std::mutex> lock(impl->totalsMutex);
    return impl->totalsTele;
}

void
CampaignServer::Impl::acceptLoop()
{
    // On drain, close the listen socket from here (this thread owns it
    // while running; stop() only touches it after the join). Closing
    // resets any backlog connections and makes new connects fail fast
    // instead of parking clients behind a handshake that never comes.
    for (;;) {
        if (draining.load(std::memory_order_acquire)) {
            ::close(listenFd);
            listenFd = -1;
            return;
        }
        struct pollfd pfd = {listenFd, POLLIN, 0};
        int pr = ::poll(&pfd, 1, 100);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: accept poll failed: ", std::strerror(errno));
            return;
        }
        if (pr == 0)
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("serve: accept failed: ", std::strerror(errno));
            return;
        }
        // The drain-aware poll in sessionLoop only covers the gap
        // *between* frames; these deadlines cover blocking inside one:
        // a client stalled mid-frame (partial header/payload) or not
        // draining its receive buffer reads/writes as client_gone
        // after ioTimeoutMs instead of pinning this session — and
        // stop()'s session join — forever.
        if (opts.ioTimeoutMs > 0) {
            struct timeval tv = {};
            tv.tv_sec = opts.ioTimeoutMs / 1000;
            tv.tv_usec =
                static_cast<long>(opts.ioTimeoutMs % 1000) * 1000;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
            ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        }
        std::lock_guard<std::mutex> lock(sessionMutex);
        sessions.emplace_back([this, fd] { sessionLoop(fd); });
    }
}

void
CampaignServer::Impl::executorLoop()
{
    for (;;) {
        TaskPtr task;
        {
            std::unique_lock<std::mutex> lock(queueMutex);
            queueCv.wait(lock, [this] {
                return !queue.empty() ||
                       stopping.load(std::memory_order_acquire);
            });
            // A drain still runs the queue down: queued cells are owed
            // to sessions blocked on them (and to the journal).
            if (queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
        }

        SupervisedOutcome so;
        try {
            so = runCellSupervised(task->spec, task->policy, task->label);
        } catch (const std::exception &err) {
            so.result =
                failSoftResult(task->spec, task->label, err.what());
        }

        // Publish to the shared cache tier *before* dropping the
        // in-flight entry, so a concurrent resolver can never miss
        // both (see the inflight comment above). Failures enter the
        // memo only — the persistent store keeps failures out so a
        // later epoch or widened budget gets to retry them.
        store::processMemo().insert(task->fp, so.result);
        if (!so.result.failed) {
            if (store::ResultStore *ps = store::processStore())
                ps->insert(task->fp, so.result);
        }
        {
            std::lock_guard<std::mutex> lock(task->mutex);
            task->result = std::move(so.result);
            task->crashes = so.crashes;
            task->timeouts = so.timeouts;
            task->done = true;
        }
        task->cv.notify_all();
        {
            std::lock_guard<std::mutex> lock(inflightMutex);
            auto it = inflight.find(task->fp);
            if (it != inflight.end() && it->second == task)
                inflight.erase(it);
        }
    }
}

std::shared_ptr<store::CampaignJournal>
CampaignServer::Impl::journalFor(const store::Fingerprint &plan_fp,
                                 std::uint64_t cells)
{
    if (!store::journalConfigured())
        return nullptr;
    std::lock_guard<std::mutex> lock(journalMutex);
    auto it = journals.find(plan_fp);
    if (it != journals.end()) {
        if (auto open = it->second.lock())
            return open;
    }
    auto journal = std::make_shared<store::CampaignJournal>(
        store::journalPath(), plan_fp, cells);
    if (!journal->ok())
        return nullptr;
    journals[plan_fp] = journal;
    return journal;
}

void
CampaignServer::Impl::servePlan(int fd, const std::string &tenant,
                                const CampaignPlan &plan,
                                const RetryPolicy &policy,
                                bool &client_gone)
{
    // loop:exempt(analyze: wall-clock service telemetry only)
    const auto plan_started = std::chrono::steady_clock::now();
    const std::size_t n = plan.size();

    ServeTelemetry tele;
    tele.tenant = tenant;
    tele.cells = n;

    std::vector<store::Fingerprint> fps(n);
    std::vector<RunResult> ready(n);
    std::vector<bool> have(n, false);
    std::vector<bool> replayed(n, false);
    std::vector<TaskPtr> tasks(n);
    std::vector<bool> created(n, false);

    for (std::size_t i = 0; i < n; ++i)
        fps[i] = store::fingerprintRun(plan.at(i).spec, policy);

    // Keyed exactly like the local executor's journal, so a plan
    // journaled by a server resumes locally and vice versa.
    std::shared_ptr<store::CampaignJournal> journal;
    if (n > 0)
        journal = journalFor(fingerprintPlan(plan, policy), n);

    store::ResultStore *pstore = store::processStore();
    for (std::size_t i = 0; i < n; ++i) {
        // Journal replay outranks the caches: it carries recorded
        // fail/crash/timeout verdicts, and a resumed plan must not
        // send a known-poison cell back to crash another worker.
        if (journal) {
            auto it = journal->replayed().find(fps[i]);
            if (it != journal->replayed().end()) {
                ready[i] = it->second;
                have[i] = true;
                replayed[i] = true;
                ++tele.resumed;
                continue;
            }
        }
        if (auto hit = store::processMemo().lookup(fps[i])) {
            ready[i] = std::move(*hit);
            have[i] = true;
            ++tele.cacheHits;
            continue;
        }
        if (pstore) {
            if (auto hit = pstore->lookup(fps[i])) {
                store::processMemo().insert(fps[i], *hit);
                ready[i] = std::move(*hit);
                have[i] = true;
                ++tele.cacheHits;
                continue;
            }
        }
        // Neither cache has it: subscribe to an in-flight execution or
        // become the one. The memo re-check under the in-flight mutex
        // closes the race with an executor that published and erased
        // between our memo miss and here.
        std::lock_guard<std::mutex> lock(inflightMutex);
        auto it = inflight.find(fps[i]);
        if (it != inflight.end()) {
            tasks[i] = it->second;
            ++tele.dedupHits;
            continue;
        }
        if (auto hit = store::processMemo().lookup(fps[i])) {
            ready[i] = std::move(*hit);
            have[i] = true;
            ++tele.cacheHits;
            continue;
        }
        auto task = std::make_shared<CellTask>();
        task->fp = fps[i];
        task->spec = plan.at(i).spec;
        task->policy = policy;
        task->label = plan.at(i).label;
        inflight[fps[i]] = task;
        tasks[i] = task;
        created[i] = true;
        ++tele.queued;
        {
            std::lock_guard<std::mutex> qlock(queueMutex);
            queue.push_back(task);
        }
        queueCv.notify_one();
    }

    // Stream strictly in plan order; a completion order different from
    // plan order waits here, exactly like the local executor's
    // index-addressed result slots. A client that vanished mid-stream
    // stops receiving but this loop keeps consuming tasks: the cells
    // are journaled and published, so the reconnect resumes for free.
    for (std::size_t i = 0; i < n; ++i) {
        if (!have[i]) {
            tasks[i]->wait();
            {
                std::lock_guard<std::mutex> lock(tasks[i]->mutex);
                ready[i] = tasks[i]->result;
            }
            have[i] = true;
            if (created[i]) {
                ++tele.simulated;
                tele.crashes += tasks[i]->crashes;
                tele.timeouts += tasks[i]->timeouts;
            }
        }
        if (ready[i].failed)
            ++tele.failures;
        if (journal && !replayed[i])
            journal->append(fps[i], ready[i]);
        if (!client_gone &&
            !writeFrame(fd, FrameType::Result,
                        encodeResult(i, ready[i]))) {
            client_gone = true;
            warn("serve: client \"", tenant, "\" lost mid-plan at cell ",
                 i, " of ", n, "; finishing and journaling the rest");
        }
    }

    // loop:exempt(analyze: wall-clock service telemetry only)
    const auto finished = std::chrono::steady_clock::now();
    tele.wallSeconds =
        std::chrono::duration<double>(finished - plan_started).count();

    if (!client_gone &&
        !writeFrame(fd, FrameType::Done, encodeTelemetry(tele))) {
        client_gone = true;
    }

    std::lock_guard<std::mutex> lock(totalsMutex);
    totalsTele.accumulate(tele);
}

void
CampaignServer::Impl::sessionLoop(int fd)
{
    std::string tenant = "?";
    bool client_gone = false;
    bool greeted = false;

    while (!client_gone) {
        // Wait for the next request in drain-aware slices: an idle
        // session on a draining server is told so and closed; a
        // session mid-plan never reaches this loop until its plan has
        // fully streamed.
        bool drained_out = false;
        for (;;) {
            if (draining.load(std::memory_order_acquire)) {
                drained_out = true;
                break;
            }
            struct pollfd pfd = {fd, POLLIN, 0};
            int pr = ::poll(&pfd, 1, 100);
            if (pr < 0 && errno != EINTR) {
                client_gone = true;
                break;
            }
            if (pr > 0)
                break;
        }
        if (client_gone)
            break;
        if (drained_out) {
            writeFrame(fd, FrameType::Error, encodeError("draining"));
            break;
        }

        Frame frame;
        ReadStatus rs = readFrame(fd, frame);
        if (rs == ReadStatus::Eof)
            break;
        if (rs != ReadStatus::Ok) {
            // Corruption never silently degrades to wrong bytes: the
            // client is told and the connection dropped; its retry
            // resubmits and the cache tier answers what completed.
            writeFrame(fd, FrameType::Error,
                       encodeError("unreadable frame"));
            break;
        }

        if (frame.type == FrameType::Hello) {
            std::uint32_t version = 0;
            if (!decodeHello(frame.payload, version, tenant) ||
                version != kProtocolVersion) {
                writeFrame(fd, FrameType::Error,
                           encodeError("protocol version mismatch"));
                break;
            }
            greeted = true;
            if (!writeFrame(fd, FrameType::HelloOk, encodeHelloOk()))
                break;
            continue;
        }
        if (frame.type == FrameType::Submit) {
            if (!greeted) {
                writeFrame(fd, FrameType::Error,
                           encodeError("submit before hello"));
                break;
            }
            CampaignPlan plan;
            RetryPolicy policy;
            // Decoding inside the try: the decoder bound-checks every
            // count it allocates for, but one tenant's plan must never
            // be able to escalate past its own session either way.
            try {
                if (!decodePlan(frame.payload, plan, policy)) {
                    writeFrame(fd, FrameType::Error,
                               encodeError("unreadable plan"));
                    break;
                }
                servePlan(fd, tenant, plan, policy, client_gone);
            } catch (const std::exception &err) {
                warn("serve: plan from \"", tenant,
                     "\" failed: ", err.what());
                writeFrame(fd, FrameType::Error, encodeError(err.what()));
                break;
            }
            continue;
        }
        writeFrame(fd, FrameType::Error,
                   encodeError("unexpected frame type"));
        break;
    }
    ::close(fd);
}

} // namespace loopsim::serve
