#include "harness/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <map>

#include "base/annotations.hh"
#include "base/knobs.hh"
#include "base/logging.hh"
#include "core/machine_config.hh"
#include "harness/supervisor.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "trace/loop_trace.hh"

namespace loopsim
{

namespace
{

/** Merge @p add into @p into by component name (append new names in
 *  first-seen order, so the merged profile is stable). */
void
mergeTickProfile(std::vector<ComponentProfile> &into,
                 const std::vector<ComponentProfile> &add)
{
    for (const ComponentProfile &p : add) {
        bool merged = false;
        for (ComponentProfile &q : into) {
            if (q.name == p.name) {
                q.ticks += p.ticks;
                q.measuredTicks += p.measuredTicks;
                q.seconds += p.seconds;
                q.scanTicks += p.scanTicks;
                merged = true;
                break;
            }
        }
        if (!merged)
            into.push_back(p);
    }
}

std::mutex telemetryMutex;
LOOPSIM_CAMPAIGN_GUARDED("telemetryMutex")
CampaignTelemetry lastTelemetry;
LOOPSIM_CAMPAIGN_GUARDED("telemetryMutex")
CampaignTelemetry totalTelemetry;

std::atomic<unsigned> explicitJobs{0};

std::mutex flushHookMutex;
LOOPSIM_CAMPAIGN_GUARDED("flushHookMutex")
std::function<void()> interruptFlushHook;

/** Graceful-shutdown state, set from the signal handler. */
std::atomic<bool> shutdownRequested{false};
std::atomic<int> shutdownSignal{0};

/** Async-signal-safe: only atomic stores. */
void
onShutdownSignal(int sig)
{
    shutdownSignal.store(sig, std::memory_order_relaxed);
    shutdownRequested.store(true, std::memory_order_release);
}

/**
 * Installs the SIGINT/SIGTERM drain handlers for one campaign and
 * restores the previous dispositions on scope exit. SA_RESETHAND so
 * an impatient second signal gets the default (immediate) action.
 */
class ShutdownGuard
{
  public:
    ShutdownGuard()
    {
        shutdownRequested.store(false, std::memory_order_release);
        struct sigaction sa = {};
        sa.sa_handler = onShutdownSignal;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESETHAND;
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~ShutdownGuard() { restore(); }

    void
    restore()
    {
        if (restored)
            return;
        restored = true;
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
    }

  private:
    struct sigaction oldInt = {};
    struct sigaction oldTerm = {};
    bool restored = false;
};

/**
 * Run one cell. runOnceResilient() already fail-softs SimError; this
 * additionally catches everything else (fatal() on a malformed spec,
 * a rethrown SimError under integrity.retry.fail_soft=false, ...) so
 * a worker can never unwind out of its thread and abort the pool.
 */
RunResult
failSoftCell(const PlannedRun &cell, const char *what)
{
    RunResult res;
    res.failed = true;
    res.failKind = FailKind::Sim;
    res.error = what;
    res.ipc = failPoint(FailKind::Sim);
    try {
        res.workloadLabel = cell.spec.workload.threads.empty()
                                ? cell.spec.workload.label
                                : figureLabel(cell.spec.workload);
        res.pipeLabel = MachineConfig::fromConfig(cell.spec.overrides)
                            .pipeLabel();
    } catch (const std::exception &) {
        // The spec itself is unprintable; keep whatever stuck.
    }
    if (res.workloadLabel.empty())
        res.workloadLabel = cell.label.empty() ? "?" : cell.label;
    if (res.pipeLabel.empty())
        res.pipeLabel = "?";
    return res;
}

RunResult
runCell(const PlannedRun &cell, const Config &resolved,
        const RetryPolicy &policy)
{
    try {
        return runOnceResilientWith(cell.spec, resolved, policy);
    } catch (const std::exception &err) {
        return failSoftCell(cell, err.what());
    }
}

/** Thread warn() prefix: "[cell 7: fig4 swim 7_7] ". */
std::string
cellTag(std::size_t index, const PlannedRun &cell)
{
    std::string tag = "[cell " + std::to_string(index);
    if (!cell.label.empty())
        tag += ": " + cell.label;
    else if (!cell.spec.workload.label.empty())
        tag += ": " + cell.spec.workload.label;
    return tag + "] ";
}

/** Atomic supervision counters shared by the pool workers. */
struct SupervisionCounters
{
    std::atomic<std::size_t> isolatedRuns{0};
    std::atomic<std::size_t> workerSpawns{0};
    std::atomic<std::size_t> crashes{0};
    std::atomic<std::size_t> timeouts{0};
    std::atomic<std::size_t> spawnRetries{0};
    std::atomic<std::size_t> backoffWaits{0};
    std::atomic<std::uint64_t> backoffWaitMs{0};
};

void
loadSupervisionCounters(CampaignTelemetry &t,
                        const SupervisionCounters &c)
{
    t.isolatedRuns = c.isolatedRuns.load(std::memory_order_relaxed);
    t.workerSpawns = c.workerSpawns.load(std::memory_order_relaxed);
    t.crashes = c.crashes.load(std::memory_order_relaxed);
    t.timeouts = c.timeouts.load(std::memory_order_relaxed);
    t.spawnRetries = c.spawnRetries.load(std::memory_order_relaxed);
    t.backoffWaits = c.backoffWaits.load(std::memory_order_relaxed);
    t.backoffWaitMs = c.backoffWaitMs.load(std::memory_order_relaxed);
}

store::Fingerprint
planFingerprintFromCells(const std::vector<store::Fingerprint> &fps)
{
    store::Hasher h;
    h.u64("plan.cells", fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
        h.u64("cell.index", i);
        h.u64("cell.fp.hi", fps[i].hi);
        h.u64("cell.fp.lo", fps[i].lo);
    }
    return h.digest();
}

/** Per-campaign store activity: counters after minus counters before. */
store::StoreStats
storeDelta(const store::StoreStats &after, const store::StoreStats &before)
{
    store::StoreStats d;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.inserts = after.inserts - before.inserts;
    d.crcRejects = after.crcRejects - before.crcRejects;
    d.bytesRead = after.bytesRead - before.bytesRead;
    d.bytesWritten = after.bytesWritten - before.bytesWritten;
    return d;
}

} // anonymous namespace

void
CampaignTelemetry::accumulate(const CampaignTelemetry &other)
{
    jobs = std::max(jobs, other.jobs);
    hostCpus = std::max(hostCpus, other.hostCpus);
    runs += other.runs;
    failures += other.failures;
    simulated += other.simulated;
    memoHits += other.memoHits;
    resumed += other.resumed;
    isolatedRuns += other.isolatedRuns;
    workerSpawns += other.workerSpawns;
    crashes += other.crashes;
    timeouts += other.timeouts;
    spawnRetries += other.spawnRetries;
    backoffWaits += other.backoffWaits;
    backoffWaitMs += other.backoffWaitMs;
    interrupted = interrupted || other.interrupted;
    store.accumulate(other.store);
    wallSeconds += other.wallSeconds;
    mergeTickProfile(tickProfile, other.tickProfile);
    for (const WorkerTelemetry &w : other.workers) {
        if (w.id >= workers.size())
            workers.resize(w.id + 1);
        WorkerTelemetry &mine = workers[w.id];
        mine.id = w.id;
        mine.cells += w.cells;
        mine.busySeconds += w.busySeconds;
        mine.claimWaitSeconds += w.claimWaitSeconds;
        mine.idleSeconds += w.idleSeconds;
    }
}

void
setCampaignJobs(unsigned jobs)
{
    explicitJobs.store(jobs, std::memory_order_relaxed);
}

unsigned
campaignJobs()
{
    unsigned jobs = explicitJobs.load(std::memory_order_relaxed);
    if (jobs == 0)
        jobs = knobs::env().jobs;
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    return std::max(jobs, 1u);
}

std::vector<RunResult>
runCampaign(const CampaignPlan &plan, const RetryPolicy &policy,
            unsigned jobs)
{
    // Parse the whole environment here, on the calling thread: a
    // malformed knob is fatal to the caller, never a fail-soft cell.
    knobs::env();
    if (jobs == 0)
        jobs = campaignJobs();
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, std::max<std::size_t>(plan.size(), 1)));

    // Oversubscription is the usual answer to "why doesn't --jobs N
    // scale": workers beyond the hardware thread count timeslice one
    // another, so throughput stays flat while per-worker busy time
    // still sums past wall clock. Say so once, up front, instead of
    // leaving the flat curve to look like executor contention.
    const unsigned host_cpus = std::thread::hardware_concurrency();
    if (host_cpus > 0 && jobs > host_cpus) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            warn("campaign --jobs ", jobs, " exceeds the ", host_cpus,
                 " hardware thread", host_cpus == 1 ? "" : "s",
                 " on this host; extra workers timeslice and add no "
                 "throughput (use --jobs auto for the host width)");
        }
    }

    // loop:exempt(wall-clock telemetry only; never feeds simulated time)
    auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> results(plan.size());

    // Lookup-before-simulate. Trace collection needs the loop events
    // only a real execution produces, so while it is on every cell
    // simulates and neither cache is consulted (fresh results are not
    // inserted either: their cached form would be indistinguishable
    // from a non-traced run's, but skipping keeps the traced path
    // completely inert). Otherwise each cell is answered by the
    // in-process memo, then the persistent store, and only the
    // remaining misses reach the worker pool. `pending` holds miss
    // plan indices in plan order; `dupOf[i]` marks a cell whose
    // fingerprint already appeared earlier in this plan, which waits
    // for that first occurrence instead of simulating again.
    const bool memoize = !trace::collectionActive();
    store::ResultStore *pstore = memoize ? store::processStore() : nullptr;
    const store::StoreStats storeBefore =
        pstore ? pstore->stats() : store::StoreStats{};

    // Isolation and the journal ride the same gate as the caches:
    // trace collection needs real in-process executions, and a traced
    // campaign is a diagnostic run, not one worth resuming.
    const bool isolate = memoize && isolationActive();
    if (!memoize && isolationActive()) {
        warn("trace collection forces in-process execution; "
             "--isolate is bypassed for this campaign");
    }

    constexpr std::size_t kNotDup = static_cast<std::size_t>(-1);
    std::vector<store::Fingerprint> fps(plan.size());
    std::vector<std::size_t> dupOf(plan.size(), kNotDup);
    std::vector<std::size_t> pending;
    std::size_t memoHits = 0;
    std::size_t resumed = 0;

    std::unique_ptr<store::CampaignJournal> journal;
    if (memoize && store::journalConfigured() && !plan.empty()) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            fps[i] = store::fingerprintRun(plan.at(i).spec, policy);
        journal = std::make_unique<store::CampaignJournal>(
            store::journalPath(), planFingerprintFromCells(fps),
            plan.size());
        if (!journal->ok())
            journal.reset();
    }

    if (memoize) {
        std::map<store::Fingerprint, std::size_t> firstMiss;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (!journal)
                fps[i] = store::fingerprintRun(plan.at(i).spec, policy);
            // Journal replay outranks the caches: it carries recorded
            // fail/crash/timeout verdicts, and resuming must not send
            // a known-poison cell back to crash another worker.
            if (journal) {
                auto it = journal->replayed().find(fps[i]);
                if (it != journal->replayed().end()) {
                    results[i] = it->second;
                    store::processMemo().insert(fps[i], it->second);
                    ++resumed;
                    continue;
                }
            }
            if (auto hit = store::processMemo().lookup(fps[i])) {
                results[i] = std::move(*hit);
                ++memoHits;
                continue;
            }
            if (pstore) {
                if (auto hit = pstore->lookup(fps[i])) {
                    store::processMemo().insert(fps[i], *hit);
                    results[i] = std::move(*hit);
                    continue;
                }
            }
            auto [it, fresh] = firstMiss.emplace(fps[i], i);
            if (!fresh) {
                dupOf[i] = it->second;
                ++memoHits;
                continue;
            }
            pending.push_back(i);
        }
    } else {
        pending.resize(plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i)
            pending[i] = i;
    }

    // Resolve each miss's effective configuration once, up front, on
    // this thread. Workers then run against the pre-resolved Config
    // through runOnceResilientWith(), so the pool never serializes on
    // the process-wide overlay mutex and never rebuilds the
    // string-map-heavy figure defaults per cell (or per retry
    // attempt) — the first measurable contention point of the --jobs
    // scaling investigation: with short cells, every worker re-took
    // the overlay lock and re-built the default Config each time.
    // This also pins the whole campaign to the overlays in force at
    // plan time, matching what the fingerprints hashed. Isolated
    // workers fork after this point, so their memory snapshot holds
    // every cell's Config and the child never takes the overlay mutex.
    std::vector<Config> resolved(plan.size());
    for (std::size_t i : pending)
        resolved[i] = effectiveRunConfig(plan.at(i).spec);

    // Graceful shutdown scope: SIGINT/SIGTERM flips the drain flag,
    // workers stop claiming cells, in-flight isolated workers are
    // SIGKILLed and reaped by their supervising thread. `done[i]`
    // marks slots whose result is real — an interrupted drain must
    // not journal or publish a default-constructed RunResult.
    ShutdownGuard shutdownGuard;
    setSupervisorStopFlag(&shutdownRequested);
    std::vector<std::atomic<bool>> done(plan.size());
    SupervisionCounters counters;

    // What an isolated worker runs for cell i, in the child: the same
    // computation as the in-process path, under that cell's warn() tag
    // (a reused worker would otherwise keep the tag of the cell it was
    // forked for).
    const SupervisedWorker::Body isolatedCell = [&](std::size_t i) {
        DiagContext diag(cellTag(i, plan.at(i)));
        return runOnceResilientWith(plan.at(i).spec, resolved[i], policy);
    };

    auto executeOne = [&](std::size_t i, SupervisedWorker *worker) {
        DiagContext diag(cellTag(i, plan.at(i)));
        if (worker) {
            SupervisedOutcome so;
            try {
                so = worker->run(i, plan.at(i).spec, resolved[i],
                                 plan.at(i).label);
            } catch (const std::exception &err) {
                so.result = failSoftCell(plan.at(i), err.what());
            }
            counters.isolatedRuns.fetch_add(1,
                                            std::memory_order_relaxed);
            counters.workerSpawns.fetch_add(so.spawns,
                                            std::memory_order_relaxed);
            counters.crashes.fetch_add(so.crashes,
                                       std::memory_order_relaxed);
            counters.timeouts.fetch_add(so.timeouts,
                                        std::memory_order_relaxed);
            counters.spawnRetries.fetch_add(
                so.attempts - 1, std::memory_order_relaxed);
            counters.backoffWaits.fetch_add(so.backoffWaits,
                                            std::memory_order_relaxed);
            counters.backoffWaitMs.fetch_add(so.backoffWaitMs,
                                             std::memory_order_relaxed);
            if (so.interrupted)
                return;
            results[i] = std::move(so.result);
        } else {
            results[i] = runCell(plan.at(i), resolved[i], policy);
        }
        // Journal and publish as cells finish, on this thread, not
        // after the pool drains: a killed campaign then loses at most
        // the entries in flight, and the store writes overlap the
        // other workers' cells. Every simulated cell enters the memo
        // (failures included — a wedge is deterministic within this
        // process), but only healthy results are persisted, so a
        // future epoch or widened budget gets to retry failures.
        if (journal)
            journal->append(fps[i], results[i]);
        if (memoize) {
            store::processMemo().insert(fps[i], results[i]);
            if (pstore && !results[i].failed)
                pstore->insert(fps[i], results[i]);
        }
        done[i].store(true, std::memory_order_release);
    };

    const unsigned workers_wanted = static_cast<unsigned>(
        std::min<std::size_t>(jobs, std::max<std::size_t>(
                                        pending.size(), 1)));
    // Per-worker busy/claim-wait/idle accounting (wall clock,
    // telemetry only). Each slot is written by exactly one worker.
    std::vector<WorkerTelemetry> workerStats(workers_wanted);
    auto seconds = [](std::chrono::steady_clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    // One persistent worker process per pool thread under isolation,
    // forked by its first cell and reaped when the thread is done —
    // before runCampaign() returns or the drain exits.
    auto workerFor = [&]() -> std::optional<SupervisedWorker> {
        if (!isolate)
            return std::nullopt;
        return std::optional<SupervisedWorker>(std::in_place, isolatedCell);
    };
    if (workers_wanted <= 1) {
        WorkerTelemetry &w = workerStats[0];
        std::optional<SupervisedWorker> worker = workerFor();
        // loop:exempt(wall-clock telemetry only)
        const auto born = std::chrono::steady_clock::now();
        for (std::size_t i : pending) {
            if (shutdownRequested.load(std::memory_order_acquire))
                break;
            // loop:exempt(wall-clock telemetry only)
            const auto t0 = std::chrono::steady_clock::now();
            executeOne(i, worker ? &*worker : nullptr);
            // loop:exempt(wall-clock telemetry only)
            w.busySeconds += seconds(std::chrono::steady_clock::now() - t0);
            ++w.cells;
        }
        // loop:exempt(wall-clock telemetry only)
        w.idleSeconds = seconds(std::chrono::steady_clock::now() - born) -
                        w.busySeconds;
    } else {
        // Work-stealing by atomic cursor: each worker claims the next
        // unclaimed pending entry and writes its result slot. Slots
        // are disjoint, so results need no lock; ordering is by plan
        // index regardless of which worker finishes when.
        std::atomic<std::size_t> cursor{0};
        {
            std::vector<std::jthread> workers;
            workers.reserve(workers_wanted);
            for (unsigned t = 0; t < workers_wanted; ++t) {
                workers.emplace_back([&, t] {
                    WorkerTelemetry &w = workerStats[t];
                    w.id = t;
                    std::optional<SupervisedWorker> worker = workerFor();
                    // loop:exempt(wall-clock telemetry only)
                    const auto born = std::chrono::steady_clock::now();
                    for (;;) {
                        if (shutdownRequested.load(
                                std::memory_order_acquire))
                            break;
                        const auto claim0 =
                            // loop:exempt(wall-clock telemetry only)
                            std::chrono::steady_clock::now();
                        std::size_t k = cursor.fetch_add(
                            1, std::memory_order_relaxed);
                        const auto claim1 =
                            // loop:exempt(wall-clock telemetry only)
                            std::chrono::steady_clock::now();
                        w.claimWaitSeconds += seconds(claim1 - claim0);
                        if (k >= pending.size())
                            break;
                        executeOne(pending[k],
                                   worker ? &*worker : nullptr);
                        w.busySeconds += seconds(
                            // loop:exempt(wall-clock telemetry only)
                            std::chrono::steady_clock::now() - claim1);
                        ++w.cells;
                    }
                    w.idleSeconds =
                        // loop:exempt(wall-clock telemetry only)
                        seconds(std::chrono::steady_clock::now() - born) -
                        w.busySeconds - w.claimWaitSeconds;
                });
            }
        } // jthread joins here
    }
    setSupervisorStopFlag(nullptr);
    const bool interrupted =
        shutdownRequested.load(std::memory_order_acquire);

    if (memoize) {
        // Duplicate plan points copy through the memo so they carry
        // exactly what a memo hit would (no tick profile: the host
        // time was already attributed to the first occurrence).
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (dupOf[i] == kNotDup ||
                !done[dupOf[i]].load(std::memory_order_acquire))
                continue;
            if (auto hit = store::processMemo().lookup(fps[i]))
                results[i] = std::move(*hit);
            else
                results[i] = results[dupOf[i]];
        }
    }

    if (interrupted) {
        // Drained: record what completed, flush, and exit with the
        // conventional 128+signal status. The journal already holds
        // every finished cell, so the next invocation resumes.
        std::size_t completed = 0;
        CampaignTelemetry t;
        t.jobs = jobs;
        t.runs = plan.size();
        t.memoHits = memoHits;
        t.resumed = resumed;
        t.interrupted = true;
        loadSupervisionCounters(t, counters);
        for (std::size_t i : pending) {
            if (!done[i].load(std::memory_order_acquire))
                continue;
            ++completed;
            t.failures += results[i].failed ? 1 : 0;
            mergeTickProfile(t.tickProfile, results[i].tickProfile);
        }
        t.simulated = completed;
        t.workers = workerStats;
        if (pstore)
            t.store = storeDelta(pstore->stats(), storeBefore);
        auto drained =
            // loop:exempt(wall-clock telemetry only)
            std::chrono::steady_clock::now();
        t.wallSeconds =
            std::chrono::duration<double>(drained - start).count();
        std::function<void()> flush;
        {
            std::lock_guard<std::mutex> lock(telemetryMutex);
            lastTelemetry = t;
            totalTelemetry.accumulate(t);
        }
        {
            std::lock_guard<std::mutex> lock(flushHookMutex);
            flush = interruptFlushHook;
        }
        if (flush)
            flush();
        const int sig = shutdownSignal.load(std::memory_order_relaxed);
        warn("campaign interrupted by ",
             sig == SIGINT ? "SIGINT" : "SIGTERM", ": ", completed,
             " of ", pending.size(), " pending cells finished",
             journal ? " and were journaled for resume" : "",
             "; exiting ", 128 + sig);
        std::exit(128 + sig); // NOLINT(concurrency-mt-unsafe)
    }

    std::chrono::duration<double> wall =
        // loop:exempt(wall-clock telemetry only; never feeds simulated time)
        std::chrono::steady_clock::now() - start;

    // Feed the process-wide trace collector strictly in plan order,
    // from this (single) thread, after the pool has drained: the
    // assembled trace is therefore byte-identical at any worker
    // count, exactly like the figure outputs.
    if (trace::collectionActive()) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            trace::RunTrace rt;
            rt.label = !plan.at(i).label.empty()
                           ? plan.at(i).label
                           : results[i].workloadLabel + " " +
                                 results[i].pipeLabel;
            rt.events = std::move(results[i].loopEvents);
            trace::collectRun(std::move(rt));
        }
    }

    CampaignTelemetry t;
    t.jobs = jobs;
    t.hostCpus = host_cpus;
    t.runs = plan.size();
    t.simulated = pending.size();
    t.memoHits = memoHits;
    t.resumed = resumed;
    loadSupervisionCounters(t, counters);
    t.workers = std::move(workerStats);
    if (pstore)
        t.store = storeDelta(pstore->stats(), storeBefore);
    t.wallSeconds = wall.count();
    for (const RunResult &r : results) {
        t.failures += r.failed ? 1 : 0;
        mergeTickProfile(t.tickProfile, r.tickProfile);
    }

    {
        std::lock_guard<std::mutex> lock(telemetryMutex);
        lastTelemetry = t;
        totalTelemetry.accumulate(t);
    }
    return results;
}

store::Fingerprint
fingerprintPlan(const CampaignPlan &plan, const RetryPolicy &policy)
{
    std::vector<store::Fingerprint> fps;
    fps.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        fps.push_back(store::fingerprintRun(plan.at(i).spec, policy));
    return planFingerprintFromCells(fps);
}

void
setCampaignInterruptFlush(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(flushHookMutex);
    interruptFlushHook = std::move(hook);
}

CampaignTelemetry
lastCampaignTelemetry()
{
    std::lock_guard<std::mutex> lock(telemetryMutex);
    return lastTelemetry;
}

CampaignTelemetry
campaignTotals()
{
    std::lock_guard<std::mutex> lock(telemetryMutex);
    return totalTelemetry;
}

void
resetCampaignTotals()
{
    std::lock_guard<std::mutex> lock(telemetryMutex);
    lastTelemetry = CampaignTelemetry{};
    totalTelemetry = CampaignTelemetry{};
}

} // namespace loopsim
