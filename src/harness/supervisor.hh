/**
 * @file
 * Crash-isolated cell execution: persistent forked worker processes,
 * wall-clock deadlines, and backoff respawns.
 *
 * The campaign executor (harness/campaign.hh) normally runs cells on
 * threads inside one process, which means one segfaulting, aborting or
 * livelocked cell takes the whole multi-hour figure campaign with it.
 * Under isolation (--isolate / LOOPSIM_ISOLATE) each pool thread
 * instead owns one SupervisedWorker: a fork()ed process that runs cell
 * after cell. The parent sends a cell index over a socket; the child
 * runs the cell against the configuration resolved before the fork,
 * answers with a length-prefixed wire record (the store's record
 * codec, so doubles survive bit-exactly and a truncated write is
 * detected by CRC) and waits for the next index. The parent classifies
 * every dispatched cell:
 *
 *  - a valid record              -> the result, healthy or fail-soft
 *  - death by signal (SIGSEGV, abort, OOM kill), nonzero exit, EOF or
 *    a garbled record            -> FailKind::Crash
 *  - wall-clock deadline overrun (--deadline-ms, counted from
 *    dispatch) -> SIGKILL + reap -> FailKind::Timeout — a *real-time*
 *    watchdog complementing the cycle-budget watchdog, which cannot
 *    fire when the process stops ticking simulated time at all
 *
 * A death, garble or overrun is charged to the cell in flight and
 * retried in a fresh worker with exponential backoff up to a capped
 * attempt budget, then degrades to a crash/timeout figure cell next to
 * the existing fail state. A worker found dead while idle (before a
 * cell is dispatched) is respawned without charging anyone. Reusing a
 * process is sound because every cell is a pure function of its
 * RunSpec — the same property the in-process pool and byte-identity
 * at any --jobs rest on — so results are byte-identical to an
 * in-process run.
 *
 * Process hygiene: right after fork the child closes every descriptor
 * but stdio and its own channel end (a sibling's channel, the journal
 * or the store must not stay open in it), the channel is a socketpair
 * written with MSG_NOSIGNAL (a dead peer is EPIPE, never SIGPIPE), and
 * stop() or the destructor reaps the process — so nothing a campaign
 * forked outlives it.
 *
 * Fork-safety: the parent is multi-threaded (campaign workers fork
 * concurrently), so the child must not touch a lock another parent
 * thread held at fork time. The child therefore only runs its cell
 * body against state frozen before the pool started (the campaign
 * resolves every miss's configuration up front; runOnceResilientWith()
 * takes no overlay mutex), and glibc's atfork handlers keep malloc
 * usable. Loop-event traces only exist in real in-process executions,
 * so the campaign executor bypasses isolation while trace collection
 * is on (the same contract the result store follows); tick profiles
 * are shipped back over the channel as a wire extension.
 */

#ifndef LOOPSIM_HARNESS_SUPERVISOR_HH
#define LOOPSIM_HARNESS_SUPERVISOR_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include <sys/types.h>

#include "harness/experiment.hh"

namespace loopsim
{

/** How the supervisor respawns crashed / timed-out workers. */
struct SupervisorPolicy
{
    /** Total attempts per cell (first try included); every retry
     *  runs in a freshly forked worker. */
    unsigned attempts = 2;
    /** Wall-clock deadline per attempt in ms; 0 = none. */
    std::uint64_t deadlineMs = 0;
    /** First respawn backoff wait in ms (doubled per retry by
     *  backoffGrowth, capped at backoffMaxMs). */
    std::uint64_t backoffMs = 100;
    double backoffGrowth = 2.0;
    std::uint64_t backoffMaxMs = 2000;

    /**
     * integrity.supervisor.attempts / .deadline_ms / .backoff_ms /
     * .backoff_growth / .backoff_max_ms, with the process-wide
     * deadline (deadlineMs()) as the .deadline_ms default — so whole
     * campaigns tune supervision through overlays, like retries.
     */
    static SupervisorPolicy fromConfig(const Config &cfg);
};

/** What supervising one cell cost, for campaign telemetry. */
struct SupervisedOutcome
{
    RunResult result;
    /** Attempts actually made (1 when the first dispatch answered). */
    unsigned attempts = 1;
    /** Worker processes forked while serving this cell: 0 when a live
     *  worker was reused, 1 for a first or idle-death respawn, plus one
     *  per retry after a charged death. */
    unsigned spawns = 0;
    /** Worker deaths observed across attempts (signal/exit/garble). */
    unsigned crashes = 0;
    /** Deadline overruns observed across attempts. */
    unsigned timeouts = 0;
    /** Backoff sleeps taken between respawns, and their total. */
    unsigned backoffWaits = 0;
    std::uint64_t backoffWaitMs = 0;
    /** A graceful shutdown interrupted this cell: the in-flight worker
     *  was reaped early and result must not be journaled or used. */
    bool interrupted = false;
};

/** @name Process-wide isolation configuration
 * Precedence: setIsolation() (the bench binaries' --isolate flag) >
 * the LOOPSIM_ISOLATE environment variable (base/knobs.hh) > off.
 * The deadline follows the same scheme with --deadline-ms /
 * LOOPSIM_DEADLINE_MS; 0 means no deadline. */
/// @{
bool isolationSupported(); ///< true on Linux only
void setIsolation(bool on);
bool isolationActive();
void setDeadlineMs(std::uint64_t ms);
std::uint64_t deadlineMs();
/// @}

/**
 * Cooperative shutdown: while @p flag (owned by the caller, may be
 * null to detach) reads true, in-flight workers are SIGKILLed and
 * reaped, backoff sleeps cut short, and outcomes come back with
 * interrupted set. The campaign executor points this at its
 * SIGINT/SIGTERM flag for the duration of a run.
 */
void setSupervisorStopFlag(const std::atomic<bool> *flag);

/**
 * One persistent forked worker process and the pool thread that
 * supervises it. Not thread-safe: one supervising thread per worker.
 *
 * The worker is forked lazily by the first run() (and again after any
 * death). In the child, @p body maps a cell index to its result; it
 * runs against whatever the parent had in memory at fork time, so
 * everything it reads must be settled before the first run() and never
 * change afterwards. An exception escaping @p body kills the worker,
 * which is charged to that cell as a crash.
 */
class SupervisedWorker
{
  public:
    using Body = std::function<RunResult(std::size_t index)>;

    explicit SupervisedWorker(Body body);
    /** stop(): the worker never outlives its supervisor. */
    ~SupervisedWorker();
    SupervisedWorker(const SupervisedWorker &) = delete;
    SupervisedWorker &operator=(const SupervisedWorker &) = delete;

    /**
     * Run cell @p index in the worker, with the retry/backoff/deadline
     * policy resolved from @p resolved (SupervisorPolicy::fromConfig).
     * @p spec and @p resolved only label warnings and a degraded
     * crash/timeout result (@p fallback_label when the spec itself is
     * unprintable); what the child runs is body(index).
     */
    SupervisedOutcome run(std::size_t index, const RunSpec &spec,
                          const Config &resolved,
                          const std::string &fallback_label);

    /** Close the channel and reap the worker (SIGKILL if it is not
     *  idle). Idempotent; the next run() forks a fresh one. */
    void stop();

    /** The live worker's pid, or -1 (tests). */
    pid_t pid() const { return child; }

  private:
    enum class Fate;
    bool spawn(std::string &why);
    Fate dispatch(std::size_t index, std::uint64_t deadline_ms,
                  RunResult &result, std::string &why);
    /** SIGKILL + waitpid + close; returns how the worker ended. */
    std::string reap();

    Body body;
    pid_t child = -1;
    int channel = -1;
};

/**
 * Run one cell in a freshly forked SupervisedWorker and reap it: the
 * one-worker, one-cell case of the class above. @p policy is the retry
 * policy forwarded to the in-child runOnceResilient() (per-run
 * integrity.retry.* keys still win inside the child); the supervisor's
 * own spawn policy is resolved from the cell's effective config. The
 * result's labels are always filled (from @p fallback_label when the
 * spec itself is unprintable), so crash/timeout cells render like any
 * other fail-soft cell.
 */
SupervisedOutcome runCellSupervised(const RunSpec &spec,
                                    const RetryPolicy &policy,
                                    const std::string &fallback_label);

} // namespace loopsim

#endif // LOOPSIM_HARNESS_SUPERVISOR_HH
