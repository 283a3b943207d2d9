/**
 * @file
 * Tests for crash-isolated campaign supervision: forked workers
 * round-tripping results bit-exactly, injected worker crashes
 * (including SIGKILL) and wall-clock deadline overruns degrading to
 * crash/timeout cells after backoff respawns, campaign journals
 * replaying completed and poison cells on resume, journal maintenance
 * (torn tails, pruning), plan fingerprint sensitivity, a real
 * SIGINT drain of a forked campaign that resumes from its journal, and
 * the persistent worker's contract: one fork per pool thread, a fresh
 * worker after a crash or timeout, uncharged respawn after an idle
 * death, per-cell warn() tags, descriptor hygiene, and no worker left
 * unreaped when a campaign returns or drains.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "base/knobs.hh"
#include "base/logging.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "harness/supervisor.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/result_store.hh"

using namespace loopsim;
namespace fs = std::filesystem;

namespace
{

RunSpec
smallSpec(const std::string &workload, std::uint64_t ops = 4000)
{
    RunSpec spec;
    spec.workload = resolveWorkload(workload);
    spec.totalOps = ops;
    spec.warmupOps = 1000;
    return spec;
}

/** The campaign tests' deliberately-wedged configuration: the
 *  in-process fail-soft path fires quickly and deterministically. */
Config
wedgeConfig()
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setDouble("integrity.fault.wakeup_drop", 1.0);
    cfg.setUint("integrity.watchdog.window", 10000);
    cfg.setUint("integrity.retry.attempts", 1);
    return cfg;
}

/** Process-fault overrides: crash (or hang) the worker once it has
 *  retired @p at ops. Supervision kept fast: no backoff to speak of. */
Config
crashConfig(std::uint64_t at, int sig, unsigned attempts)
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setUint("integrity.fault.crash_at_op", at);
    cfg.setUint("integrity.fault.crash_signal",
                static_cast<std::uint64_t>(sig));
    cfg.setUint("integrity.supervisor.attempts", attempts);
    cfg.setUint("integrity.supervisor.backoff_ms", 1);
    return cfg;
}

Config
hangConfig(std::uint64_t at, std::uint64_t deadline_ms)
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setUint("integrity.fault.hang_at_op", at);
    cfg.setUint("integrity.supervisor.attempts", 1);
    cfg.setUint("integrity.supervisor.deadline_ms", deadline_ms);
    return cfg;
}

/** A fresh, empty directory under the test temp root.  The pid suffix keeps
 *  the aggregate and label-specific test binaries (which compile the same
 *  sources) from clobbering each other when ctest runs them in parallel. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir =
        fs::path(::testing::TempDir()) / (name + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Restore every process-wide supervision knob on scope exit, so one
 *  failing test cannot poison the rest of the binary. */
struct SupervisionScope
{
    ~SupervisionScope()
    {
        setIsolation(false);
        setDeadlineMs(0);
        store::setJournalPath("");
        store::resetProcessStore();
        clearRunOverlay();
        setCampaignJobs(0);
    }
};

/** Bit-exact equality of everything the figures can see. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workloadLabel, b.workloadLabel);
    EXPECT_EQ(a.pipeLabel, b.pipeLabel);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.failKind, b.failKind);
    EXPECT_EQ(a.error, b.error);
    if (!a.failed) {
        EXPECT_EQ(a.ipc, b.ipc);
    } else {
        EXPECT_EQ(pointFailKind(a.ipc), pointFailKind(b.ipc));
    }
    EXPECT_EQ(a.operandSourceFractions, b.operandSourceFractions);
    EXPECT_EQ(a.operandSourceCounts, b.operandSourceCounts);
    EXPECT_EQ(a.gapCdf, b.gapCdf);
    EXPECT_EQ(a.scalars, b.scalars);
}

void
expectSameResults(const std::vector<RunResult> &a,
                  const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameResult(a[i], b[i]);
    }
}

} // anonymous namespace

TEST(SupervisorPolicyTest, FromConfigDefaultsAndOverrides)
{
    SupervisionScope scope;
    setDeadlineMs(0);

    SupervisorPolicy def = SupervisorPolicy::fromConfig(Config{});
    EXPECT_EQ(def.attempts, 2u);
    EXPECT_EQ(def.deadlineMs, 0u);
    EXPECT_EQ(def.backoffMs, 100u);
    EXPECT_DOUBLE_EQ(def.backoffGrowth, 2.0);
    EXPECT_EQ(def.backoffMaxMs, 2000u);

    // The process-wide deadline is the .deadline_ms default...
    setDeadlineMs(750);
    EXPECT_EQ(SupervisorPolicy::fromConfig(Config{}).deadlineMs, 750u);

    // ...and explicit keys win over both defaults.
    Config cfg;
    cfg.setUint("integrity.supervisor.attempts", 5);
    cfg.setUint("integrity.supervisor.deadline_ms", 123);
    cfg.setUint("integrity.supervisor.backoff_ms", 7);
    cfg.setDouble("integrity.supervisor.backoff_growth", 3.0);
    cfg.setUint("integrity.supervisor.backoff_max_ms", 11);
    SupervisorPolicy p = SupervisorPolicy::fromConfig(cfg);
    EXPECT_EQ(p.attempts, 5u);
    EXPECT_EQ(p.deadlineMs, 123u);
    EXPECT_EQ(p.backoffMs, 7u);
    EXPECT_DOUBLE_EQ(p.backoffGrowth, 3.0);
    EXPECT_EQ(p.backoffMaxMs, 11u);
}

TEST(SupervisorFlags, SettersWinOverEnvironment)
{
    SupervisionScope scope;
    ASSERT_TRUE(isolationSupported());

    setIsolation(true);
    EXPECT_TRUE(isolationActive());
    setIsolation(false);
    EXPECT_FALSE(isolationActive());

    setDeadlineMs(4321);
    EXPECT_EQ(deadlineMs(), 4321u);
    setDeadlineMs(0);
    EXPECT_EQ(deadlineMs(), 0u);
}

TEST(SupervisedRun, HealthyCellMatchesInProcessBitExactly)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");

    RunResult inproc = runOnce(spec);
    SupervisedOutcome so = runCellSupervised(spec, {}, "gcc cell");

    EXPECT_EQ(so.attempts, 1u);
    EXPECT_EQ(so.crashes, 0u);
    EXPECT_EQ(so.timeouts, 0u);
    EXPECT_FALSE(so.interrupted);
    expectSameResult(so.result, inproc);
}

TEST(SupervisedRun, SimFailureTravelsTheWireAsFailNotCrash)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = wedgeConfig();

    SupervisedOutcome so = runCellSupervised(spec, {}, "wedge cell");

    // The child fail-softed in-process and exited cleanly: the wire
    // carries a Sim verdict, not a worker death.
    EXPECT_EQ(so.crashes, 0u);
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Sim);
    EXPECT_EQ(pointFailKind(so.result.ipc), FailKind::Sim);
}

TEST(SupervisedRun, CrashDegradesAfterBackoffRespawns)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = crashConfig(500, SIGABRT, 2);

    SupervisedOutcome so = runCellSupervised(spec, {}, "crash cell");

    EXPECT_EQ(so.attempts, 2u);
    EXPECT_EQ(so.crashes, 2u);
    EXPECT_EQ(so.timeouts, 0u);
    EXPECT_EQ(so.backoffWaits, 1u);
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Crash);
    EXPECT_EQ(pointFailKind(so.result.ipc), FailKind::Crash);
    EXPECT_NE(so.result.error.find("signal"), std::string::npos);
    // Crash cells still render like any other cell.
    EXPECT_FALSE(so.result.workloadLabel.empty());
    EXPECT_FALSE(so.result.pipeLabel.empty());
}

TEST(SupervisedRun, SigkilledWorkerIsACrash)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = crashConfig(500, SIGKILL, 1);

    SupervisedOutcome so = runCellSupervised(spec, {}, "kill cell");

    EXPECT_EQ(so.attempts, 1u);
    EXPECT_EQ(so.crashes, 1u);
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Crash);
    EXPECT_NE(so.result.error.find("signal 9"), std::string::npos);
}

TEST(SupervisedRun, DeadlineReapsHungWorker)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = hangConfig(500, 300);

    SupervisedOutcome so = runCellSupervised(spec, {}, "hang cell");

    EXPECT_EQ(so.attempts, 1u);
    EXPECT_EQ(so.timeouts, 1u);
    EXPECT_EQ(so.crashes, 0u);
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Timeout);
    EXPECT_EQ(pointFailKind(so.result.ipc), FailKind::Timeout);
    EXPECT_NE(so.result.error.find("deadline"), std::string::npos);
}

TEST(JournalTest, AppendReopenReplaysVerdictsIncluded)
{
    fs::path dir = freshDir("journal_replay");
    store::Fingerprint plan_fp{0x1111u, 0x2222u};
    store::Fingerprint fp_ok{0xaaaau, 1u};
    store::Fingerprint fp_bad{0xbbbbu, 2u};

    RunResult ok = runOnce(smallSpec("gcc", 2000));
    RunResult bad;
    bad.failed = true;
    bad.failKind = FailKind::Crash;
    bad.error = "worker died on signal 11";
    bad.workloadLabel = "gcc";
    bad.pipeLabel = "5_5";
    bad.ipc = failPoint(FailKind::Crash);

    {
        store::CampaignJournal j(dir.string(), plan_fp, 3);
        ASSERT_TRUE(j.ok());
        EXPECT_TRUE(j.replayed().empty());
        j.append(fp_ok, ok);
        j.append(fp_bad, bad);
    }

    store::CampaignJournal j(dir.string(), plan_fp, 3);
    ASSERT_TRUE(j.ok());
    ASSERT_EQ(j.replayed().size(), 2u);
    expectSameResult(j.replayed().at(fp_ok), ok);
    const RunResult &poison = j.replayed().at(fp_bad);
    EXPECT_TRUE(poison.failed);
    EXPECT_EQ(poison.failKind, FailKind::Crash);
    EXPECT_EQ(poison.error, "worker died on signal 11");

    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_TRUE(scanned[0].headerOk);
    EXPECT_EQ(scanned[0].entries, 2u);
    EXPECT_EQ(scanned[0].poison, 1u);
    EXPECT_EQ(scanned[0].planCells, 3u);
    EXPECT_FALSE(scanned[0].complete());
    EXPECT_FALSE(scanned[0].truncatedTail());
}

TEST(JournalTest, TornTailIsDetectedAndTruncatedOnReopen)
{
    fs::path dir = freshDir("journal_torn");
    store::Fingerprint plan_fp{0x3333u, 0x4444u};
    store::Fingerprint fp{0xccccu, 3u};
    RunResult ok = runOnce(smallSpec("gcc", 2000));

    std::string path;
    {
        store::CampaignJournal j(dir.string(), plan_fp, 2);
        ASSERT_TRUE(j.ok());
        j.append(fp, ok);
        path = j.path();
    }

    // A crash mid-append leaves a short, garbled tail.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("\x40\x00\x00\x00torn", 8);
    }
    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_TRUE(scanned[0].headerOk);
    EXPECT_EQ(scanned[0].entries, 1u);
    EXPECT_TRUE(scanned[0].truncatedTail());

    // Reopening replays the valid prefix and truncates the tail, so
    // the next append lands on clean framing.
    {
        store::CampaignJournal j(dir.string(), plan_fp, 2);
        ASSERT_TRUE(j.ok());
        EXPECT_EQ(j.replayed().size(), 1u);
        j.append(store::Fingerprint{0xddddu, 4u}, ok);
    }
    scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_EQ(scanned[0].entries, 2u);
    EXPECT_FALSE(scanned[0].truncatedTail());
    EXPECT_TRUE(scanned[0].complete());
}

TEST(JournalTest, MismatchedHeaderStartsOver)
{
    fs::path dir = freshDir("journal_foreign");
    store::Fingerprint plan_fp{0x5555u, 0x6666u};
    RunResult ok = runOnce(smallSpec("gcc", 2000));

    std::string path;
    {
        store::CampaignJournal j(dir.string(), plan_fp, 2);
        ASSERT_TRUE(j.ok());
        j.append(store::Fingerprint{1u, 1u}, ok);
        path = j.path();
    }

    // Same plan fingerprint, different plan size: a stale journal from
    // an edited campaign must not replay into the new one.
    store::CampaignJournal j(dir.string(), plan_fp, 7);
    ASSERT_TRUE(j.ok());
    EXPECT_TRUE(j.replayed().empty());
}

TEST(JournalTest, PruneRemovesCompletedKeepsResumable)
{
    fs::path dir = freshDir("journal_prune");
    RunResult ok = runOnce(smallSpec("gcc", 2000));

    {
        store::CampaignJournal complete(dir.string(),
                                        store::Fingerprint{1u, 0u}, 1);
        complete.append(store::Fingerprint{10u, 0u}, ok);
        store::CampaignJournal partial(dir.string(),
                                       store::Fingerprint{2u, 0u}, 5);
        partial.append(store::Fingerprint{20u, 0u}, ok);
    }
    ASSERT_EQ(store::scanJournals(dir.string()).size(), 2u);

    EXPECT_EQ(store::pruneJournals(dir.string()), 1u);
    auto left = store::scanJournals(dir.string());
    ASSERT_EQ(left.size(), 1u);
    EXPECT_FALSE(left[0].complete());
}

TEST(PlanFingerprintTest, StableAndSensitive)
{
    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "a");
    plan.add(smallSpec("swim"), "b");

    CampaignPlan same;
    same.add(smallSpec("gcc"), "renamed"); // labels are diagnostic only
    same.add(smallSpec("swim"));
    EXPECT_EQ(fingerprintPlan(plan), fingerprintPlan(same));

    CampaignPlan reordered;
    reordered.add(smallSpec("swim"));
    reordered.add(smallSpec("gcc"));
    EXPECT_NE(fingerprintPlan(plan), fingerprintPlan(reordered));

    CampaignPlan grown = plan;
    grown.add(smallSpec("turb3d"));
    EXPECT_NE(fingerprintPlan(plan), fingerprintPlan(grown));

    CampaignPlan tweaked;
    tweaked.add(smallSpec("gcc", 4001));
    tweaked.add(smallSpec("swim"));
    EXPECT_NE(fingerprintPlan(plan), fingerprintPlan(tweaked));

    RetryPolicy other;
    other.attempts = 7;
    EXPECT_NE(fingerprintPlan(plan), fingerprintPlan(plan, other));
}

TEST(CampaignIsolation, CrashedCellLosesOnlyItself)
{
    SupervisionScope scope;
    store::resetProcessStore();

    // Campaign-wide fault overlay, targeted at one workload: only the
    // swim cell crashes, the rest of the sweep must stay healthy.
    Config overlay;
    overlay.setBool("integrity.fault.enable", true);
    overlay.setUint("integrity.fault.crash_at_op", 500);
    overlay.set("integrity.fault.crash_target", "swim");
    overlay.setUint("integrity.supervisor.attempts", 1);
    setRunOverlay(overlay);
    setIsolation(true);

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    plan.add(smallSpec("swim"), "swim");
    plan.add(smallSpec("turb3d"), "turb3d");
    std::vector<RunResult> results = runCampaign(plan, {}, 2);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_TRUE(results[1].failed);
    EXPECT_EQ(results[1].failKind, FailKind::Crash);
    EXPECT_FALSE(results[2].failed);

    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.isolatedRuns, 3u);
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_EQ(t.timeouts, 0u);
    EXPECT_EQ(t.failures, 1u);
    EXPECT_FALSE(t.interrupted);
}

TEST(CampaignIsolation, HungCellTimesOutOthersHealthy)
{
    SupervisionScope scope;
    store::resetProcessStore();

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    RunSpec hung = smallSpec("swim");
    hung.overrides = hangConfig(500, 300);
    plan.add(std::move(hung), "swim hang");
    setIsolation(true);

    std::vector<RunResult> results = runCampaign(plan, {}, 2);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_EQ(results[1].failKind, FailKind::Timeout);

    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.timeouts, 1u);
    EXPECT_EQ(t.crashes, 0u);
}

TEST(CampaignIsolation, IsolatedMatchesInProcessBitExactly)
{
    SupervisionScope scope;
    store::resetProcessStore();

    // Healthy cells plus a wedged one, so the fail-soft footer crosses
    // the pipe too.
    CampaignPlan plan;
    for (const char *w : {"gcc", "swim", "turb3d"}) {
        plan.add(smallSpec(w), std::string(w) + "/base");
        RunSpec dra = smallSpec(w);
        setDraPipeline(dra.overrides, 5);
        plan.add(std::move(dra), std::string(w) + "/dra");
    }
    RunSpec wedged = smallSpec("gcc");
    wedged.overrides = wedgeConfig();
    plan.add(std::move(wedged), "gcc/wedge");

    setIsolation(false);
    std::vector<RunResult> inproc = runCampaign(plan, {}, 4);
    EXPECT_EQ(lastCampaignTelemetry().isolatedRuns, 0u);

    store::resetProcessStore(); // clear the memo: really re-execute
    setIsolation(true);
    std::vector<RunResult> isolated = runCampaign(plan, {}, 4);
    EXPECT_EQ(lastCampaignTelemetry().isolatedRuns, plan.size());
    EXPECT_EQ(lastCampaignTelemetry().crashes, 0u);

    expectSameResults(inproc, isolated);
}

TEST(CampaignResume, JournalReplaysCompletedCells)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_resume");

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    plan.add(smallSpec("swim"), "swim");
    plan.add(smallSpec("turb3d"), "turb3d");
    plan.add(smallSpec("gcc", 5000), "gcc long");

    // The reference: a clean, journal-less run.
    std::vector<RunResult> reference = runCampaign(plan, {}, 2);

    // Fake an interrupted campaign: a journal holding the first two
    // cells only, exactly as a SIGINT drain would have left it.
    {
        store::CampaignJournal j(dir.string(), fingerprintPlan(plan),
                                 plan.size());
        ASSERT_TRUE(j.ok());
        j.append(store::fingerprintRun(plan.at(0).spec, {}),
                 reference[0]);
        j.append(store::fingerprintRun(plan.at(1).spec, {}),
                 reference[1]);
    }

    store::resetProcessStore(); // the journal, not the memo, must answer
    store::setJournalPath(dir.string());
    std::vector<RunResult> resumed = runCampaign(plan, {}, 2);

    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed, 2u);
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.memoHits, 0u);
    expectSameResults(reference, resumed);

    // The journal now covers the whole plan: a second resume replays
    // everything and simulates nothing.
    store::resetProcessStore();
    std::vector<RunResult> warm = runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed, plan.size());
    EXPECT_EQ(t.simulated, 0u);
    expectSameResults(reference, warm);
    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_TRUE(scanned[0].complete());
}

TEST(CampaignResume, PoisonVerdictIsReplayedNotReExecuted)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_poison");
    store::setJournalPath(dir.string());
    setIsolation(true);

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    RunSpec doomed = smallSpec("swim");
    doomed.overrides = crashConfig(500, SIGABRT, 1);
    plan.add(std::move(doomed), "swim crash");

    std::vector<RunResult> first = runCampaign(plan, {}, 2);
    EXPECT_EQ(lastCampaignTelemetry().crashes, 1u);
    EXPECT_EQ(first[1].failKind, FailKind::Crash);
    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_EQ(scanned[0].poison, 1u);

    // Resume with isolation off: if the poison cell were re-executed
    // it would crash this very process, so surviving the rerun *is*
    // the assertion — and the telemetry must show pure replay.
    store::resetProcessStore();
    setIsolation(false);
    std::vector<RunResult> second = runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed, plan.size());
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_EQ(t.crashes, 0u);
    expectSameResults(first, second);
}

TEST(CampaignInterrupt, SigintDrainsJournalsAndResumes)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_sigint");

    CampaignPlan plan;
    for (std::uint64_t i = 0; i < 8; ++i) {
        plan.add(smallSpec(i % 2 == 0 ? "gcc" : "swim", 20000 + i),
                 "cell " + std::to_string(i));
    }

    // The reference, computed before anything forks.
    std::vector<RunResult> reference = runCampaign(plan, {}, 2);
    store::resetProcessStore();

    std::fflush(nullptr);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: run the campaign with a journal; on SIGINT the drain
        // exits 128+SIGINT by itself, on completion exit 0.
        store::setJournalPath(dir.string());
        runCampaign(plan, {}, 2);
        ::_exit(0);
    }

    // Wait for the child to journal at least one cell, then interrupt.
    bool saw_entry = false;
    for (int spin = 0; spin < 3000; ++spin) {
        for (const auto &j : store::scanJournals(dir.string())) {
            if (j.entries > 0)
                saw_entry = true;
        }
        if (saw_entry)
            break;
        ::usleep(10000);
    }
    ::kill(pid, SIGINT);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    // 130 when the signal landed mid-campaign; 0 when the campaign won
    // the race and finished first. Both leave a resumable journal.
    const int code = WEXITSTATUS(status);
    EXPECT_TRUE(code == 130 || code == 0) << "exit status " << code;

    // Resume in this process: replay what the child journaled,
    // simulate only the rest, and match the reference bit-exactly.
    store::setJournalPath(dir.string());
    std::vector<RunResult> resumed = runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed + t.simulated, plan.size());
    if (saw_entry && code == 130) {
        EXPECT_GE(t.resumed, 1u);
    }
    if (code == 0) {
        EXPECT_EQ(t.resumed, plan.size());
    }
    expectSameResults(reference, resumed);
}

namespace
{

/** A fixed cell table for driving one SupervisedWorker directly. */
struct CellTable
{
    std::vector<RunSpec> specs;
    std::vector<Config> resolved;

    std::size_t
    add(RunSpec spec)
    {
        resolved.push_back(effectiveRunConfig(spec));
        specs.push_back(std::move(spec));
        return specs.size() - 1;
    }

    SupervisedWorker::Body
    body() const
    {
        return [this](std::size_t i) {
            return runOnceResilientWith(specs[i], resolved[i]);
        };
    }

    SupervisedOutcome
    run(SupervisedWorker &w, std::size_t i) const
    {
        return w.run(i, specs[i], resolved[i], "cell");
    }
};

/** Block until @p pid has exited, without reaping it. */
void
awaitDeathUnreaped(pid_t pid)
{
    siginfo_t info{};
    while (::waitid(P_PID, static_cast<id_t>(pid), &info,
                    WEXITED | WNOWAIT) < 0 &&
           errno == EINTR) {
    }
}

/** True when this process has no child left, reaped or not. */
bool
noChildrenLeft()
{
    errno = 0;
    return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

} // anonymous namespace

TEST(PersistentWorker, CampaignForksOneWorkerPerPoolThread)
{
    SupervisionScope scope;
    store::resetProcessStore();

    CampaignPlan plan;
    for (std::uint64_t i = 0; i < 8; ++i) {
        plan.add(smallSpec(i % 2 == 0 ? "gcc" : "swim", 4000 + i),
                 "cell " + std::to_string(i));
    }
    std::vector<RunResult> inproc = runCampaign(plan, {}, 3);

    store::resetProcessStore();
    setIsolation(true);
    std::vector<RunResult> isolated = runCampaign(plan, {}, 3);
    CampaignTelemetry t = lastCampaignTelemetry();
    expectSameResults(inproc, isolated);
    EXPECT_EQ(t.isolatedRuns, plan.size());
    EXPECT_EQ(t.crashes, 0u);
    // One fork per pool thread that ran a cell (all three, unless a
    // thread started after its siblings had claimed every cell), never
    // one per cell.
    std::size_t threads_used = 0;
    for (const WorkerTelemetry &w : t.workers)
        threads_used += w.cells > 0 ? 1 : 0;
    EXPECT_EQ(t.workerSpawns, threads_used);
    EXPECT_LE(t.workerSpawns, 3u);
    EXPECT_GE(t.workerSpawns, 1u);

    // Serially, one worker runs the whole plan.
    store::resetProcessStore();
    std::vector<RunResult> serial = runCampaign(plan, {}, 1);
    expectSameResults(inproc, serial);
    EXPECT_EQ(lastCampaignTelemetry().workerSpawns, 1u);
    EXPECT_TRUE(noChildrenLeft());
}

TEST(PersistentWorker, CrashDegradesOnlyItsCellAndTheNextGetsAFreshWorker)
{
    SupervisionScope scope;
    CellTable cells;
    const std::size_t first = cells.add(smallSpec("gcc"));
    RunSpec doomed = smallSpec("swim");
    // SIGABRT, not SIGSEGV: a sanitizer runtime turns a SEGV into an
    // exit status, and the test should hold in sanitizer builds too.
    doomed.overrides = crashConfig(500, SIGABRT, 1);
    const std::size_t crash = cells.add(std::move(doomed));
    const std::size_t after = cells.add(smallSpec("turb3d"));

    SupervisedWorker w(cells.body());
    SupervisedOutcome a = cells.run(w, first);
    EXPECT_EQ(a.spawns, 1u);
    const pid_t reused = w.pid();
    ASSERT_GT(reused, 0);

    SupervisedOutcome b = cells.run(w, crash);
    EXPECT_EQ(b.spawns, 0u) << "the crash cell reuses the live worker";
    EXPECT_EQ(b.crashes, 1u);
    EXPECT_EQ(b.result.failKind, FailKind::Crash);
    EXPECT_NE(b.result.error.find("signal 6"), std::string::npos);
    EXPECT_EQ(w.pid(), -1) << "the dead worker is reaped at once";

    SupervisedOutcome c = cells.run(w, after);
    EXPECT_EQ(c.spawns, 1u);
    EXPECT_EQ(c.crashes, 0u);
    EXPECT_NE(w.pid(), reused);
    expectSameResult(a.result, runOnce(cells.specs[first]));
    expectSameResult(c.result, runOnce(cells.specs[after]));

    // The same through a serial campaign: one crash, one respawn.
    store::resetProcessStore();
    Config overlay;
    overlay.setBool("integrity.fault.enable", true);
    overlay.setUint("integrity.fault.crash_at_op", 500);
    overlay.set("integrity.fault.crash_target", "swim");
    overlay.setUint("integrity.supervisor.attempts", 1);
    setRunOverlay(overlay);
    setIsolation(true);
    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    plan.add(smallSpec("swim"), "swim");
    plan.add(smallSpec("turb3d"), "turb3d");
    plan.add(smallSpec("gcc", 4500), "gcc long");
    std::vector<RunResult> results = runCampaign(plan, {}, 1);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_EQ(t.workerSpawns, 2u);
    EXPECT_EQ(results[1].failKind, FailKind::Crash);
    for (std::size_t i : {0u, 2u, 3u}) {
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_FALSE(results[i].failed);
    }
    // In-process under the same overlay: the respawned worker's cell
    // is bit-identical.
    expectSameResult(results[3], runOnce(plan.at(3).spec));
}

TEST(PersistentWorker, HungCellIsKilledAtItsDeadline)
{
    SupervisionScope scope;
    store::resetProcessStore();
    setIsolation(true);

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    RunSpec hung = smallSpec("swim");
    hung.overrides = hangConfig(500, 300);
    plan.add(std::move(hung), "swim hang");
    plan.add(smallSpec("turb3d"), "turb3d");

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    std::vector<RunResult> results = runCampaign(plan, {}, 1);
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.timeouts, 1u);
    EXPECT_EQ(t.workerSpawns, 2u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_EQ(results[1].failKind, FailKind::Timeout);
    EXPECT_FALSE(results[2].failed);
    EXPECT_GE(secs, 0.3);
    EXPECT_LT(secs, 10.0);
    EXPECT_TRUE(noChildrenLeft());
}

TEST(PersistentWorker, IdleDeathIsRespawnedWithoutChargingTheCell)
{
    SupervisionScope scope;
    // A write to a dead worker must come back as EPIPE, not kill us.
    auto old_pipe = std::signal(SIGPIPE, SIG_DFL);
    CellTable cells;
    cells.add(smallSpec("gcc"));
    cells.add(smallSpec("swim"));

    SupervisedWorker w(cells.body());
    ASSERT_FALSE(cells.run(w, 0).result.failed);
    const pid_t idle = w.pid();
    ASSERT_GT(idle, 0);
    ::kill(idle, SIGKILL);
    awaitDeathUnreaped(idle);

    SupervisedOutcome so = cells.run(w, 1);
    EXPECT_EQ(so.attempts, 1u);
    EXPECT_EQ(so.crashes, 0u);
    EXPECT_EQ(so.spawns, 1u);
    EXPECT_NE(w.pid(), idle);
    expectSameResult(so.result, runOnce(cells.specs[1]));
    w.stop();
    EXPECT_TRUE(noChildrenLeft());
    std::signal(SIGPIPE, old_pipe);
}

TEST(PersistentWorker, ReusedWorkerTagsWarningsWithTheCellItRuns)
{
    SupervisionScope scope;
    store::resetProcessStore();
    setIsolation(true);

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "first");
    RunSpec wedged = smallSpec("gcc");
    wedged.overrides = wedgeConfig();
    plan.add(std::move(wedged), "second");

    const bool was_quiet = detail::quiet();
    detail::setQuiet(false);
    ::testing::internal::CaptureStderr();
    std::vector<RunResult> results = runCampaign(plan, {}, 1);
    const std::string log = ::testing::internal::GetCapturedStderr();
    detail::setQuiet(was_quiet);

    EXPECT_EQ(lastCampaignTelemetry().workerSpawns, 1u);
    EXPECT_EQ(results[1].failKind, FailKind::Sim);
    // The retry warning comes from the worker forked for cell 0.
    EXPECT_NE(log.find("warn: [cell 1: second] run \"gcc\" attempt 1/1"),
              std::string::npos)
        << log;
    EXPECT_EQ(log.find("[cell 0: first] run"), std::string::npos) << log;
}

TEST(PersistentWorker, WorkerHoldsOnlyItsChannelAndStdio)
{
    SupervisionScope scope;
    CellTable cells;
    cells.add(smallSpec("gcc"));

    // Descriptors a worker must not inherit: an unrelated pipe, and a
    // sibling worker's channel end.
    int extra[2];
    ASSERT_EQ(::pipe(extra), 0);
    SupervisedWorker sibling(cells.body());
    ASSERT_FALSE(cells.run(sibling, 0).result.failed);
    SupervisedWorker w(cells.body());
    ASSERT_FALSE(cells.run(w, 0).result.failed);

    for (const SupervisedWorker *worker : {&sibling, &w}) {
        const fs::path fds =
            fs::path("/proc") / std::to_string(worker->pid()) / "fd";
        std::vector<int> open;
        for (const fs::directory_entry &e : fs::directory_iterator(fds))
            open.push_back(std::stoi(e.path().filename().string()));
        std::sort(open.begin(), open.end());
        SCOPED_TRACE("worker " + std::to_string(worker->pid()));
        ASSERT_FALSE(open.empty());
        EXPECT_EQ(open.back(), 3) << "an inherited descriptor stayed open";
        for (int fd : open)
            EXPECT_LE(fd, 3);
        EXPECT_EQ(fs::read_symlink(fds / "3").string().rfind("socket:", 0),
                  0u);
    }
    ::close(extra[0]);
    ::close(extra[1]);
}

TEST(PersistentWorker, CampaignReapsEveryWorkerBeforeReturning)
{
    SupervisionScope scope;
    store::resetProcessStore();
    setIsolation(true);
    CampaignPlan plan;
    for (std::uint64_t i = 0; i < 4; ++i)
        plan.add(smallSpec("gcc", 4000 + i), "cell " + std::to_string(i));
    runCampaign(plan, {}, 2);
    EXPECT_GE(lastCampaignTelemetry().workerSpawns, 1u);
    EXPECT_TRUE(noChildrenLeft());
}

TEST(PersistentWorker, SigintDrainReapsEveryWorker)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_sigint_reap");

    // One quick cell, then two that hang far past the test: the drain
    // must kill and reap the two workers stuck in them.
    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    for (const char *w : {"swim", "turb3d"}) {
        RunSpec hung = smallSpec(w);
        hung.overrides = hangConfig(500, 60000);
        plan.add(std::move(hung), std::string(w) + " hang");
    }

    std::fflush(nullptr);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // The flush hook runs after the drain, just before the
        // 128+signal exit: by then no worker may be left.
        setCampaignInterruptFlush([] { ::_exit(noChildrenLeft() ? 42 : 43); });
        setIsolation(true);
        store::setJournalPath(dir.string());
        runCampaign(plan, {}, 2);
        ::_exit(0);
    }

    bool saw_entry = false;
    for (int spin = 0; spin < 3000 && !saw_entry; ++spin) {
        for (const auto &j : store::scanJournals(dir.string()))
            saw_entry = saw_entry || j.entries > 0;
        if (!saw_entry)
            ::usleep(10000);
    }
    ASSERT_TRUE(saw_entry);
    ::kill(pid, SIGINT);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 42) << "a worker outlived the drain";
}

TEST(SupervisorFlags, DeadlineEnvironmentIsParsedStrictly)
{
    // Strict, like --deadline-ms: "10s" must not quietly mean 10 ms,
    // nor "abc" no deadline at all. Each is fatal, naming the variable
    // (a bench binary turns that into exit status 2; see
    // Knobs.BenchHandlerExitsTwoNamingTheVariable).
    for (const char *bad : {"10s", "abc", "-5", " 7", "0x10",
                            "99999999999999999999999"}) {
        SCOPED_TRACE(bad);
        std::string msg;
        try {
            knobs::parse({std::string("LOOPSIM_DEADLINE_MS=") + bad});
        } catch (const FatalError &e) {
            msg = e.what();
        }
        EXPECT_NE(msg.find("LOOPSIM_DEADLINE_MS"), std::string::npos);
    }
    EXPECT_EQ(knobs::parse({"LOOPSIM_DEADLINE_MS=250"}).deadlineMs, 250u);

    // deadlineMs() falls back to the parsed environment. The statement
    // runs in a freshly executed copy of this binary, whose
    // environment has not been parsed yet.
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::setenv("LOOPSIM_DEADLINE_MS", "250", 1);
    EXPECT_EXIT(std::exit(deadlineMs() == 250 ? 7 : 1),
                ::testing::ExitedWithCode(7), "");
    ::unsetenv("LOOPSIM_DEADLINE_MS");
    ::testing::FLAGS_gtest_death_test_style = style;
}
