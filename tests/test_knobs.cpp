/**
 * @file
 * Tests for the LOOPSIM_* knob registry (base/knobs.hh): the grammar
 * of each kind, the switch-off values that used to read as "on", the
 * fatal path of a malformed value (exit status 2 from a bench binary's
 * top-level handler), parse-before-the-workers, and the one warning
 * per unknown name.
 *
 * The process environment is parsed once per process, so every test
 * that sets a variable checks its effect inside a threadsafe death
 * test: a freshly executed copy of this binary that inherits the
 * variable and has parsed nothing yet.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "../bench/bench_util.hh"
#include "base/knobs.hh"
#include "base/logging.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "integrity/watchdog.hh"
#include "sim/simulator.hh"

using namespace loopsim;

namespace
{

/** The message of the FatalError @p f throws ("" if it returns). */
template <typename F>
std::string
fatalMessage(F &&f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** Sets one environment variable and the threadsafe death-test style
 *  for the scope of a test; restores both. Tests run single-threaded
 *  here, so touching the environment is safe. */
class EnvScope
{
  public:
    EnvScope(const char *name, const char *value)
        : var(name), style(::testing::FLAGS_gtest_death_test_style)
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        ::setenv(var, value, 1); // NOLINT(concurrency-mt-unsafe)
    }
    ~EnvScope()
    {
        ::unsetenv(var); // NOLINT(concurrency-mt-unsafe)
        ::testing::FLAGS_gtest_death_test_style = style;
    }
    EnvScope(const EnvScope &) = delete;
    EnvScope &operator=(const EnvScope &) = delete;

  private:
    const char *var;
    std::string style;
};

/** A bench binary's body up to its first knob read. */
int
benchBody(int argc, char **argv)
{
    return benchutil::benchOps(argc, argv) > 0 ? 0 : 1;
}

/** Exit status of benchBody run through the bench top-level handler. */
int
benchExit()
{
    char name[] = "bench";
    char *argv[] = {name, nullptr};
    return benchutil::guardedMain(benchBody, 1, argv);
}

/** One tiny cell: no warmup, a few hundred ops. */
CampaignPlan
oneCellPlan()
{
    RunSpec spec;
    spec.workload = resolveWorkload("gcc");
    spec.totalOps = 400;
    spec.warmupOps = 0;
    CampaignPlan plan;
    plan.add(std::move(spec), "gcc");
    return plan;
}

} // anonymous namespace

TEST(Knobs, BoolAcceptsExactlyZeroOrOne)
{
    EXPECT_TRUE(knobs::parse({"LOOPSIM_ISOLATE=1"}).isolate);
    EXPECT_FALSE(knobs::parse({"LOOPSIM_ISOLATE=0"}).isolate);
    // Unset or empty: the built-in default.
    EXPECT_FALSE(knobs::parse({"LOOPSIM_ISOLATE="}).isolate);
    EXPECT_FALSE(knobs::parse({"LOOPSIM_PROFILE=0"}).profile);
    EXPECT_FALSE(knobs::parse({"LOOPSIM_CHECK=0"}).check);
    EXPECT_FALSE(knobs::parse({"LOOPSIM_DEBUG_MISS=0"}).debugMiss);
    EXPECT_FALSE(knobs::parse({"LOOPSIM_DENSE_KERNEL=0"}).denseKernel);
    EXPECT_TRUE(knobs::parse({"LOOPSIM_DENSE_KERNEL=1"}).denseKernel);
    EXPECT_FALSE(knobs::parse({"LOOPSIM_AUDIT=0"}).audit);
    for (const char *bad : {"yes", "true", "on", "2", " 1", "1 ", "01"}) {
        const std::string msg = fatalMessage(
            [&] { knobs::parse({std::string("LOOPSIM_ISOLATE=") + bad}); });
        EXPECT_NE(msg.find("LOOPSIM_ISOLATE"), std::string::npos) << bad;
        EXPECT_NE(msg.find(bad), std::string::npos) << msg;
        EXPECT_NE(msg.find("0 or 1"), std::string::npos) << msg;
    }
}

TEST(Knobs, NumbersJobsAndPathsFollowTheirGrammar)
{
    EXPECT_EQ(knobs::parse({"LOOPSIM_BENCH_OPS=3000"}).benchOps, 3000u);
    EXPECT_EQ(knobs::parse({"LOOPSIM_JOBS=4"}).jobs, 4u);
    EXPECT_EQ(knobs::parse({"LOOPSIM_JOBS=auto"}).jobs, hostCpus());
    EXPECT_EQ(knobs::parse({"LOOPSIM_JOBS=5000"}).jobs, 1024u);
    EXPECT_EQ(knobs::parse({"LOOPSIM_STORE=/tmp/s"}).store, "/tmp/s");
    EXPECT_EQ(knobs::parse({"LOOPSIM_JOURNAL="}).journal, "");
    const knobs::Settings overlay =
        knobs::parse({"LOOPSIM_OVERLAY=core.iq_ex=7, dra.enable=true"});
    EXPECT_EQ(overlay.overlay.getUint("core.iq_ex", 0), 7u);
    EXPECT_TRUE(overlay.overlay.getBool("dra.enable", false));
    EXPECT_NE(knobs::parse({"LOOPSIM_DEBUG=Issue"}).debugFlags, 0u);
    // Names outside the LOOPSIM_ prefix are not ours to judge.
    EXPECT_EQ(knobs::parse({"PATH=/bin", "LOOPSIMX=1"}).jobs, 0u);

    const std::vector<std::string> bad = {
        "LOOPSIM_BENCH_OPS=0",        "LOOPSIM_BENCH_OPS=",
        "LOOPSIM_BENCH_OPS=1e3",      "LOOPSIM_JOBS=bogus",
        "LOOPSIM_JOBS=",              "LOOPSIM_JOBS=-5",
        "LOOPSIM_JOBS= 4",            "LOOPSIM_JOBS=4x",
        "LOOPSIM_DEADLINE_MS=10s",    "LOOPSIM_OVERLAY=core.iq_ex",
        "LOOPSIM_OVERLAY==7",         "LOOPSIM_DEBUG=Bogus",
        "LOOPSIM_DEBUG=Issue,Pool"};
    for (const std::string &assignment : bad) {
        const std::string name = assignment.substr(0, assignment.find('='));
        const std::string msg =
            fatalMessage([&] { knobs::parse({assignment}); });
        EXPECT_NE(msg.find(name), std::string::npos)
            << assignment << " was accepted: " << msg;
    }
}

TEST(Knobs, UnknownNamesAreReportedNotFatal)
{
    std::vector<std::string> unknown;
    const knobs::Settings s = knobs::parse(
        {"LOOPSIM_JOSB=4", "LOOPSIM_SERVER=localhost:1", "LOOPSIM_JOBS=2"},
        &unknown);
    EXPECT_EQ(s.jobs, 2u);
    EXPECT_EQ(unknown,
              (std::vector<std::string>{"LOOPSIM_JOSB", "LOOPSIM_SERVER"}));
}

TEST(Knobs, DenseKernelZeroSelectsSparse)
{
    EnvScope env("LOOPSIM_DENSE_KERNEL", "0");
    EXPECT_EXIT(std::exit(defaultKernelMode() == KernelMode::Sparse ? 7 : 1),
                ::testing::ExitedWithCode(7), "");
}

TEST(Knobs, ProfileZeroRecordsNoTickProfile)
{
    EnvScope env("LOOPSIM_PROFILE", "0");
    EXPECT_EXIT(
        {
            runCampaign(oneCellPlan(), {}, 1);
            const bool off = !tickProfilingActive() &&
                             lastCampaignTelemetry().tickProfile.empty();
            std::exit(off ? 7 : 1);
        },
        ::testing::ExitedWithCode(7), "");
}

TEST(Knobs, CheckZeroLeavesStructuralChecksOff)
{
    EnvScope env("LOOPSIM_CHECK", "0");
    EXPECT_EXIT(
        std::exit(WatchdogConfig::fromConfig(Config{}).structuralChecks ? 1
                                                                        : 7),
        ::testing::ExitedWithCode(7), "");
}

TEST(Knobs, BenchHandlerExitsTwoNamingTheVariable)
{
    // Each was silently ignored, or (a bad deadline) an exit from deep
    // inside the library, or (a bad trace target) an abort.
    const std::vector<std::pair<const char *, const char *>> cases = {
        {"LOOPSIM_ISOLATE", "yes"},     {"LOOPSIM_JOBS", "bogus"},
        {"LOOPSIM_BENCH_OPS", "0"},     {"LOOPSIM_DEADLINE_MS", "10s"},
        {"LOOPSIM_TRACE_POOL", "abc"},  {"LOOPSIM_DENSE_KERNEL", "yes"}};
    for (const auto &[name, value] : cases) {
        SCOPED_TRACE(name);
        EnvScope env(name, value);
        EXPECT_EXIT(std::exit(benchExit()), ::testing::ExitedWithCode(2),
                    std::string("error: .*") + name);
    }
}

TEST(Knobs, MalformedKnobFailsTheCampaignCallNotItsCells)
{
    // LOOPSIM_CHECK is first needed inside a worker (per cell); the
    // campaign parses the environment on its calling thread first, so
    // the caller gets the FatalError instead of a figure of fail cells.
    EnvScope env("LOOPSIM_CHECK", "maybe");
    EXPECT_EXIT(
        {
            const std::string msg =
                fatalMessage([] { runCampaign(oneCellPlan(), {}, 2); });
            std::exit(msg.find("LOOPSIM_CHECK") != std::string::npos ? 7
                                                                     : 1);
        },
        ::testing::ExitedWithCode(7), "");
}

TEST(Knobs, UnknownNameWarnsExactlyOnce)
{
    EnvScope env("LOOPSIM_JOSB", "4");
    EXPECT_EXIT(
        {
            // The suite runs quiet (test_quiet_env.cpp); warn() must speak.
            detail::setQuiet(false);
            ::testing::internal::CaptureStderr();
            knobs::env();
            knobs::env();
            isolationActive();
            const std::string err =
                ::testing::internal::GetCapturedStderr();
            const std::size_t first = err.find("LOOPSIM_JOSB");
            const bool once =
                first != std::string::npos &&
                err.find("LOOPSIM_JOSB", first + 1) == std::string::npos;
            std::exit(once ? 7 : 1);
        },
        ::testing::ExitedWithCode(7), "");
}
