/**
 * @file
 * Tests for the debug-trace flags and the pipeline timeline recorder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "base/debug.hh"
#include "base/knobs.hh"
#include "core/dyn_inst.hh"
#include "core/timeline.hh"
#include "core_test_util.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::testutil;

namespace
{

/** RAII guard: restores a clean flag state after each test. */
struct FlagGuard
{
    ~FlagGuard() { debug::clearFlags(); }
};

} // anonymous namespace

TEST(DebugFlags, SetAndTest)
{
    FlagGuard guard;
    debug::clearFlags();
    EXPECT_FALSE(debug::anyEnabled());
    debug::setFlags("Issue,Squash");
    EXPECT_TRUE(debug::enabled(debug::Flag::Issue));
    EXPECT_TRUE(debug::enabled(debug::Flag::Squash));
    EXPECT_FALSE(debug::enabled(debug::Flag::Fetch));
    EXPECT_TRUE(debug::anyEnabled());
}

TEST(DebugFlags, AllAndCaseInsensitive)
{
    FlagGuard guard;
    debug::clearFlags();
    debug::setFlags("all");
    for (unsigned f = 0;
         f < static_cast<unsigned>(debug::Flag::NumFlags); ++f) {
        EXPECT_TRUE(debug::enabled(static_cast<debug::Flag>(f)));
    }
    debug::clearFlags();
    debug::setFlags("iSsUe");
    EXPECT_TRUE(debug::enabled(debug::Flag::Issue));
}

TEST(DebugFlags, UnknownFlagFatal)
{
    FlagGuard guard;
    EXPECT_THROW(debug::setFlags("Bogus"), FatalError);
}

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

} // anonymous namespace

TEST(DebugFlags, EnvTraceTargetReadsTheVariable)
{
    // The values InstPool/PhysRegFile take at construction, as the
    // knob registry parses them.
    EXPECT_EQ(knobs::parse({}).tracePool, -1);
    EXPECT_EQ(knobs::parse({}).traceReg, -1);
    EXPECT_EQ(knobs::parse({"LOOPSIM_TRACE_POOL=17"}).tracePool, 17);
    EXPECT_EQ(knobs::parse({"LOOPSIM_TRACE_REG=17"}).traceReg, 17);
}

TEST(DebugFlags, EnvTraceTargetRejectsJunk)
{
    // Each is fatal, naming the variable: a typo must not trace some
    // other slot without a word.
    for (const char *var : {"LOOPSIM_TRACE_POOL", "LOOPSIM_TRACE_REG"}) {
        for (const char *bad : {"", "abc", "-1", "-0x3", "3x", " 3", "3 ",
                                "+3", "1e2", "99999999999"}) {
            const std::string msg = fatalMessage([&] {
                knobs::parse({std::string(var) + "=" + bad});
            });
            EXPECT_NE(msg.find(var), std::string::npos)
                << var << " value '" << bad << "' was accepted";
        }
    }
    EXPECT_EQ(knobs::parse({"LOOPSIM_TRACE_POOL=0"}).tracePool, 0);
}

TEST(DebugFlags, BadPoolTraceTargetFailsConstruction)
{
    // InstPool takes LOOPSIM_TRACE_POOL at construction: a bad value
    // fails there, before any simulation runs. The statement runs in
    // a freshly executed copy of this binary, whose environment has
    // not been parsed yet.
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::setenv("LOOPSIM_TRACE_POOL", "abc", 1); // NOLINT(concurrency-mt-unsafe)
    EXPECT_EXIT(
        {
            const std::string msg = fatalMessage([] { InstPool pool(4); });
            std::exit(msg.find("LOOPSIM_TRACE_POOL") != std::string::npos
                          ? 7
                          : 1);
        },
        ::testing::ExitedWithCode(7), "");
    ::unsetenv("LOOPSIM_TRACE_POOL"); // NOLINT(concurrency-mt-unsafe)
    ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(DebugFlags, PoolAndRegFlagsNameTheirVariable)
{
    // Pool/Reg only label lines; a flag list cannot switch them, so
    // naming one fails like an unknown flag and says what does.
    FlagGuard guard;
    debug::clearFlags();
    EXPECT_NE(fatalMessage([] { debug::setFlags("Issue,Pool"); })
                  .find("LOOPSIM_TRACE_POOL"),
              std::string::npos);
    EXPECT_NE(fatalMessage([] { debug::setFlags("reg"); })
                  .find("LOOPSIM_TRACE_REG"),
              std::string::npos);
    debug::clearFlags();
    debug::setFlags("All");
    EXPECT_TRUE(debug::enabled(debug::Flag::Issue));
}

TEST(DebugFlags, NamesAreDistinct)
{
    std::set<std::string> names;
    for (unsigned f = 0;
         f < static_cast<unsigned>(debug::Flag::NumFlags); ++f) {
        names.insert(debug::flagName(static_cast<debug::Flag>(f)));
    }
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(debug::Flag::NumFlags));
}

TEST(Timeline, RecordsRetiredInstructions)
{
    Config cfg;
    cfg.setUint("core.timeline", 16);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 40; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i % 20)));
    auto h = makeHarness(ops, cfg);
    h.run();
    ASSERT_NE(h.core->timeline(), nullptr);
    const auto &entries = h.core->timeline()->entries();
    // Ring keeps only the newest 16.
    EXPECT_EQ(entries.size(), 16u);
    EXPECT_EQ(entries.back().seq, 39u);
    // Stage ordering invariants on every record.
    for (const auto &e : entries) {
        EXPECT_LE(e.fetch, e.rename);
        EXPECT_LE(e.rename, e.insert);
        EXPECT_LT(e.insert, e.firstIssue);
        EXPECT_LE(e.firstIssue, e.lastIssue);
        EXPECT_LT(e.lastIssue, e.execStart);
        EXPECT_LE(e.execStart, e.produce);
        EXPECT_LE(e.produce, e.retire);
        EXPECT_GE(e.timesIssued, 1u);
    }
}

TEST(Timeline, OffByDefault)
{
    auto h = makeHarness({alu(1)});
    h.run();
    EXPECT_EQ(h.core->timeline(), nullptr);
}

TEST(Timeline, ReissueShowsInTheRecord)
{
    Config cfg;
    cfg.setUint("core.timeline", 32);
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x5000000));
    ops.push_back(alu(1, 1));
    for (int i = 0; i < 12; ++i)
        ops.push_back(alu(1, 1));
    ops.push_back(load(2, 1, 0x5000000 + 256)); // L1 miss
    ops.push_back(alu(3, 2)); // killed + reissued consumer
    auto h = makeHarness(ops, cfg);
    h.run();
    bool saw_reissue = false;
    for (const auto &e : h.core->timeline()->entries()) {
        if (e.timesIssued > 1) {
            saw_reissue = true;
            EXPECT_GT(e.lastIssue, e.firstIssue);
        }
    }
    EXPECT_TRUE(saw_reissue);
}

TEST(Timeline, PrintFormats)
{
    Config cfg;
    cfg.setUint("core.timeline", 8);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 10; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i)));
    auto h = makeHarness(ops, cfg);
    h.run();

    std::ostringstream gantt;
    h.core->timeline()->print(gantt);
    EXPECT_NE(gantt.str().find("cycles"), std::string::npos);
    EXPECT_NE(gantt.str().find('f'), std::string::npos);
    EXPECT_NE(gantt.str().find('c'), std::string::npos);

    std::ostringstream table;
    h.core->timeline()->printTable(table);
    EXPECT_NE(table.str().find("fetch"), std::string::npos);
    EXPECT_NE(table.str().find("IntAlu"), std::string::npos);
}

TEST(Timeline, EmptyPrintIsSafe)
{
    TimelineRecorder rec(4);
    std::ostringstream os;
    rec.print(os);
    EXPECT_NE(os.str().find("empty"), std::string::npos);
    EXPECT_THROW(TimelineRecorder(0), FatalError);
}

TEST(Timeline, EmptyPrintTableIsHeaderOnly)
{
    TimelineRecorder rec(4);
    std::ostringstream os;
    rec.printTable(os);
    const std::string table = os.str();
    // Header row only: no entry lines follow it.
    EXPECT_NE(table.find("seq"), std::string::npos);
    EXPECT_NE(table.find("fetch"), std::string::npos);
    EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 1);
}

TEST(Timeline, RingNeverExceedsCapacityWhileRecording)
{
    TimelineRecorder rec(5);
    EXPECT_EQ(rec.capacity(), 5u);
    DynInst inst;
    for (std::uint64_t i = 0; i < 12; ++i) {
        inst.op.seq = i;
        inst.fetchCycle = i;
        rec.record(inst, i + 10);
        EXPECT_LE(rec.entries().size(), 5u);
        EXPECT_EQ(rec.entries().back().seq, i);
    }
    // The survivors are exactly the newest five, oldest first.
    ASSERT_EQ(rec.entries().size(), 5u);
    EXPECT_EQ(rec.entries().front().seq, 7u);
}

TEST(Timeline, ReissueMarkRendersInTheGantt)
{
    Config cfg;
    cfg.setUint("core.timeline", 32);
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x5000000));
    for (int i = 0; i < 12; ++i)
        ops.push_back(alu(1, 1));
    ops.push_back(load(2, 1, 0x5000000 + 256)); // L1 miss
    ops.push_back(alu(3, 2)); // killed + reissued consumer
    auto h = makeHarness(ops, cfg);
    h.run();

    std::ostringstream os;
    h.core->timeline()->print(os);
    // The reissued consumer's last issue renders as 'I' (first issue
    // stays lowercase 'i').
    EXPECT_NE(os.str().find('I'), std::string::npos);
    EXPECT_NE(os.str().find('i'), std::string::npos);
}
