/**
 * @file
 * Tests for the load/store reorder trap loop: the MemDepPredictor wait
 * table and the end-to-end trap/retrain behaviour (paper Figure 2,
 * "memory trap loop"), plus the §5.5 CRC timeout alternative.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "base/debug.hh"
#include "core/mem_dep.hh"
#include "core_test_util.hh"
#include "dra/crc.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::testutil;

TEST(MemDepPredictor, TrainsAndWaits)
{
    MemDepPredictor pred(256, 0);
    EXPECT_FALSE(pred.shouldWait(0x100, 10));
    pred.trainTrap(0x100);
    EXPECT_TRUE(pred.shouldWait(0x100, 11));
    EXPECT_FALSE(pred.shouldWait(0x104, 11)); // different pc
    EXPECT_EQ(pred.traps(), 1u);
    EXPECT_GE(pred.waits(), 1u);
}

TEST(MemDepPredictor, PeriodicClearForgets)
{
    MemDepPredictor pred(256, 100);
    pred.trainTrap(0x100);
    EXPECT_TRUE(pred.shouldWait(0x100, 50));
    EXPECT_FALSE(pred.shouldWait(0x100, 150)); // cleared
}

TEST(MemDepPredictor, NoClearWhenDisabled)
{
    MemDepPredictor pred(256, 0);
    pred.trainTrap(0x100);
    EXPECT_TRUE(pred.shouldWait(0x100, 1u << 30));
}

TEST(MemDepPredictor, ResetAndErrors)
{
    MemDepPredictor pred(256, 0);
    pred.trainTrap(0x100);
    pred.reset();
    EXPECT_FALSE(pred.shouldWait(0x100, 1));
    EXPECT_EQ(pred.traps(), 0u);
    EXPECT_THROW(MemDepPredictor(100, 0), FatalError);
    EXPECT_THROW(MemDepPredictor(0, 0), FatalError);
}

namespace
{

/**
 * A kernel where a load overtakes an older store to the same address:
 * the store's data is delayed behind a chain while the load's address
 * is ready immediately, so the load reads first.
 */
std::vector<MicroOp>
reorderKernel(Addr addr)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1)); // address base, ready early
    // Warm the TLB page and line.
    ops.push_back(storeOp(1, 1, addr));
    // Long chain producing the store data.
    ops.push_back(alu(2));
    for (int i = 0; i < 20; ++i)
        ops.push_back(alu(2, 2));
    // The conflicting store: waits for r2 (the chain).
    ops.push_back(storeOp(1, 2, addr));
    // The load: address ready immediately; executes before the store.
    ops.push_back(load(3, 1, addr));
    ops.push_back(alu(4, 3));
    return ops;
}

} // anonymous namespace

TEST(MemoryOrdering, ReorderTrapSquashesAndRetires)
{
    auto ops = reorderKernel(0x6000000);
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_GE(h.stat("memOrderTraps"), 1.0);
    EXPECT_GT(h.stat("squashed"), 0.0);
}

TEST(MemoryOrdering, DisabledModeNeverTraps)
{
    Config cfg;
    cfg.setBool("core.memdep.enable", false);
    auto ops = reorderKernel(0x6000000);
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_EQ(h.stat("memOrderTraps"), 0.0);
}

TEST(MemoryOrdering, WaitTableSuppressesRepeatTraps)
{
    // The same conflicting load PC recurs; after the first trap the
    // wait table holds the load until the store has executed, so the
    // trap count stays far below the recurrence count.
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x6000000));
    for (int rep = 0; rep < 20; ++rep) {
        ops.push_back(alu(2));
        for (int i = 0; i < 12; ++i)
            ops.push_back(alu(2, 2));
        MicroOp st = storeOp(1, 2, 0x6000000);
        st.pc = 0x9000; // stable static sites
        ops.push_back(st);
        MicroOp ld = load(3, 1, 0x6000000);
        ld.pc = 0x9004;
        ops.push_back(ld);
        ops.push_back(alu(4, 3));
    }
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_GE(h.stat("memOrderTraps"), 1.0);
    EXPECT_LE(h.stat("memOrderTraps"), 6.0); // suppressed after training
}

TEST(MemoryOrdering, DifferentDwordsDoNotConflict)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x6000000));
    ops.push_back(alu(2));
    for (int i = 0; i < 20; ++i)
        ops.push_back(alu(2, 2));
    ops.push_back(storeOp(1, 2, 0x6000000));
    ops.push_back(load(3, 1, 0x6000008)); // adjacent dword
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.stat("memOrderTraps"), 0.0);
}

TEST(MemoryOrdering, TrapsAreRareOnProfiles)
{
    // Statistical sanity: reorder traps exist but stay a small
    // fraction of loads under the wait-table predictor.
    Config cfg;
    SyntheticTraceGenerator gen(spec95Profile("swim"), 0, 30000);
    std::vector<TraceSource *> srcs{&gen};
    Core core(cfg, srcs);
    Simulator sim;
    sim.add(&core);
    sim.run(5000000);
    ASSERT_FALSE(sim.hitCycleLimit());
    double traps = core.statGroup().lookupValue("core.memOrderTraps");
    EXPECT_LT(traps, 300.0); // < 1% of ~10k loads
}

TEST(CrcTimeout, EntriesExpire)
{
    ClusterRegisterCache crc(4, CrcRepl::Fifo, 50);
    crc.insert(7, 100);
    EXPECT_TRUE(crc.lookup(7, 120));
    EXPECT_FALSE(crc.lookup(7, 151)); // timed out
    EXPECT_EQ(crc.timeouts(), 1u);
    // The expired entry is gone for good.
    EXPECT_FALSE(crc.lookup(7, 120));
}

TEST(CrcTimeout, ReinsertRefreshesAge)
{
    ClusterRegisterCache crc(4, CrcRepl::Fifo, 50);
    crc.insert(7, 100);
    crc.insert(7, 140); // refresh
    EXPECT_TRUE(crc.lookup(7, 170));
    EXPECT_EQ(crc.timeouts(), 0u);
}

TEST(CrcTimeout, ZeroTimeoutNeverExpires)
{
    ClusterRegisterCache crc(4, CrcRepl::Fifo, 0);
    crc.insert(7, 1);
    EXPECT_TRUE(crc.lookup(7, 1u << 30));
}

TEST(CrcTimeout, EndToEndConfig)
{
    Config cfg;
    cfg.setBool("dra.enable", true);
    cfg.setUint("dra.crc.timeout", 64);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 300; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i % 40),
                          static_cast<ArchReg>((i + 7) % 40)));
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 300u);
}

namespace
{

/** Wrong-path fetch yields loads of one address: conflicting accesses
 *  that perform and are then squashed by the branch redirect. */
class WrongPathLoadSource : public ProgrammedTraceSource
{
  public:
    WrongPathLoadSource(std::vector<MicroOp> program_ops, Addr addr)
        : ProgrammedTraceSource(std::move(program_ops)), wpAddr(addr)
    {}

    void
    nextWrongPath(MicroOp &op, SeqNum resume_seq) override
    {
        op = load(9, 1, wpAddr);
        op.wrongPath = true;
        op.seq = resume_seq;
        op.pc = 0x8000;
    }

  private:
    Addr wpAddr;
};

/**
 * Cycles of the @p flag trace lines in @p log whose op has pc
 * @p pc (wrong-path ops only when @p wrong_path), skipping
 * executions with poisoned operands.
 */
std::vector<Cycle>
traceCycles(const std::string &log, const std::string &flag,
            const std::string &pc, bool wrong_path = false)
{
    std::vector<Cycle> cycles;
    std::istringstream in(log);
    const std::string tag = ": " + flag + ": ";
    for (std::string line; std::getline(in, line);) {
        if (line.find(tag) == std::string::npos ||
            line.find(" pc=" + pc + " ") == std::string::npos ||
            (line.find(" WP]") != std::string::npos) != wrong_path ||
            line.find("poisoned") != std::string::npos) {
            continue;
        }
        cycles.push_back(std::stoull(line));
    }
    return cycles;
}

} // anonymous namespace

TEST(MemoryOrdering, TrapHitsOldestStillPerformedLoad)
{
    // Several loads younger than a late store, all to its dword:
    //  - wrong-path loads (pc 0x8000) perform, then the mispredicted
    //    branch squashes them;
    //  - load A (pc 0x9010) performs in the shadow of a missing load,
    //    is killed with the shadow and performs again;
    //  - load K (pc 0x9020) waits on a chain longer than the store's,
    //    so it has not performed when the store executes;
    //  - load C (pc 0x9030) performs once.
    // The trap must pick A, the oldest younger load still performed.
    const Addr x = 0x6000000;
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, x)); // warm the page and the line
    ops.push_back(alu(2));
    for (int i = 0; i < 40; ++i)
        ops.push_back(alu(2, 2));
    ops.push_back(alu(6, 2));
    for (int i = 0; i < 16; ++i)
        ops.push_back(alu(6, 6));
    MicroOp st = storeOp(1, 2, x);
    st.pc = 0x9000;
    ops.push_back(st);
    ops.push_back(branch(1, true, /*mispredict=*/true));
    ops.push_back(load(5, 1, x + 256)); // same page, cold line
    ops.push_back(alu(10, 1));
    MicroOp a = load(3, 10, x);
    a.pc = 0x9010;
    ops.push_back(a);
    MicroOp k = load(4, 6, x + 4);
    k.pc = 0x9020;
    ops.push_back(k);
    MicroOp c = load(7, 1, x);
    c.pc = 0x9030;
    ops.push_back(c);
    ops.push_back(alu(11, 3));

    Config cfg;
    cfg.setBool("core.wrong_path", true);
    cfg.setBool("core.kill_all_in_shadow", true);
    CoreHarness h;
    h.sources.push_back(std::make_unique<WrongPathLoadSource>(ops, x));
    std::vector<TraceSource *> srcs{h.sources[0].get()};
    h.core = std::make_unique<Core>(cfg, srcs);
    debug::setFlags("Mem,Exec");
    testing::internal::CaptureStderr();
    h.run();
    const std::string log = testing::internal::GetCapturedStderr();
    debug::clearFlags();

    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_GT(h.stat("wrongPathFetched"), 0.0);
    EXPECT_GE(h.stat("loadMissEvents"), 1.0);
    EXPECT_GE(h.stat("loadKilledOps"), 1.0);
    EXPECT_EQ(h.stat("memOrderTraps"), 1.0);

    // Each case must really occur: timing drift that loses one fails
    // here rather than passing on the simpler cases alone.
    const auto store_exec = traceCycles(log, "Exec", "0x9000");
    ASSERT_FALSE(store_exec.empty());
    const Cycle st_at = store_exec.front();
    const auto wp = traceCycles(log, "Mem", "0x8000", true);
    EXPECT_TRUE(std::any_of(wp.begin(), wp.end(),
                            [&](Cycle at) { return at < st_at; }))
        << "no wrong-path load performed before the store";
    const auto a_mem = traceCycles(log, "Mem", "0x9010");
    EXPECT_GE(std::count_if(a_mem.begin(), a_mem.end(),
                            [&](Cycle at) { return at < st_at; }),
              2)
        << "load A did not perform, get killed and perform again";
    const auto k_mem = traceCycles(log, "Mem", "0x9020");
    ASSERT_FALSE(k_mem.empty());
    EXPECT_GT(k_mem.front(), st_at)
        << "load K performed before the store";
    const MemDepPredictor *pred = h.core->memDepPredictor();
    ASSERT_NE(pred, nullptr);
    EXPECT_TRUE(pred->wouldWait(0x9010));
    EXPECT_FALSE(pred->wouldWait(0x8000));
    EXPECT_FALSE(pred->wouldWait(0x9020));
    EXPECT_FALSE(pred->wouldWait(0x9030));
}
