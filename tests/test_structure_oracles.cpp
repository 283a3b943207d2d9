/**
 * @file
 * Differential oracles for the indexed per-op structures: the hashed
 * TLB and the reg-indexed cluster register cache are driven side by
 * side with the linear-search implementations they replaced, through
 * long randomised sequences, and must agree on every return value,
 * statistic, probe and occupancy. The dense/sparse kernel differential
 * cannot catch a bug here, because both kernels share these
 * structures.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "dra/crc.hh"
#include "mem/tlb.hh"

using namespace loopsim;

namespace
{

/** The linear stamp-scanned TLB the hashed one replaced. */
class LinearTlb
{
  public:
    LinearTlb(std::size_t n, std::uint64_t page) : entries(n), pageSize(page)
    {}

    bool
    access(Addr addr, ThreadId tid)
    {
        Addr vpn = addr / pageSize;
        Entry *lru = &entries[0];
        for (auto &e : entries) {
            if (e.valid && e.vpn == vpn && e.tid == tid) {
                e.stamp = ++stamp;
                ++hitCount;
                return true;
            }
            if (!e.valid || e.stamp < lru->stamp)
                lru = &e;
        }
        ++missCount;
        lru->valid = true;
        lru->vpn = vpn;
        lru->tid = tid;
        lru->stamp = ++stamp;
        return false;
    }

    bool
    probe(Addr addr, ThreadId tid) const
    {
        Addr vpn = addr / pageSize;
        for (const auto &e : entries) {
            if (e.valid && e.vpn == vpn && e.tid == tid)
                return true;
        }
        return false;
    }

    void
    reset()
    {
        for (auto &e : entries)
            e = Entry{};
        stamp = hitCount = missCount = 0;
    }

    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const auto &e : entries)
            n += e.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        ThreadId tid = 0;
        std::uint64_t stamp = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t pageSize;
    std::uint64_t stamp = 0;
};

/** The linear-search CRC the reg-indexed one replaced. */
class LinearCrc
{
  public:
    LinearCrc(unsigned n, CrcRepl policy, Cycle age_limit)
        : repl(policy), timeout(age_limit), store(n)
    {}

    bool
    lookup(PhysReg reg, Cycle now)
    {
        Entry *e = find(reg);
        if (e && timeout > 0 && now > e->insertedAt + timeout) {
            e->valid = false;
            ++timeouts;
            e = nullptr;
        }
        if (e) {
            ++hits;
            if (repl == CrcRepl::Lru)
                e->stamp = ++stamp;
            return true;
        }
        ++misses;
        return false;
    }

    void
    insert(PhysReg reg, Cycle now)
    {
        ++insertions;
        Entry *e = find(reg);
        if (e) {
            e->stamp = ++stamp;
            e->insertedAt = now;
            return;
        }
        Entry *victim = nullptr;
        for (auto &cand : store) {
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (!victim || cand.stamp < victim->stamp)
                victim = &cand;
        }
        if (victim->valid)
            ++evictions;
        victim->valid = true;
        victim->reg = reg;
        victim->stamp = ++stamp;
        victim->insertedAt = now;
    }

    void
    invalidate(PhysReg reg)
    {
        if (Entry *e = find(reg)) {
            e->valid = false;
            ++invalidations;
        }
    }

    void
    reset()
    {
        for (auto &e : store)
            e = Entry{};
        stamp = hits = misses = insertions = evictions = invalidations =
            timeouts = 0;
    }

    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const auto &e : store)
            n += e.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t timeouts = 0;

  private:
    struct Entry
    {
        bool valid = false;
        PhysReg reg = invalidPhysReg;
        std::uint64_t stamp = 0;
        Cycle insertedAt = 0;
    };

    Entry *
    find(PhysReg reg)
    {
        for (auto &e : store) {
            if (e.valid && e.reg == reg)
                return &e;
        }
        return nullptr;
    }

    CrcRepl repl;
    Cycle timeout;
    std::vector<Entry> store;
    std::uint64_t stamp = 0;
};

void
expectSameCrc(const ClusterRegisterCache &crc, const LinearCrc &ref,
              std::size_t step)
{
    ASSERT_EQ(crc.hits(), ref.hits) << "step " << step;
    ASSERT_EQ(crc.misses(), ref.misses) << "step " << step;
    ASSERT_EQ(crc.insertions(), ref.insertions) << "step " << step;
    ASSERT_EQ(crc.evictions(), ref.evictions) << "step " << step;
    ASSERT_EQ(crc.invalidations(), ref.invalidations) << "step " << step;
    ASSERT_EQ(crc.timeouts(), ref.timeouts) << "step " << step;
    ASSERT_EQ(crc.occupancy(), ref.occupancy()) << "step " << step;
}

} // anonymous namespace

TEST(TlbOracle, MatchesLinearLruOnRandomMultiThreadStreams)
{
    const std::uint64_t page = 8192;
    for (std::size_t entries : {1u, 2u, 5u, 16u, 128u}) {
        Pcg32 rng(0x7e11 + entries);
        Tlb tlb(entries, page);
        LinearTlb ref(entries, page);
        // Pages drawn from a hot set a little larger than the TLB (LRU
        // churn) and a wide cold range (eviction of every kind).
        const std::uint64_t hot = entries + entries / 2 + 1;
        for (std::size_t step = 0; step < 60000; ++step) {
            ThreadId tid = static_cast<ThreadId>(rng.nextBounded(4));
            std::uint64_t vpn = rng.chance(0.8)
                                    ? rng.nextBounded(hot)
                                    : rng.range(0, 1u << 20);
            Addr addr = vpn * page + rng.nextBounded(page);
            if (rng.chance(0.0005)) {
                tlb.reset();
                ref.reset();
            } else if (rng.chance(0.2)) {
                ASSERT_EQ(tlb.probe(addr, tid), ref.probe(addr, tid))
                    << "entries " << entries << " step " << step;
            } else {
                ASSERT_EQ(tlb.access(addr, tid), ref.access(addr, tid))
                    << "entries " << entries << " step " << step;
            }
            ASSERT_EQ(tlb.hits(), ref.hitCount);
            ASSERT_EQ(tlb.misses(), ref.missCount);
            ASSERT_EQ(tlb.occupancy(), ref.occupancy());
        }
        // Every hot page of every thread probes the same at the end.
        for (ThreadId tid = 0; tid < 4; ++tid) {
            for (std::uint64_t vpn = 0; vpn < hot; ++vpn)
                ASSERT_EQ(tlb.probe(vpn * page, tid),
                          ref.probe(vpn * page, tid));
        }
    }
}

TEST(TlbOracle, SameVpnDifferentThreadsAreDistinctKeys)
{
    // Keys that differ only in the thread, with vpns that collide in
    // any packing of (vpn, tid) into one word, stay distinct.
    Tlb tlb(4, 8192);
    const Addr far = Addr{1} << 60;
    EXPECT_FALSE(tlb.access(0, 0));
    EXPECT_FALSE(tlb.access(0, 1));
    EXPECT_FALSE(tlb.access(far, 0));
    EXPECT_TRUE(tlb.probe(0, 0));
    EXPECT_TRUE(tlb.probe(0, 1));
    EXPECT_TRUE(tlb.probe(far, 0));
    EXPECT_FALSE(tlb.probe(far, 1));
    EXPECT_EQ(tlb.occupancy(), 3u);
}

TEST(CrcOracle, MatchesLinearCacheOnRandomStreams)
{
    const PhysReg num_regs = 96;
    for (CrcRepl repl : {CrcRepl::Fifo, CrcRepl::Lru}) {
        for (unsigned entries : {1u, 2u, 4u, 16u}) {
            for (Cycle timeout : {Cycle{0}, Cycle{7}, Cycle{50}}) {
                Pcg32 rng(entries * 131 + timeout * 7 +
                          (repl == CrcRepl::Lru ? 1 : 0));
                ClusterRegisterCache crc(entries, repl, timeout);
                LinearCrc ref(entries, repl, timeout);
                Cycle now = 0;
                for (std::size_t step = 0; step < 20000; ++step) {
                    now += rng.nextBounded(4);
                    // A hot window of registers a little larger
                    // than the cache, plus the whole file.
                    PhysReg reg = static_cast<PhysReg>(
                        rng.chance(0.7)
                            ? rng.nextBounded(entries + 3)
                            : rng.nextBounded(num_regs));
                    std::uint32_t op = rng.nextBounded(100);
                    if (op < 40) {
                        ASSERT_EQ(crc.lookup(reg, now),
                                  ref.lookup(reg, now))
                            << "step " << step;
                    } else if (op < 75) {
                        crc.insert(reg, now);
                        ref.insert(reg, now);
                    } else if (op < 99) {
                        crc.invalidate(reg);
                        ref.invalidate(reg);
                    } else if (rng.chance(0.1)) {
                        crc.reset();
                        ref.reset();
                    }
                    expectSameCrc(crc, ref, step);
                }
            }
        }
    }
}

TEST(CrcOracle, TimedOutEntryFreesItsSlotForReinsert)
{
    ClusterRegisterCache crc(2, CrcRepl::Fifo, 10);
    crc.insert(3, 0);
    crc.insert(4, 5);
    EXPECT_FALSE(crc.lookup(3, 20)); // aged out, slot freed
    EXPECT_EQ(crc.timeouts(), 1u);
    crc.insert(5, 20); // fills the freed slot: no eviction
    EXPECT_EQ(crc.evictions(), 0u);
    EXPECT_TRUE(crc.lookup(4, 14));
    EXPECT_TRUE(crc.lookup(5, 21));
    crc.insert(3, 22); // re-insert after the timeout: evicts 4
    EXPECT_EQ(crc.evictions(), 1u);
    EXPECT_FALSE(crc.lookup(4, 22));
    EXPECT_TRUE(crc.lookup(3, 22));
}
