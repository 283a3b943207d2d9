/**
 * @file
 * Differential oracles for the per-op structures both kernels share:
 * the hashed TLB, the reg-indexed cluster register cache, the calendar
 * event queue and the O(1) op-mix sampler are driven side by side with
 * the implementations they replaced (linear search, a binary heap, a
 * binary search over cumulative weights), through long randomised
 * sequences, and must agree on every return value, statistic, probe
 * and occupancy. The dense/sparse kernel differential cannot catch a
 * bug here, because both kernels share these structures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "core/event_queue.hh"
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

/** The pipeline's event order, stated independently of Event's own
 *  operator>: cycle, then type, then scheduling order. */
struct HeapOrder
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return std::tuple(a.cycle, a.type, a.order) >
               std::tuple(b.cycle, b.type, b.order);
    }
};

/** The two binary heaps the calendar queue replaced, as one heap (the
 *  merged drain popped exactly its order), plus the waking cycles
 *  nextWake() must report. */
class HeapEventQueue
{
  public:
    void
    push(const Event &e)
    {
        heap.push(e);
        if (!e.lazy)
            waking.insert(e.cycle);
    }

    bool
    pop(Cycle now, Event &out)
    {
        if (heap.empty() || heap.top().cycle > now)
            return false;
        out = heap.top();
        heap.pop();
        if (!out.lazy)
            waking.erase(waking.find(out.cycle));
        return true;
    }

    Cycle
    nextWake() const
    {
        return waking.empty() ? invalidCycle : *waking.begin();
    }

    std::size_t size() const { return heap.size(); }

    void
    reset()
    {
        heap = {};
        waking.clear();
    }

  private:
    std::priority_queue<Event, std::vector<Event>, HeapOrder> heap;
    std::multiset<Cycle> waking;
};

/**
 * Drive @p cal and the heap through @p steps rounds of a core-like
 * loop: schedule a few events, advance time (usually one cycle,
 * sometimes a gap, sometimes a gap longer than the ring), then drain
 * everything due while the "handlers" schedule more — below the event
 * being drained, at its cycle, at now, and beyond the horizon. Few
 * types and near cycles make equal (cycle, type) keys common.
 */
void
driveEventQueues(EventQueue &cal, std::uint64_t seed, int steps)
{
    HeapEventQueue ref;
    Pcg32 rng(seed);
    std::uint64_t order = 0;
    Cycle now = 0;

    auto make = [&](Cycle c) {
        Event e;
        e.cycle = c;
        e.type = static_cast<EventType>(rng.nextBounded(8));
        e.lazy = rng.chance(0.5);
        e.order = ++order;
        return e;
    };
    auto pushBoth = [&](const Event &e) {
        cal.push(e);
        ref.push(e);
    };
    auto below = [&](Cycle c) {
        return c - std::min<Cycle>(c, rng.nextBounded(5));
    };
    auto expectSameEvent = [&](const Event &a, const Event &b, int step) {
        ASSERT_EQ(a.order, b.order) << "seed " << seed << " step " << step;
        ASSERT_EQ(a.cycle, b.cycle);
        ASSERT_EQ(a.type, b.type);
        ASSERT_EQ(a.lazy, b.lazy);
    };

    for (int step = 0; step < steps; ++step) {
        // Stage-time schedules: mostly a few cycles out; some late
        // (lazy events drained after their cycle), some past the
        // ring's horizon or right at its edge.
        for (std::uint32_t n = rng.nextBounded(6); n > 0; --n) {
            switch (rng.nextBounded(10)) {
              case 0: pushBoth(make(below(now))); break;
              case 1: pushBoth(make(now + 64 + rng.nextBounded(300))); break;
              case 2: pushBoth(make(now + 60 + rng.nextBounded(8))); break;
              default: pushBoth(make(now + 1 + rng.nextBounded(6))); break;
            }
        }
        ASSERT_EQ(cal.nextWake(), ref.nextWake()) << "step " << step;
        ASSERT_EQ(cal.size(), ref.size());

        const std::uint32_t g = rng.nextBounded(40);
        now += g == 0 ? 65 + rng.nextBounded(200)
                      : g < 4 ? 2 + rng.nextBounded(12) : 1;

        Event a;
        Event b;
        while (true) {
            const bool got = cal.pop(now, a);
            ASSERT_EQ(got, ref.pop(now, b)) << "step " << step;
            if (!got)
                break;
            expectSameEvent(a, b, step);
            // Handler-time schedules, including at or below the cycle
            // being drained: they must pop in this same drain.
            if (rng.chance(0.3)) {
                switch (rng.nextBounded(6)) {
                  case 0: pushBoth(make(below(a.cycle))); break;
                  case 1: pushBoth(make(a.cycle)); break;
                  case 2: pushBoth(make(now)); break;
                  case 3: pushBoth(make(now + 70 + rng.nextBounded(100)));
                    break;
                  default: pushBoth(make(now + 1 + rng.nextBounded(4)));
                    break;
                }
            }
        }
        ASSERT_EQ(cal.nextWake(), ref.nextWake()) << "step " << step;
        ASSERT_EQ(cal.size(), ref.size());
    }
}

/** The binary search over cumulative weights the sampler replaced. */
std::size_t
upperBoundSample(const std::vector<double> &weights, std::uint32_t draw)
{
    std::vector<double> cumulative;
    double sum = 0.0;
    for (double w : weights) {
        sum += w;
        cumulative.push_back(sum);
    }
    const double u = draw * (1.0 / 4294967296.0) * sum;
    auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    if (it == cumulative.end())
        --it;
    return static_cast<std::size_t>(it - cumulative.begin());
}

/** A weight vector of 1..64 entries: zeros, a lone non-zero weight,
 *  1e-12:1 ratios and plain random weights. */
std::vector<double>
randomWeights(Pcg32 &rng)
{
    const std::size_t n = 1 + rng.nextBounded(64);
    std::vector<double> w(n);
    switch (rng.nextBounded(4)) {
      case 0: // one non-zero weight
        w[rng.nextBounded(static_cast<std::uint32_t>(n))] =
            0.5 + rng.nextDouble();
        break;
      case 1: // tiny next to large
        for (double &x : w)
            x = rng.chance(0.5) ? 1e-12 : 1.0;
        w[0] = 1.0;
        break;
      default: // random, with zeros
        for (double &x : w)
            x = rng.chance(0.25) ? 0.0 : rng.nextDouble() * 100.0;
        w[rng.nextBounded(static_cast<std::uint32_t>(n))] = 1.0;
        break;
    }
    return w;
}

} // anonymous namespace

TEST(EventQueueOracle, MatchesBinaryHeapOnRandomSchedules)
{
    // One queue object across runs: reset() between runs must leave
    // nothing behind, with bucket capacity kept.
    EventQueue cal;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        driveEventQueues(cal, seed, 20000);
        if (HasFatalFailure())
            return;
        cal.reset();
        EXPECT_TRUE(cal.empty());
        EXPECT_EQ(cal.nextWake(), invalidCycle);
    }
}

TEST(EventQueueOracle, LazyEventsNeverWakeAndDrainInOrder)
{
    EventQueue q;
    auto ev = [](Cycle c, EventType t, std::uint64_t order, bool lazy) {
        Event e;
        e.cycle = c;
        e.type = t;
        e.order = order;
        e.lazy = lazy;
        return e;
    };
    q.push(ev(5, EventType::Writeback, 1, true));
    q.push(ev(500, EventType::Writeback, 2, true)); // past the horizon
    EXPECT_EQ(q.nextWake(), invalidCycle);
    q.push(ev(9, EventType::ExecStart, 3, false));
    q.push(ev(300, EventType::TlbTrap, 4, false)); // past the horizon
    q.push(ev(9, EventType::Writeback, 5, true));
    EXPECT_EQ(q.nextWake(), 9u);
    EXPECT_EQ(q.size(), 5u);

    // A late drain at cycle 20: the lazy cycle-5 writeback first, then
    // cycle 9's writeback before its ExecStart (type before order).
    Event e;
    ASSERT_TRUE(q.pop(20, e));
    EXPECT_EQ(e.order, 1u);
    ASSERT_TRUE(q.pop(20, e));
    EXPECT_EQ(e.order, 5u);
    ASSERT_TRUE(q.pop(20, e));
    EXPECT_EQ(e.order, 3u);
    EXPECT_FALSE(q.pop(20, e));
    EXPECT_EQ(q.nextWake(), 300u);

    // Scheduled below the drained cycle after the drain: next pop.
    q.push(ev(12, EventType::PayloadDelivery, 6, false));
    EXPECT_EQ(q.nextWake(), 12u);
    ASSERT_TRUE(q.pop(21, e));
    EXPECT_EQ(e.order, 6u);
    ASSERT_TRUE(q.pop(1000, e));
    EXPECT_EQ(e.order, 4u);
    ASSERT_TRUE(q.pop(1000, e));
    EXPECT_EQ(e.order, 2u);
    EXPECT_TRUE(q.empty());
}

TEST(SamplerOracle, MatchesUpperBoundAtEveryThreshold)
{
    Pcg32 rng(0x5a3);
    std::uint64_t random_draws = 0;
    for (int vec = 0; vec < 300; ++vec) {
        const std::vector<double> w = randomWeights(rng);
        const DiscreteDistribution dist(w);
        ASSERT_EQ(dist.size(), w.size());
        auto check = [&](std::uint64_t d) {
            if (d > 0xffffffffu)
                return;
            const auto draw = static_cast<std::uint32_t>(d);
            ASSERT_EQ(dist.indexOf(draw), upperBoundSample(w, draw))
                << "vector " << vec << " draw " << draw;
        };
        // Every point where the reference's result steps up, found by
        // binary search over the draw, and its neighbours.
        for (std::size_t i = 0; i + 1 < w.size(); ++i) {
            std::uint64_t lo = 0;
            std::uint64_t hi = std::uint64_t{1} << 32;
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (upperBoundSample(w, static_cast<std::uint32_t>(mid)) >
                    i) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            check(lo - 1);
            check(lo);
            check(lo + 1);
        }
        // Both ends and every guide-table boundary.
        for (std::uint64_t h = 0; h < 256; ++h) {
            check(h << 24);
            check((h << 24) + 1);
            if (h > 0)
                check((h << 24) - 1);
        }
        check(0xffffffffu);
        // Random draws, through sample(): one next() per sample.
        for (int k = 0; k < 4000; ++k) {
            Pcg32 twin = rng;
            const std::size_t got = dist.sample(rng);
            ASSERT_EQ(got, upperBoundSample(w, twin.next()));
            ASSERT_EQ(rng.next(), twin.next()) << "sample drew twice";
            ++random_draws;
        }
        if (HasFatalFailure())
            return;
    }
    EXPECT_GE(random_draws, 1000000u);
}

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
