/**
 * @file
 * A cycle-indexed calendar queue with exact extract-min order.
 *
 * The core's two per-op schedulers — the pipeline event queue and the
 * sparse issue stage's wake/confirm timers — both file (cycle, payload)
 * entries a few cycles out and drain them cycle by cycle. A binary heap
 * pays O(log n) per push and pop for that; this queue pays O(1) for the
 * common case (DESIGN.md §14 "One calendar queue"):
 *
 *  - 64 one-cycle buckets cover the horizon [head, head + 64). Bit b of
 *    `occupied` is set while bucket b holds an undrained entry, so the
 *    earliest non-empty bucket is one rotate + count-trailing-zeros.
 *  - Each bucket is kept sorted by the entry order; a pop reads the
 *    bucket's cursor. Pushes into a bucket append and sift back past
 *    larger entries, never past the cursor.
 *  - Entries beyond the horizon (memory-latency writebacks, long loop
 *    delays) go to an overflow min-heap; pops merge it with the ring.
 *
 * The drain order is exactly a binary min-heap's: every pop returns
 * the least entry present at that moment, under Entry's operator>,
 * including entries pushed from inside a drain at or below the cycle
 * being drained. An entry pushed below `head` (the next undrained
 * cycle) keeps its own cycle and is filed in head's bucket, where the
 * sort puts it first — the next pop returns it, as a heap would.
 *
 * Entries may opt out of waking the simulation wheel: nextWake() is
 * the earliest cycle of an entry whose wakes() is true, tracked by a
 * second per-bucket bitmask and a separate overflow heap, so lazy
 * entries never hide or fake a waking one.
 *
 * Entry requirements: a `Cycle cycle` member, a strict weak order
 * `operator>` that compares `cycle` first, and `bool wakes() const`.
 * Construction and reset() are O(64) and allocate nothing; bucket
 * capacity grows on first use and is kept across reset().
 */

#ifndef LOOPSIM_CORE_CALENDAR_QUEUE_HH
#define LOOPSIM_CORE_CALENDAR_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

template <typename Entry>
class CalendarQueue
{
  public:
    /** File @p e. O(1) unless its bucket holds larger entries or it
     *  lies beyond the horizon (heap push). */
    void
    push(const Entry &e)
    {
        ++count;
        const Cycle slot = std::max(e.cycle, head);
        if (slot - head >= numBuckets) {
            (e.wakes() ? wakingOverflow : lazyOverflow).push(e);
            return;
        }
        const unsigned b = static_cast<unsigned>(slot) & mask;
        Bucket &bk = buckets[b];
        std::vector<Entry> &v = bk.items;
        v.push_back(e);
        std::size_t i = v.size() - 1;
        while (i > bk.next && v[i - 1] > e) {
            v[i] = v[i - 1];
            --i;
        }
        v[i] = e;
        occupied |= bit(b);
        if (e.wakes()) {
            ++bk.waking;
            wakingMask |= bit(b);
        }
    }

    /** Remove the least entry into @p out if its cycle is <= @p now;
     *  false (and nothing removed) otherwise. */
    bool
    pop(Cycle now, Entry &out)
    {
        const Entry *best = nullptr;
        unsigned from_bucket = numBuckets;
        if (occupied) {
            const unsigned b = firstBucket(occupied);
            from_bucket = b;
            best = &buckets[b].items[buckets[b].next];
        }
        std::priority_queue<Entry, std::vector<Entry>,
                            std::greater<Entry>> *heap = nullptr;
        for (auto *h : {&wakingOverflow, &lazyOverflow}) {
            if (!h->empty() && (!best || *best > h->top())) {
                best = &h->top();
                heap = h;
            }
        }
        if (!best || best->cycle > now) {
            // Nothing due: every ring entry's slot is past now.
            head = std::max(head, now + 1);
            return false;
        }
        out = *best;
        --count;
        if (heap) {
            heap->pop();
            return true;
        }
        // Drain from this bucket's slot on: pushes made while the
        // caller handles `out` below that cycle sort in front of it.
        head += (from_bucket - static_cast<unsigned>(head)) & mask;
        Bucket &bk = buckets[from_bucket];
        if (++bk.next == bk.items.size()) {
            bk.items.clear();
            bk.next = 0;
            occupied &= ~bit(from_bucket);
        }
        if (out.wakes() && --bk.waking == 0)
            wakingMask &= ~bit(from_bucket);
        return true;
    }

    /** Pop every entry due at @p now, in order, into @p f. @p f may
     *  push (including at or below @p now: those drain in this call). */
    template <typename F>
    void
    drain(Cycle now, F &&f)
    {
        Entry e;
        while (pop(now, e))
            f(e);
    }

    /** Earliest cycle of a waking entry (it may lie below the next
     *  undrained cycle), or invalidCycle when none is queued. */
    Cycle
    nextWake() const
    {
        Cycle best = wakingOverflow.empty() ? invalidCycle
                                            : wakingOverflow.top().cycle;
        if (wakingMask) {
            // Sorted bucket: its first waking entry is its earliest.
            // Only head's bucket can mix cycles (entries pushed below
            // head); when its ends agree, every entry shares a cycle.
            const Bucket &bk = buckets[firstBucket(wakingMask)];
            std::size_t i = bk.next;
            if (bk.items[i].cycle != bk.items.back().cycle) {
                while (!bk.items[i].wakes())
                    ++i;
            }
            best = std::min(best, bk.items[i].cycle);
        }
        return best;
    }

    /** Entries queued, lazy and waking. */
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Forget everything; bucket capacity is kept. */
    void
    reset()
    {
        for (Bucket &bk : buckets) {
            bk.items.clear();
            bk.next = 0;
            bk.waking = 0;
        }
        occupied = 0;
        wakingMask = 0;
        head = 0;
        count = 0;
        wakingOverflow = {};
        lazyOverflow = {};
    }

  private:
    static constexpr unsigned numBuckets = 64;
    static constexpr unsigned mask = numBuckets - 1;

    static constexpr std::uint64_t
    bit(unsigned b)
    {
        return std::uint64_t{1} << b;
    }

    /** Index of the set bucket of @p bits earliest in cycle order. */
    unsigned
    firstBucket(std::uint64_t bits) const
    {
        const unsigned h = static_cast<unsigned>(head) & mask;
        return (h + static_cast<unsigned>(
                        std::countr_zero(std::rotr(bits, int(h))))) &
               mask;
    }

    struct Bucket
    {
        std::vector<Entry> items; ///< sorted; [next, size) undrained
        std::uint32_t next = 0;
        std::uint32_t waking = 0; ///< undrained entries that wake
    };

    std::array<Bucket, numBuckets> buckets;
    std::uint64_t occupied = 0;
    std::uint64_t wakingMask = 0;
    /** Next undrained cycle: every ring entry's slot, max(cycle, head
     *  at push), lies in [head, head + 64). */
    Cycle head = 0;
    std::size_t count = 0;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        wakingOverflow;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        lazyOverflow;
};

} // namespace loopsim

#endif // LOOPSIM_CORE_CALENDAR_QUEUE_HH
