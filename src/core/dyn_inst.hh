/**
 * @file
 * The in-flight dynamic instruction record and its storage pool.
 *
 * Pool entries are allocated at rename and released at retire or
 * squash. References across cycles carry (index, generation) pairs so
 * stale events can be detected after an entry is recycled.
 */

#ifndef LOOPSIM_CORE_DYN_INST_HH
#define LOOPSIM_CORE_DYN_INST_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <vector>

#include "base/annotations.hh"
#include "base/debug.hh"
#include "base/knobs.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "mem/hierarchy.hh"
#include "workload/micro_op.hh"

namespace loopsim
{

/** Index into the instruction pool. */
using PoolIdx = std::uint16_t;
constexpr PoolIdx invalidPoolIdx = 0xffff;

/** A (index, generation) reference that can detect recycling. */
struct InstRef
{
    PoolIdx idx = invalidPoolIdx;
    std::uint32_t gen = 0;

    bool valid() const { return idx != invalidPoolIdx; }
    bool operator==(const InstRef &o) const = default;
};

/** Where a source operand was obtained (Figure 9 accounting). */
enum class OperandSource : std::uint8_t
{
    None,     ///< no such operand
    PreRead,  ///< DRA: read from the RF before IQ insertion (completed)
    Forward,  ///< forwarding buffer (timely)
    Crc,      ///< DRA: cluster register cache (cached)
    RegFile,  ///< base machine: the in-path RF read
    Payload,  ///< re-read from the IQ payload after a recovery
    Miss,     ///< DRA: operand resolution loop mis-speculation
};

const char *operandSourceName(OperandSource src);

/** Lifecycle of a pool entry. */
enum class InstState : std::uint8_t
{
    Empty,    ///< free pool slot
    Renamed,  ///< traversing the DEC-IQ pipe
    InIq,     ///< waiting in the IQ
    Issued,   ///< issued, traversing IQ-EX / executing, IQ entry held
    Done,     ///< executed validly; waiting for confirm + retire
    Retired,  ///< retired this cycle (transient, then Empty)
};

/**
 * The in-flight record. Hot fields first: the per-entry state that the
 * issue evaluation, wake arm, confirm pop, retire check and
 * InstPool::live()/get() read on every touch fills the first 64 bytes
 * (DESIGN.md §14 "Hot-first DynInst"); the op, the timeline cycles,
 * the dependence links and the memory/store state follow.
 */
struct DynInst
{
    /** @name Hot: read on every issue pass, wake, confirm and retire */
    /// @{
    std::uint32_t gen = 0;
    InstState state = InstState::Empty;
    ClusterId cluster = 0;
    /** Dense index of this instruction's IQ slot (managed by the IQ). */
    std::uint16_t iqSlot = 0xffff;

    /** Global fetch-order stamp (age across threads). */
    std::uint64_t fetchStamp = 0;

    /** Renamed sources and destination. */
    std::array<PhysReg, 2> physSrc{invalidPhysReg, invalidPhysReg};
    PhysReg physDest = invalidPhysReg;
    /** Blocked awaiting an operand-miss recovery delivery. Clearing
     *  it re-arms issue eligibility: writers owe a wake note. */
    LOOPSIM_WAKE_STATE bool waitingRecovery = false;
    bool execValid = false; ///< last execution had real operands

    /** Loop events (kills, traps, redirects) scheduled but not yet
     *  processed; retire is blocked while non-zero. */
    unsigned pendingEvents = 0;
    /** Operand already sits in the IQ payload (pre-read or after an
     *  operand-miss recovery): no lookup needed at execute. */
    std::array<bool, 2> operandInPayload{false, false};
    bool mispredicted = false; ///< resolved as a misprediction
    /** The redirect for this mispredicted branch has been performed. */
    bool redirectDone = false;

    Cycle insertCycle = invalidCycle;  ///< IQ insertion
    Cycle issueCycle = invalidCycle;   ///< most recent issue
    /** Lowering the confirm cycle can free the IQ slot earlier:
     *  writers owe a noteIqWake() (see base/annotations.hh). */
    LOOPSIM_WAKE_STATE
    Cycle confirmCycle = invalidCycle; ///< IQ entry may clear
    Cycle produceCycle = invalidCycle; ///< actual data ready (valid exec)
    /// @}

    MicroOp op;

    /** @name Timeline */
    /// @{
    Cycle fetchCycle = invalidCycle;
    Cycle renameCycle = invalidCycle;
    Cycle firstIssueCycle = invalidCycle;
    Cycle execStartCycle = invalidCycle;
    /// @}

    /** @name Dependence links */
    /// @{
    /** In-flight producers of the sources at rename time. */
    std::array<InstRef, 2> srcProducer{};
    /** Instructions that named this one as a source producer. */
    std::vector<InstRef> consumers;
    /// @}

    /** @name Memory and store ordering */
    /// @{
    MemAccessResult memResult{};
    /** Stores: per-thread store sequence number (memory ordering). */
    std::uint64_t storeSeq = 0;
    /** Loads: count of older same-thread stores at rename. */
    std::uint64_t olderStores = 0;
    /// @}

    /** @name Cold execution status */
    /// @{
    unsigned timesIssued = 0;
    PhysReg prevPhysDest = invalidPhysReg;
    bool memDone = false; ///< load/store access performed
    bool branchResolved = false;
    /** The payload copy came from a miss recovery (not a pre-read),
     *  so it must not be re-counted in the Figure 9 breakdown. */
    std::array<bool, 2> payloadFromRecovery{false, false};
    /** Figure 6 operand-availability gap already sampled. */
    bool gapSampled = false;
    /** Store counted as executed in the thread's ordering state. */
    bool storeExecCounted = false;
    /// @}

    bool
    inFlight() const
    {
        return state != InstState::Empty && state != InstState::Retired;
    }
    bool holdsIqEntry() const
    {
        return state == InstState::InIq || state == InstState::Issued ||
               state == InstState::Done;
    }
};

static_assert(offsetof(DynInst, op) == 64,
              "DynInst hot fields no longer fill exactly one cache line");
static_assert(sizeof(DynInst) == 224, "DynInst layout drifted");

/**
 * Fixed-capacity pool of DynInst with generation counters. The pool
 * size is the machine's in-flight limit (ROB capacity).
 */
class InstPool
{
  public:
    explicit InstPool(std::size_t capacity) : slots(capacity)
    {
        panic_if(capacity == 0 || capacity >= invalidPoolIdx,
                 "instruction pool capacity out of range");
        freeList.reserve(capacity);
        for (std::size_t i = capacity; i-- > 0;)
            freeList.push_back(static_cast<PoolIdx>(i));
    }

    bool full() const { return freeList.empty(); }
    std::size_t inUse() const { return slots.size() - freeList.size(); }
    std::size_t capacity() const { return slots.size(); }

    /** Allocate a slot; the entry keeps its bumped generation. */
    InstRef
    alloc()
    {
        panic_if(freeList.empty(), "instruction pool exhausted");
        PoolIdx idx = freeList.back();
        freeList.pop_back();
        DynInst &inst = slots[idx];
        const std::uint32_t gen = inst.gen + 1;
        // Copy-assigning the blank record resets every field; copying
        // its empty consumers list keeps this slot's heap buffer
        // (release() cleared it), so steady-state allocation performs
        // no heap traffic at all.
        inst = blank;
        inst.gen = gen;
        inst.state = InstState::Renamed;
        if (static_cast<int>(idx) == tracedIdx) [[unlikely]] {
            // Through debug::emit: one write per line, so traces stay
            // unscrambled under parallel campaigns.
            std::ostringstream os;
            os << "[pool " << idx << "] alloc gen " << gen;
            debug::emit(debug::Flag::Pool, os.str());
        }
        return InstRef{idx, gen};
    }

    /** Release a slot; stale refs to it become detectable. */
    void
    release(InstRef ref)
    {
        DynInst &inst = get(ref);
        panic_if(inst.state == InstState::Empty, "double release");
        if (static_cast<int>(ref.idx) == tracedIdx) [[unlikely]] {
            std::ostringstream os;
            os << "[pool " << ref.idx << "] release gen " << ref.gen
               << " op " << inst.op.toString() << " physDest "
               << inst.physDest << " state " << int(inst.state);
            debug::emit(debug::Flag::Pool, os.str());
        }
        inst.state = InstState::Empty;
        inst.consumers.clear();
        freeList.push_back(ref.idx);
    }

    /** Dereference a live ref; panics on staleness. */
    DynInst &
    get(InstRef ref)
    {
        panic_if(!ref.valid(), "dereferencing an invalid InstRef");
        DynInst &inst = slots[ref.idx];
        panic_if(inst.gen != ref.gen, "stale InstRef dereference");
        return inst;
    }
    const DynInst &
    get(InstRef ref) const
    {
        return const_cast<InstPool *>(this)->get(ref);
    }

    /** True iff @p ref still names the same allocation. */
    bool
    live(InstRef ref) const
    {
        return ref.valid() && slots[ref.idx].gen == ref.gen &&
               slots[ref.idx].state != InstState::Empty;
    }

  private:
    /** The reset value of a slot (see alloc). */
    static inline const DynInst blank{};

    std::vector<DynInst> slots;
    std::vector<PoolIdx> freeList;
    /** Debug aid: LOOPSIM_TRACE_POOL=<idx> logs slot transitions. */
    int tracedIdx = knobs::env().tracePool;
};

} // namespace loopsim

#endif // LOOPSIM_CORE_DYN_INST_HH
