/**
 * @file
 * The core's pipeline events and the queue that orders them.
 *
 * Every timed action of the pipeline — a writeback, an execution
 * start, a loop's kill/trap/redirect delivery — is an Event filed at
 * the cycle it takes effect. Core::processEvents() drains them in
 * (cycle, type, order) order; the queue is a calendar queue
 * (calendar_queue.hh) that reproduces a binary heap's pop order
 * exactly, lazy events included (DESIGN.md §14 "One calendar queue").
 */

#ifndef LOOPSIM_CORE_EVENT_QUEUE_HH
#define LOOPSIM_CORE_EVENT_QUEUE_HH

#include <cstdint>

#include "base/types.hh"
#include "core/calendar_queue.hh"
#include "core/dyn_inst.hh"

namespace loopsim
{

/** Event kinds, in their same-cycle drain order. */
enum class EventType : std::uint8_t
{
    Writeback,       ///< value leaves fwd buffer, lands in RF
    LoadMissKill,    ///< load-resolution-loop mis-speculation at IQ
    OperandMissKill, ///< DRA operand-loop mis-speculation at IQ
    TlbTrap,         ///< memory trap: front-of-pipe recovery
    OrderTrap,       ///< load/store reorder trap: refetch the load
    BranchRedirect,  ///< branch-resolution-loop repair at fetch
    ExecStart,       ///< instruction reaches the functional unit
    PayloadDelivery  ///< operand-miss recovery reaches the payload
};

/** A pipeline event. Designated-initialise it (`.cycle`, `.type`, then
 *  the payload fields it needs); Core::schedule() stamps `order` and
 *  `lazy`. */
struct Event
{
    Cycle cycle = invalidCycle;
    EventType type = EventType::Writeback;
    /** Does not wake the simulation wheel; drains at the next tick, in
     *  its place in the order (see Core::events). */
    bool lazy = false;
    PhysReg reg = invalidPhysReg;    ///< Writeback payload
    InstRef ref{};
    std::uint64_t order = 0;         ///< FIFO tie-break within a cycle
    Cycle issueStamp = invalidCycle; ///< staleness check
    Cycle expect = invalidCycle;     ///< Writeback produce check
    /** Feedback-port signal id (0 for non-feedback events). */
    std::uint64_t signalId = 0;

    bool
    operator>(const Event &o) const
    {
        if (cycle != o.cycle)
            return cycle > o.cycle;
        if (type != o.type)
            return type > o.type;
        return order > o.order;
    }
    bool wakes() const { return !lazy; }
};

static_assert(sizeof(Event) == 56, "Event layout drifted");

using EventQueue = CalendarQueue<Event>;

} // namespace loopsim

#endif // LOOPSIM_CORE_EVENT_QUEUE_HH
