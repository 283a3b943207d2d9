/**
 * @file
 * POSITIVE wake-soundness fixtures for the incremental ready-tracking
 * mutation surface (src/core/core.hh timer queues + per-cluster ready
 * sets, DESIGN.md §14): a structural copy of the arm-helper pattern
 * with the self-noting discharge "refactored" away. Each mutation
 * here can delay a sparse-kernel wake past the cycle the dense scan
 * would act on — exactly the class of silent divergence the analyzer
 * exists to catch at compile time.
 */

#include "fixture_world.hh"

namespace fixture
{

/** Stand-in for core.hh's calendar-ring timer. */
struct TimerRing
{
    void push(Cycle at, unsigned ref);
    Cycle nextDue() const;
    void reset();
};

struct ReadyList
{
    void push_back(unsigned ref);
    void clear();
};

class UnarmedCore
{
  public:
    LOOPSIM_WAKE_HOOK void noteIqWake(Cycle c);
    LOOPSIM_WAKE_STATE void revertToInIq(unsigned slot, Cycle now);

    void armWakeBare(Cycle at, unsigned ref);
    void rearmConfirm(Cycle at, unsigned ref);
    void queueRecheckBare(unsigned ref);
    void killPath(unsigned slot, Cycle now);
    void gateReset(Cycle now);
    Cycle peekDue() const;

  private:
    LOOPSIM_WAKE_STATE TimerRing wakeTimer;
    LOOPSIM_WAKE_STATE TimerRing confirmTimer;
    LOOPSIM_WAKE_STATE ReadyList readyRecheck;
    LOOPSIM_WAKE_STATE Cycle iqWakeAt = 0;
};

/**
 * The mutant: the real armWakeTimer pairs the ring push with
 * noteIqWake(at) so the issue-stage gate can never sleep through the
 * armed cycle; this copy kept the push and dropped the note.
 */
void
UnarmedCore::armWakeBare(Cycle at, unsigned ref)
{
    wakeTimer.push(at, ref); // expect: wake-soundness
}

/** Same drop on the confirm-free ring. */
void
UnarmedCore::rearmConfirm(Cycle at, unsigned ref)
{
    confirmTimer.push(at, ref); // expect: wake-soundness
}

/** A recheck enqueue without the cycle-0 note never gets drained. */
void
UnarmedCore::queueRecheckBare(unsigned ref)
{
    readyRecheck.push_back(ref); // expect: wake-soundness
}

/** Calling a wake_state function passes the obligation to us. */
void
UnarmedCore::killPath(unsigned slot, Cycle now)
{
    revertToInIq(slot, now); // expect: wake-soundness
}

/** Writing the gate itself is the sharpest mutation of all. */
void
UnarmedCore::gateReset(Cycle now)
{
    iqWakeAt = now + 4; // expect: wake-soundness
}

/** Const reads of the rings are never mutations. */
Cycle
UnarmedCore::peekDue() const
{
    return wakeTimer.nextDue();
}

} // namespace fixture
