/**
 * @file
 * Loop-discipline audit mode: the process-wide toggle FeedbackPort
 * consults, and the out-of-line violation raise.
 *
 * The default comes from the build (the LOOPSIM_AUDIT CMake option
 * defines LOOPSIM_AUDIT_BUILD) or, at runtime, the LOOPSIM_AUDIT
 * environment variable ("0"/"" off, anything else on) — so an audit
 * sweep needs no reconfigure. Tests and the harness may override
 * either with audit::setEnabled(). The flag is one relaxed atomic: the
 * campaign executor runs cores on many threads, and toggles are only
 * expected between campaigns.
 */

#include "sim/feedback_port.hh"

#include <atomic>

#include "base/knobs.hh"
#include "integrity/sim_error.hh"

namespace loopsim
{

namespace audit
{

namespace
{

std::atomic<bool> &
flag()
{
    static std::atomic<bool> on{knobs::env().audit};
    return on;
}

} // anonymous namespace

bool
enabled()
{
    return flag().load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    flag().store(on, std::memory_order_relaxed);
}

} // namespace audit

void
raiseDisciplineViolation(const std::string &component,
                         const std::string &kind, Cycle write_cycle,
                         Cycle loop_delay, Cycle now,
                         const std::string &context)
{
    throw DisciplineViolation(component, kind, write_cycle, loop_delay,
                              now, context);
}

} // namespace loopsim
