/**
 * @file
 * Named debug-trace flags, in the spirit of gem5's DPRINTF.
 *
 * Tracing is off by default and costs one boolean test per site. Flags
 * are enabled programmatically (debug::setFlags) or via the
 * LOOPSIM_DEBUG environment variable, e.g.
 *
 *   LOOPSIM_DEBUG=Issue,Squash ./build/examples/quickstart gcc
 *
 * Each line is prefixed with the cycle and the flag name.
 */

#ifndef LOOPSIM_BASE_DEBUG_HH
#define LOOPSIM_BASE_DEBUG_HH

#include <atomic>
#include <sstream>
#include <string>

#include "base/types.hh"

namespace loopsim::debug
{

/** Trace categories; keep in sync with flagName()/parse. */
enum class Flag : unsigned
{
    Fetch,
    Rename,
    Issue,
    Exec,
    Retire,
    Squash,
    Kill,
    Dra,
    Mem,
    /** Label of instruction-pool slot trace lines. Switched only by
     *  LOOPSIM_TRACE_POOL=<slot>; naming it in a flag list is fatal. */
    Pool,
    /** Label of physical-register trace lines. Switched only by
     *  LOOPSIM_TRACE_REG=<reg>; naming it in a flag list is fatal. */
    Reg,
    NumFlags
};

/** Printable name of @p flag. */
const char *flagName(Flag flag);

namespace detail
{

/** Set in flagState once LOOPSIM_DEBUG has been read (or overridden
 *  by setFlags/clearFlags). */
inline constexpr unsigned envParsedBit = 1u << 31;

/**
 * The enabled-flag mask plus envParsedBit, in one word so the fast
 * path is a single relaxed load: whoever sees the bit also sees the
 * mask stored with it. The env parse serialises on a mutex in
 * debug.cc; setFlags/clearFlags run before a sweep; campaign workers
 * only load.
 */
inline std::atomic<unsigned> flagState{0};

/** Slow path: read LOOPSIM_DEBUG once; returns the latched state. */
unsigned parseEnv();

inline unsigned
state()
{
    unsigned s = flagState.load(std::memory_order_relaxed);
    if ((s & envParsedBit) == 0) [[unlikely]]
        s = parseEnv();
    return s;
}

} // namespace detail

/** Is @p flag enabled? Inline-cheap: one mask test. */
inline bool
enabled(Flag flag)
{
    return (detail::state() & (1u << static_cast<unsigned>(flag))) != 0;
}

/** Enable a comma-separated flag list ("Issue,Squash" or "All").
 *  An unknown name, or Pool/Reg (see Flag), is fatal. */
void setFlags(const std::string &csv);

/** Disable everything. */
void clearFlags();

/** True when any flag is on (fast path guard). */
inline bool
anyEnabled()
{
    return (detail::state() & ~detail::envParsedBit) != 0;
}

/**
 * Structure-level trace target: the integer in environment variable
 * @p var (LOOPSIM_TRACE_POOL, LOOPSIM_TRACE_REG), or -1 when unset.
 * Anything but a decimal integer >= 0 (empty, junk, trailing text,
 * negative, out of range) is fatal.
 * Structures latch it at construction so their hot paths compare a
 * member instead of re-reading the environment.
 */
int envTraceTarget(const char *var);

/** Emit one trace line (already guarded by enabled()). */
void emit(Flag flag, Cycle cycle, const std::string &message);

/** Emit a trace line with no meaningful cycle (structure-level hooks
 *  like pool/regfile transitions that fire outside stage code). */
void emit(Flag flag, const std::string &message);

/**
 * Trace macro: evaluates its message arguments only when the flag is
 * enabled.
 */
#define LTRACE(flag, cycle, ...)                                          \
    do {                                                                  \
        if (::loopsim::debug::enabled(::loopsim::debug::Flag::flag)) {    \
            std::ostringstream ltrace_os;                                 \
            ltrace_os << __VA_ARGS__;                                     \
            ::loopsim::debug::emit(::loopsim::debug::Flag::flag, cycle,   \
                                   ltrace_os.str());                      \
        }                                                                 \
    } while (false)

} // namespace loopsim::debug

#endif // LOOPSIM_BASE_DEBUG_HH
