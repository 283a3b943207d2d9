/**
 * @file
 * The one registry of `LOOPSIM_*` environment knobs.
 *
 * Every environment variable the library and the bench binaries read
 * is one row of the table in knobs.cc: its name, its kind (which fixes
 * its grammar) and a one-line meaning. The whole process environment
 * is parsed and validated once, on the first env() call;
 * runCampaign() makes that call on its own thread, so a malformed
 * value never surfaces first inside a campaign worker.
 *
 * Grammar, by kind:
 *   bool    exactly `0` or `1`; unset or empty keeps the built-in
 *           default (for DENSE_KERNEL and AUDIT, the CMake option)
 *   uint    decimal digits only (no sign, space, prefix or suffix)
 *   count   a uint greater than 0
 *   jobs    a number or `auto` (parseJobsSpec)
 *   path    any text; unset or empty means off
 *   custom  the knob's own parser: a debug flag list (DEBUG) or
 *           config assignments (OVERLAY); empty means none
 *
 * A malformed value is fatal(), naming the variable, the value and
 * the grammar; the bench binaries turn that into `error: ...` and exit
 * status 2. An unknown `LOOPSIM_*` name (a typo, a retired knob) warns
 * once. Explicit setters (setIsolation, setDeadlineMs,
 * store::setStorePath, ...) and bench flags still win: consumers fall
 * back to env() only when nothing was set.
 */

#ifndef LOOPSIM_BASE_KNOBS_HH
#define LOOPSIM_BASE_KNOBS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace loopsim
{

/** Hardware threads on this host (>= 1). */
unsigned hostCpus();

/**
 * Parse a --jobs / LOOPSIM_JOBS value: decimal digits (capped at
 * 1024) or "auto", which resolves to hostCpus(). @p ok is false (and
 * 0 returned) on anything else.
 */
unsigned parseJobsSpec(const std::string &spec, bool &ok);

namespace knobs
{

/** The parsed environment. A field holds its built-in default when
 *  its variable is unset. */
struct Settings
{
    bool isolate = false;
    bool denseKernel = false;
    bool profile = false;
    bool check = false;
    bool audit = false;
    bool debugMiss = false;
    std::uint64_t deadlineMs = 0;
    /** Traced pool slot / physical register; -1 when unset. */
    int tracePool = -1;
    int traceReg = -1;
    /** 0 when unset (the binary's own default applies). */
    std::uint64_t benchOps = 0;
    /** 0 when unset (automatic). */
    unsigned jobs = 0;
    std::string store;
    std::string journal;
    std::string trace;
    std::string benchJson;
    /** debug::Flag bits named by LOOPSIM_DEBUG. */
    unsigned debugFlags = 0;
    Config overlay;
};

/**
 * Parse @p environment ("NAME=VALUE" strings, as in environ). Only
 * `LOOPSIM_*` names are looked at; the first malformed value is
 * fatal(). Unknown `LOOPSIM_*` names are appended to @p unknown when
 * it is non-null. Pure: reads and prints nothing.
 */
Settings parse(const std::vector<std::string> &environment,
               std::vector<std::string> *unknown = nullptr);

/**
 * The process environment, parsed once (thread-safe; a fatal parse is
 * retried, and fails the same way, on every later call). Warns once
 * per unknown `LOOPSIM_*` name.
 */
const Settings &env();

} // namespace knobs
} // namespace loopsim

#endif // LOOPSIM_BASE_KNOBS_HH
