#include "base/debug.hh"

#include <iostream>
#include <sstream>

#include "base/knobs.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace loopsim::debug
{

namespace
{

constexpr unsigned allMask =
    (1u << static_cast<unsigned>(Flag::NumFlags)) - 1;

} // anonymous namespace

const char *
flagName(Flag flag)
{
    switch (flag) {
      case Flag::Fetch: return "Fetch";
      case Flag::Rename: return "Rename";
      case Flag::Issue: return "Issue";
      case Flag::Exec: return "Exec";
      case Flag::Retire: return "Retire";
      case Flag::Squash: return "Squash";
      case Flag::Kill: return "Kill";
      case Flag::Dra: return "Dra";
      case Flag::Mem: return "Mem";
      case Flag::Pool: return "Pool";
      case Flag::Reg: return "Reg";
      default: panic("unknown debug flag");
    }
}

unsigned
detail::parseEnv()
{
    // setFlags/clearFlags are install-time calls made before a sweep
    // starts; whichever of them or this latch comes first wins.
    const unsigned latched = envParsedBit | knobs::env().debugFlags;
    unsigned s = detail::flagState.load(std::memory_order_relaxed);
    while ((s & envParsedBit) == 0) {
        if (detail::flagState.compare_exchange_weak(
                s, s | latched, std::memory_order_relaxed))
            return s | latched;
    }
    return s;
}

std::string
parseFlagList(const std::string &csv, unsigned &mask)
{
    for (const std::string &raw : split(csv, ',')) {
        std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        if (name == "all") {
            mask |= allMask;
            continue;
        }
        // Pool and Reg only label structure-level trace lines; the
        // tracing itself follows a per-slot/per-register target.
        if (name == "pool") {
            return "debug flag " + raw + " is not switched by a flag "
                   "list: set LOOPSIM_TRACE_POOL=<pool slot> instead";
        }
        if (name == "reg") {
            return "debug flag " + raw + " is not switched by a flag "
                   "list: set LOOPSIM_TRACE_REG=<physical register> "
                   "instead";
        }
        bool found = false;
        for (unsigned f = 0;
             f < static_cast<unsigned>(Flag::NumFlags); ++f) {
            if (toLower(flagName(static_cast<Flag>(f))) == name) {
                mask |= 1u << f;
                found = true;
                break;
            }
        }
        if (!found)
            return "unknown debug flag: " + raw;
    }
    return "";
}

void
setFlags(const std::string &csv)
{
    detail::flagState.fetch_or(detail::envParsedBit,
                               std::memory_order_relaxed);
    unsigned add = 0;
    const std::string why = parseFlagList(csv, add);
    if (!why.empty())
        fatal(why);
    detail::flagState.fetch_or(add, std::memory_order_relaxed);
}

void
clearFlags()
{
    detail::flagState.store(detail::envParsedBit,
                            std::memory_order_relaxed);
}

void
emit(Flag flag, Cycle cycle, const std::string &message)
{
    // One formatted string per line so concurrent workers cannot
    // interleave mid-line.
    std::ostringstream os;
    os << cycle << ": " << flagName(flag) << ": " << message << "\n";
    std::cerr << os.str();
}

void
emit(Flag flag, const std::string &message)
{
    std::ostringstream os;
    os << "-: " << flagName(flag) << ": " << message << "\n";
    std::cerr << os.str();
}

} // namespace loopsim::debug
