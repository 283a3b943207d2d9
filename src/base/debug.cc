#include "base/debug.hh"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string_view>

#include "base/logging.hh"
#include "base/str.hh"

namespace loopsim::debug
{

namespace
{

// Serialises the one-time LOOPSIM_DEBUG parse. setFlags/clearFlags
// are install-time calls made before a sweep starts; campaign workers
// only load detail::flagState.
std::mutex &
flagMutex()
{
    static std::mutex m;
    return m;
}

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
    std::lock_guard<std::mutex> lock(flagMutex());
    unsigned s = detail::flagState.load(std::memory_order_relaxed);
    if ((s & detail::envParsedBit) != 0)
        return s;
    // Latch first: a bad LOOPSIM_DEBUG is reported once, as before.
    detail::flagState.fetch_or(detail::envParsedBit,
                               std::memory_order_relaxed);
    // Guarded by flagMutex and only ever read, never set, by us.
    const char *env = std::getenv("LOOPSIM_DEBUG"); // NOLINT(concurrency-mt-unsafe)
    if (env)
        setFlags(env);
    return detail::flagState.load(std::memory_order_relaxed);
}

void
setFlags(const std::string &csv)
{
    detail::flagState.fetch_or(detail::envParsedBit,
                               std::memory_order_relaxed);
    unsigned add = 0;
    for (const std::string &raw : split(csv, ',')) {
        std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        if (name == "all") {
            add |= allMask;
            continue;
        }
        // Pool and Reg only label structure-level trace lines; the
        // tracing itself follows a per-slot/per-register target.
        fatal_if(name == "pool", "debug flag ", raw,
                 " is not switched by a flag list: set "
                 "LOOPSIM_TRACE_POOL=<pool slot> instead");
        fatal_if(name == "reg", "debug flag ", raw,
                 " is not switched by a flag list: set "
                 "LOOPSIM_TRACE_REG=<physical register> instead");
        bool found = false;
        for (unsigned f = 0;
             f < static_cast<unsigned>(Flag::NumFlags); ++f) {
            if (toLower(flagName(static_cast<Flag>(f))) == name) {
                add |= 1u << f;
                found = true;
                break;
            }
        }
        fatal_if(!found, "unknown debug flag: ", raw);
    }
    detail::flagState.fetch_or(add, std::memory_order_relaxed);
}

void
clearFlags()
{
    detail::flagState.store(detail::envParsedBit,
                            std::memory_order_relaxed);
}

int
envTraceTarget(const char *var)
{
    // Read-only use of the environment, at structure construction.
    const char *env = std::getenv(var); // NOLINT(concurrency-mt-unsafe)
    if (!env)
        return -1;
    // Strict: a typo must fail, not trace some other slot.
    const std::string_view text(env);
    int target = -1;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), target);
    fatal_if(text.empty() || ec != std::errc() ||
                 end != text.data() + text.size() || target < 0,
             var, "='", text,
             "' is not a slot/register number (a decimal integer >= 0)");
    return target;
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
