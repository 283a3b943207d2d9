#include "base/knobs.hh"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <string_view>
#include <thread>

#include "base/debug.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace loopsim
{

unsigned
hostCpus()
{
    return std::max(std::thread::hardware_concurrency(), 1u);
}

unsigned
parseJobsSpec(const std::string &spec, bool &ok)
{
    if (spec == "auto") {
        ok = true;
        return hostCpus();
    }
    // Digits only: strtoul would wrap "-5" to a 1024-worker pool.
    unsigned long v = 0;
    const char *end = spec.data() + spec.size();
    const auto [ptr, ec] = std::from_chars(spec.data(), end, v);
    ok = !spec.empty() && ec == std::errc() && ptr == end;
    return ok ? static_cast<unsigned>(std::min(v, 1024ul)) : 0;
}

namespace knobs
{

namespace
{

enum class Kind
{
    Bool,
    Uint,
    Count,
    Jobs,
    Path,
    Custom
};

/** The accepted grammar of @p kind, as a fatal message quotes it. */
const char *
grammar(Kind kind)
{
    switch (kind) {
      case Kind::Bool:
        return "0 or 1 (unset or empty: the built-in default)";
      case Kind::Uint:
        return "a non-negative decimal integer";
      case Kind::Count:
        return "a positive decimal integer";
      case Kind::Jobs:
        return "a non-negative decimal integer or \"auto\"";
      case Kind::Path:
        return "a path (unset or empty: off)";
      case Kind::Custom:
        return "the knob's list syntax (see README, Environment knobs)";
    }
    return "";
}

[[noreturn]] void
malformed(const char *name, Kind kind, std::string_view value,
          const std::string &why = "")
{
    fatal(name, "='", value, "' is malformed", why.empty() ? "" : " (",
          why, why.empty() ? "" : ")", ": expected ", grammar(kind));
}

bool
parseBool(const char *name, std::string_view value)
{
    if (value != "0" && value != "1")
        malformed(name, Kind::Bool, value);
    return value == "1";
}

std::uint64_t
parseUint(const char *name, Kind kind, std::string_view value,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    // from_chars into an unsigned type takes digits only: no sign,
    // space, base prefix or suffix.
    std::uint64_t v = 0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (value.empty() || ec != std::errc() || ptr != end || v > max)
        malformed(name, kind, value);
    return v;
}

int
parseTraceTarget(const char *name, std::string_view value)
{
    return static_cast<int>(parseUint(
        name, Kind::Uint, value, std::numeric_limits<int>::max()));
}

/** One knob: its name, kind and one-line meaning (README's table),
 *  and how a value is stored once its kind's grammar accepts it. */
struct Entry
{
    const char *name;
    Kind kind;
    const char *meaning;
    /** Store @p value (non-empty unless the kind needs a number). */
    void (*apply)(Settings &s, const char *name, std::string_view value);
};

// clang-format off
constexpr std::array<Entry, 17> entries{{
    {"LOOPSIM_JOBS", Kind::Jobs,
     "campaign worker threads (--jobs wins)",
     [](Settings &s, const char *n, std::string_view v) {
         bool ok = false;
         s.jobs = parseJobsSpec(std::string(v), ok);
         if (!ok)
             malformed(n, Kind::Jobs, v);
     }},
    {"LOOPSIM_BENCH_OPS", Kind::Count,
     "bench binaries' measured ops per run, when no count is given",
     [](Settings &s, const char *n, std::string_view v) {
         s.benchOps = parseUint(n, Kind::Count, v);
         if (s.benchOps == 0)
             malformed(n, Kind::Count, v);
     }},
    {"LOOPSIM_BENCH_JSON", Kind::Path,
     "campaign telemetry file (default BENCH_campaign.json)",
     [](Settings &s, const char *, std::string_view v) {
         s.benchJson = v;
     }},
    {"LOOPSIM_STORE", Kind::Path,
     "persistent result-store directory (--store wins)",
     [](Settings &s, const char *, std::string_view v) { s.store = v; }},
    {"LOOPSIM_JOURNAL", Kind::Path,
     "campaign journal directory (--journal wins)",
     [](Settings &s, const char *, std::string_view v) { s.journal = v; }},
    {"LOOPSIM_ISOLATE", Kind::Bool,
     "run cells in supervised forked workers (--isolate wins)",
     [](Settings &s, const char *n, std::string_view v) {
         s.isolate = parseBool(n, v);
     }},
    {"LOOPSIM_DEADLINE_MS", Kind::Uint,
     "per-cell wall-clock deadline under isolation; 0 = none",
     [](Settings &s, const char *n, std::string_view v) {
         s.deadlineMs = parseUint(n, Kind::Uint, v);
     }},
    {"LOOPSIM_TRACE", Kind::Path,
     "loop-event trace output file (--trace wins)",
     [](Settings &s, const char *, std::string_view v) { s.trace = v; }},
    {"LOOPSIM_PROFILE", Kind::Bool,
     "kernel tick self-profiling (--profile wins)",
     [](Settings &s, const char *n, std::string_view v) {
         s.profile = parseBool(n, v);
     }},
    {"LOOPSIM_DENSE_KERNEL", Kind::Bool,
     "run the dense reference kernel instead of the sparse one",
     [](Settings &s, const char *n, std::string_view v) {
         s.denseKernel = parseBool(n, v);
     }},
    {"LOOPSIM_CHECK", Kind::Bool,
     "structural invariant sweeps (integrity.checks.enable wins)",
     [](Settings &s, const char *n, std::string_view v) {
         s.check = parseBool(n, v);
     }},
    {"LOOPSIM_AUDIT", Kind::Bool,
     "check every FeedbackPort read against its loop delay",
     [](Settings &s, const char *n, std::string_view v) {
         s.audit = parseBool(n, v);
     }},
    {"LOOPSIM_OVERLAY", Kind::Custom,
     "config assignments k=v, comma- or space-separated, over every run",
     [](Settings &s, const char *n, std::string_view v) {
         for (const std::string &chunk : split(std::string(v), ',')) {
             for (const std::string &assign : split(chunk, ' ')) {
                 if (assign.empty())
                     continue;
                 std::string key, value;
                 const std::string why =
                     Config::splitAssignment(assign, key, value);
                 if (!why.empty())
                     malformed(n, Kind::Custom, v, why);
                 s.overlay.set(key, value);
             }
         }
     }},
    {"LOOPSIM_DEBUG", Kind::Custom,
     "debug trace flags, comma-separated (Issue,Squash or All)",
     [](Settings &s, const char *n, std::string_view v) {
         const std::string why =
             debug::parseFlagList(std::string(v), s.debugFlags);
         if (!why.empty())
             malformed(n, Kind::Custom, v, why);
     }},
    {"LOOPSIM_DEBUG_MISS", Kind::Bool,
     "print every DRA operand miss (Dra debug lines)",
     [](Settings &s, const char *n, std::string_view v) {
         s.debugMiss = parseBool(n, v);
     }},
    {"LOOPSIM_TRACE_POOL", Kind::Uint,
     "instruction-pool slot to trace (Pool debug lines)",
     [](Settings &s, const char *n, std::string_view v) {
         s.tracePool = parseTraceTarget(n, v);
     }},
    {"LOOPSIM_TRACE_REG", Kind::Uint,
     "physical register to trace (Reg debug lines)",
     [](Settings &s, const char *n, std::string_view v) {
         s.traceReg = parseTraceTarget(n, v);
     }},
}};
// clang-format on

const Entry *
findEntry(std::string_view name)
{
    for (const Entry &e : entries) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

} // anonymous namespace

Settings
parse(const std::vector<std::string> &environment,
      std::vector<std::string> *unknown)
{
    Settings s;
#ifdef LOOPSIM_DENSE_KERNEL_DEFAULT
    s.denseKernel = true;
#endif
#ifdef LOOPSIM_AUDIT_BUILD
    s.audit = true;
#endif
    for (const std::string &assignment : environment) {
        const std::string_view text(assignment);
        if (text.rfind("LOOPSIM_", 0) != 0)
            continue;
        const std::size_t eq = text.find('=');
        const std::string_view name = text.substr(0, eq);
        const std::string_view value =
            eq == std::string_view::npos ? std::string_view()
                                         : text.substr(eq + 1);
        const Entry *e = findEntry(name);
        if (e == nullptr) {
            if (unknown != nullptr)
                unknown->emplace_back(name);
            continue;
        }
        // Empty is "unset" except where the grammar needs a number.
        const bool needs_value = e->kind == Kind::Uint ||
                                 e->kind == Kind::Count ||
                                 e->kind == Kind::Jobs;
        if (value.empty() && !needs_value)
            continue;
        e->apply(s, e->name, value);
    }
    return s;
}

const Settings &
env()
{
    // A function-local static is initialised exactly once, thread-
    // safely; a throwing initialiser leaves it uninitialised, so every
    // later call fails the same way.
    static const Settings settings = [] {
        std::vector<std::string> environment;
        for (char **e = ::environ; e != nullptr && *e != nullptr; ++e)
            environment.emplace_back(*e);
        std::vector<std::string> unknown;
        Settings s = parse(environment, &unknown);
        for (const std::string &name : unknown) {
            warn(name, " is not a loopsim knob and is ignored (see "
                       "README, Environment knobs)");
        }
        return s;
    }();
    return settings;
}

} // namespace knobs
} // namespace loopsim
