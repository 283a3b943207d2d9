/**
 * @file
 * Loop-event trace layer: sinks, the process-wide collector, and the
 * LOOPSIM_TRACE knob. See loop_trace.hh for the design overview.
 */

#include "trace/loop_trace.hh"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "base/annotations.hh"
#include "base/knobs.hh"

namespace loopsim::trace
{

const char *
loopKindName(LoopKind kind)
{
    switch (kind) {
      case LoopKind::Branch: return "branch-loop";
      case LoopKind::Load: return "load-loop";
      case LoopKind::Operand: return "operand-loop";
    }
    return "unknown-loop";
}

const char *
loopEventName(LoopEventType type)
{
    switch (type) {
      case LoopEventType::BranchResolution: return "branch-resolution";
      case LoopEventType::LoadKill: return "load-kill";
      case LoopEventType::TlbTrap: return "tlb-trap";
      case LoopEventType::OrderTrap: return "order-trap";
      case LoopEventType::OperandKill: return "operand-kill";
      case LoopEventType::OperandPayload: return "operand-payload";
    }
    return "unknown-event";
}

LoopKind
loopKindOf(LoopEventType type)
{
    switch (type) {
      case LoopEventType::BranchResolution:
        return LoopKind::Branch;
      case LoopEventType::LoadKill:
      case LoopEventType::TlbTrap:
      case LoopEventType::OrderTrap:
        return LoopKind::Load;
      case LoopEventType::OperandKill:
      case LoopEventType::OperandPayload:
        return LoopKind::Operand;
    }
    return LoopKind::Branch;
}

namespace
{

/** JSON string escaping for run labels (workload names are tame, but
 *  a quote or backslash must not corrupt the file). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

/** CSV fields are quoted iff they contain a comma or quote. */
std::string
csvField(const std::string &s)
{
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

} // anonymous namespace

void
ChromeTraceSink::begin()
{
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    nextPid = 0;
    firstEvent = true;
}

void
ChromeTraceSink::run(const RunTrace &run)
{
    const int pid = nextPid++;
    auto emit = [&](const std::string &json) {
        if (!firstEvent)
            out << ",";
        firstEvent = false;
        out << "\n" << json;
    };

    // Metadata: name the "process" after the run, and one named
    // "thread" (track) per loop kind so Perfetto groups events by
    // loop rather than by SMT thread.
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
         jsonEscape(run.label) + "\"}}");
    for (int kind = 0; kind < 3; ++kind) {
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(kind) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
             std::string(loopKindName(static_cast<LoopKind>(kind))) +
             "\"}}");
    }

    // Complete ("X") spans: ts = write cycle, dur = loop delay, so
    // the span visually covers the feedback's time in flight and its
    // right edge is the consume cycle. All integers -> byte-stable.
    for (const LoopEvent &ev : run.events) {
        const auto kind = static_cast<int>(loopKindOf(ev.type));
        emit("{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(kind) + ",\"name\":\"" +
             loopEventName(ev.type) +
             "\",\"cat\":\"" +
             loopKindName(loopKindOf(ev.type)) +
             "\",\"ts\":" + std::to_string(ev.writeCycle) +
             ",\"dur\":" + std::to_string(ev.loopDelay) +
             ",\"args\":{\"write_cycle\":" +
             std::to_string(ev.writeCycle) +
             ",\"loop_delay\":" + std::to_string(ev.loopDelay) +
             ",\"consume_cycle\":" + std::to_string(ev.consumeCycle) +
             ",\"tid\":" + std::to_string(ev.tid) +
             ",\"fetch_stamp\":" + std::to_string(ev.fetchStamp) +
             "}}");
    }
}

void
ChromeTraceSink::end()
{
    out << "\n]}\n";
}

void
CsvTraceSink::begin()
{
    out << "run,label,loop,event,tid,write_cycle,loop_delay,"
           "consume_cycle,fetch_stamp\n";
    nextRun = 0;
}

void
CsvTraceSink::run(const RunTrace &run)
{
    const int idx = nextRun++;
    for (const LoopEvent &ev : run.events) {
        out << idx << ',' << csvField(run.label) << ','
            << loopKindName(loopKindOf(ev.type)) << ','
            << loopEventName(ev.type) << ','
            << static_cast<unsigned>(ev.tid) << ','
            << ev.writeCycle << ',' << ev.loopDelay << ','
            << ev.consumeCycle << ',' << ev.fetchStamp << '\n';
    }
}

void
writeTrace(TraceSink &sink, const std::vector<RunTrace> &runs)
{
    sink.begin();
    for (const RunTrace &run : runs)
        sink.run(run);
    sink.end();
}

bool
writeTraceFile(const std::string &path,
               const std::vector<RunTrace> &runs)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv) {
        CsvTraceSink sink(out);
        writeTrace(sink, runs);
    } else {
        ChromeTraceSink sink(out);
        writeTrace(sink, runs);
    }
    return static_cast<bool>(out);
}

namespace
{

/** Trace path state: env default, overridable by --trace. Guarded by
 *  pathMutex because bench binaries set it before spawning workers,
 *  but tests may toggle it around campaigns. */
std::mutex pathMutex;

std::string &
pathStorage()
{
    LOOPSIM_CAMPAIGN_GUARDED("pathMutex; latched before workers spawn")
    static std::string path = knobs::env().trace;
    return path;
}

/** Collection gate: relaxed atomic, read by every Core constructor. */
std::atomic<bool> collectFlag{false};
std::atomic<bool> collectInitialized{false};

/** Collected run traces, appended in plan order by the campaign
 *  executor. loop:exempt(host-side trace buffer; never feeds
 *  simulated time) */
std::mutex collectMutex;

std::vector<RunTrace> &
collected()
{
    LOOPSIM_CAMPAIGN_GUARDED("collectMutex; appended in plan order")
    static std::vector<RunTrace> runs;
    return runs;
}

} // anonymous namespace

std::string
tracePath()
{
    std::lock_guard<std::mutex> lock(pathMutex);
    return pathStorage();
}

void
setTracePath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(pathMutex);
    pathStorage() = path;
}

bool
collectionActive()
{
    if (!collectInitialized.load(std::memory_order_acquire)) {
        // First query decides the default from LOOPSIM_TRACE; benign
        // race — both racers compute the same value.
        collectFlag.store(!tracePath().empty(),
                          std::memory_order_relaxed);
        collectInitialized.store(true, std::memory_order_release);
    }
    return collectFlag.load(std::memory_order_relaxed);
}

void
setCollection(bool on)
{
    collectInitialized.store(true, std::memory_order_release);
    collectFlag.store(on, std::memory_order_relaxed);
}

void
collectRun(RunTrace run)
{
    std::lock_guard<std::mutex> lock(collectMutex);
    collected().push_back(std::move(run));
}

std::vector<RunTrace>
takeCollectedRuns()
{
    std::lock_guard<std::mutex> lock(collectMutex);
    return std::exchange(collected(), {});
}

std::size_t
collectedRunCount()
{
    std::lock_guard<std::mutex> lock(collectMutex);
    return collected().size();
}

} // namespace loopsim::trace
