#include "integrity/watchdog.hh"

#include <algorithm>
#include <sstream>

#include "base/knobs.hh"
#include "base/logging.hh"
#include "sim/config.hh"

namespace loopsim
{

WatchdogConfig
WatchdogConfig::fromConfig(const Config &cfg)
{
    WatchdogConfig wc;
    wc.window = cfg.getUint("integrity.watchdog.window", wc.window);
    wc.historyDepth = static_cast<unsigned>(
        cfg.getUint("integrity.watchdog.history", wc.historyDepth));
    wc.structuralChecks =
        cfg.getBool("integrity.checks.enable", knobs::env().check);
    wc.checkInterval =
        cfg.getUint("integrity.checks.interval", wc.checkInterval);
    fatal_if(wc.window == 0, "integrity.watchdog.window must be > 0");
    fatal_if(wc.historyDepth == 0,
             "integrity.watchdog.history must be > 0");
    fatal_if(wc.checkInterval == 0,
             "integrity.checks.interval must be > 0");
    return wc;
}

std::string
WatchdogReport::format() const
{
    std::ostringstream os;
    os << "watchdog: " << component << " made no retire progress for "
       << (now - lastProgressCycle) << " cycles (window " << window
       << ", cycle " << now << ", last retire @ " << lastProgressCycle
       << ")\n";
    os << "  suspected stall: " << culprit << "\n";
    for (const auto &v : violations)
        os << "  invariant violated: " << v << "\n";
    if (!timeline.empty()) {
        os << "  timeline (cycle retired issued inflight iq pipe "
              "events frontend):\n";
        for (const IntegritySample &s : timeline) {
            os << "    " << s.cycle << " " << s.retired << " "
               << s.issued << " " << s.inFlight << "/"
               << s.windowCapacity << " " << s.iqOccupancy << "/"
               << s.iqCapacity << " " << s.renamePipe << " "
               << s.pendingEvents << " " << s.frontendWork << "\n";
        }
    }
    if (!stateDump.empty())
        os << stateDump;
    return os.str();
}

InvariantWatchdog::InvariantWatchdog(const IntegrityProbe &integrity_probe,
                                     const WatchdogConfig &config)
    : probe(integrity_probe), cfg(config)
{
    // Spread the kept history across the whole stall window so the
    // report shows the onset of the wedge, not just its last cycles.
    sampleEvery = std::max<Cycle>(1, cfg.window / cfg.historyDepth);
}

std::string
InvariantWatchdog::analyzeCulprit(const IntegritySample &s)
{
    std::ostringstream os;
    if (s.inFlight == 0 && s.iqOccupancy == 0) {
        os << "no instructions in flight: front end wedged ("
           << s.frontendWork << " ops in fetch/replay, " << s.renamePipe
           << " in the DEC-IQ pipe)";
    } else if (s.iqOccupancy > 0 && s.pendingEvents == 0) {
        os << "IQ holds " << s.iqOccupancy
           << " instructions with no loop events in flight: lost "
              "wakeup or feedback signal";
    } else if (s.iqCapacity > 0 && s.iqOccupancy >= s.iqCapacity) {
        os << "IQ full (" << s.iqOccupancy << "/" << s.iqCapacity
           << "): capacity-pressure deadlock";
    } else if (s.windowCapacity > 0 && s.inFlight >= s.windowCapacity) {
        os << "in-flight window full (" << s.inFlight << "/"
           << s.windowCapacity << "): retire blocked at the ROB head";
    } else if (s.iqOccupancy == 0 && s.inFlight > 0) {
        os << s.inFlight << " instructions in flight but none in the "
           << "IQ: rename/insert path wedged";
    } else {
        os << "ROB head blocked: " << s.inFlight
           << " in flight, IQ " << s.iqOccupancy << ", "
           << s.pendingEvents << " events outstanding";
    }
    return os.str();
}

WatchdogReport
InvariantWatchdog::buildReport(Cycle now,
                               std::vector<std::string> violations) const
{
    WatchdogReport rep;
    rep.component = probe.probeName();
    rep.now = now;
    rep.lastProgressCycle = lastProgress;
    rep.window = cfg.window;
    rep.violations = std::move(violations);
    rep.timeline.assign(timeline.begin(), timeline.end());
    IntegritySample latest =
        timeline.empty() ? probe.integritySample(now) : timeline.back();
    rep.culprit = analyzeCulprit(latest);
    std::ostringstream os;
    probe.dumpState(os);
    rep.stateDump = os.str();
    return rep;
}

Cycle
InvariantWatchdog::nextActivity(Cycle now) const
{
    if (!sawSample)
        return now; // never sampled: establish the progress baseline
    auto next_multiple = [](Cycle at, Cycle step) {
        return ((at + step - 1) / step) * step;
    };
    Cycle wake = next_multiple(now, sampleEvery);
    if (cfg.structuralChecks)
        wake = std::min(wake, next_multiple(now, cfg.checkInterval));
    // The wedge deadline: the first cycle the no-progress window can
    // expire. If progress happens before then, it happens at a wheel
    // cycle and this is recomputed.
    wake = std::min(wake, lastProgress + cfg.window);
    return std::max(wake, now);
}

void
InvariantWatchdog::tick(Cycle now)
{
    IntegritySample s = probe.integritySample(now);

    if (!sawSample || s.retired != lastRetired || s.done) {
        sawSample = true;
        lastRetired = s.retired;
        lastProgress = now;
    }

    if (now % sampleEvery == 0 || now - lastProgress >= cfg.window) {
        timeline.push_back(s);
        while (timeline.size() > cfg.historyDepth)
            timeline.pop_front();
    }

    if (cfg.structuralChecks && now % cfg.checkInterval == 0) {
        std::vector<std::string> violations =
            probe.structuralViolations();
        if (!violations.empty())
            throw WatchdogError(buildReport(now, std::move(violations)));
    }

    if (!s.done && now - lastProgress >= cfg.window)
        throw WatchdogError(buildReport(now, {}));
}

} // namespace loopsim
