// Fault-injection campaign: re-measures a representative workload set
// under each transient fault kind (and a fault-free control column),
// proving the recovery paths converge and quantifying their cost. A
// final column wedges the machine on purpose (permanent wakeup drop)
// to demonstrate the fail-soft path: the point comes back as "fail"
// with a watchdog diagnostic in the footer, and the campaign still
// completes.
#include <iostream>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

namespace
{

Config
faulted(const char *key, double rate)
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setDouble(key, rate);
    return cfg;
}

int
run(int argc, char **argv)
{
    auto ops = benchutil::benchOps(argc, argv, 100000);
    benchutil::CampaignRecorder record("fault_campaign", ops, argc, argv);
    auto w = benchutil::ablationWorkloads();

    Config wedge = faulted("integrity.fault.wakeup_drop", 1.0);
    wedge.setUint("integrity.watchdog.window", 20000);
    wedge.setUint("integrity.retry.attempts", 1);

    std::vector<std::pair<std::string, Config>> configs = {
        {"control", Config{}},
        {"wakeup-delay", faulted("integrity.fault.wakeup_delay", 0.01)},
        {"load-delay", faulted("integrity.fault.load_delay", 0.01)},
        {"branch-flip", faulted("integrity.fault.branch_corrupt", 0.005)},
        {"port-stall", faulted("integrity.fault.port_stall", 0.01)},
        {"wakeup-drop", wedge},
    };

    FigureData fig = sweepConfigs(
        "Fault-injection campaign: IPC under transient faults "
        "(wakeup-drop is a deliberate permanent wedge)",
        w, configs, ops);

    if (benchutil::wantCsv(argc, argv))
        printCsv(std::cout, fig);
    else
        printFigure(std::cout, fig, ValueFormat::Ratio);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchutil::guardedMain(run, argc, argv);
}
