// Load mis-speculation recovery ablations (paper section 2.2.2):
// reissue vs refetch vs stall, and dependence-tree vs shadow kills.
#include <iostream>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

namespace
{

int
run(int argc, char **argv)
{
    auto ops = benchutil::benchOps(argc, argv, 100000);
    benchutil::CampaignRecorder record("ablation_recovery", ops,
                                       argc, argv);
    auto w = benchutil::ablationWorkloads();
    printFigure(std::cout, ablationLoadRecovery(ops, w));
    printFigure(std::cout, ablationKillShadow(ops, w));
    printFigure(std::cout, ablationMemDep(ops, w));
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchutil::guardedMain(run, argc, argv);
}
