// DRA design-space ablations (DESIGN.md section 5): CRC capacity and
// replacement, insertion-table width, forwarding-buffer depth.
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
    benchutil::CampaignRecorder record("ablation_dra", ops, argc, argv);
    auto w = benchutil::ablationWorkloads();
    printFigure(std::cout, ablationCrcSize(ops, w));
    printFigure(std::cout, ablationCrcRepl(ops, w), ValueFormat::Percent);
    printFigure(std::cout, ablationInsertionBits(ops, w),
                ValueFormat::Percent);
    printFigure(std::cout, ablationFwdDepth(ops, w));
    printFigure(std::cout, ablationCrcTimeout(ops, w),
                ValueFormat::Percent);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchutil::guardedMain(run, argc, argv);
}
