// Regenerates Figure 6: CDF of cycles between operand availability.
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
    auto ops = benchutil::benchOps(argc, argv);
    benchutil::CampaignRecorder record("fig6_operand_gap_cdf", ops,
                                       argc, argv);
    // The paper plots turb3d and notes other benchmarks look similar;
    // print a second benchmark to substantiate that claim.
    FigureData fig = figure6(ops, {"turb3d", "swim"});
    if (benchutil::wantCsv(argc, argv))
        printCsv(std::cout, fig);
    else
        printFigure(std::cout, fig);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchutil::guardedMain(run, argc, argv);
}
