// Regenerates Figure 4 of "Loose Loops Sink Chips" (HPCA 2002).
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
    benchutil::CampaignRecorder record("fig4_pipeline_length", ops,
                                       argc, argv);
    FigureData fig = figure4(ops);
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
