// Regenerates the machine-parameter summary of paper §2.
#include <iostream>

#include "bench_util.hh"
#include "core/machine_config.hh"
#include "harness/experiment.hh"

using namespace loopsim;

namespace
{

int
run(int, char **)
{
    std::cout << "=== Base machine configuration (paper section 2) ===\n";
    Config cfg = defaultFigureConfig();
    MachineConfig::fromConfig(cfg).print(std::cout);
    std::cout << "\n=== DRA machine (3-cycle register file) ===\n";
    Config dra_cfg = defaultFigureConfig();
    setDraPipeline(dra_cfg, 3);
    MachineConfig::fromConfig(dra_cfg).print(std::cout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchutil::guardedMain(run, argc, argv);
}
