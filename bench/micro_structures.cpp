/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot structures:
 * predictors, caches, CRC CAM lookups, the IQ select scan, and whole-
 * core simulation throughput. These measure the *simulator*, not the
 * simulated machine; use them when optimising loopsim itself.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "base/random.hh"
#include "bench_util.hh"
#include "branch/bimodal.hh"
#include "branch/gshare.hh"
#include "branch/tournament.hh"
#include "core/core.hh"
#include "dra/crc.hh"
#include "mem/cache.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace loopsim;

namespace
{

void
BM_Pcg32(benchmark::State &state)
{
    Pcg32 rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Pcg32);

void
BM_BimodalPredict(benchmark::State &state)
{
    BimodalPredictor pred(4096);
    Pcg32 rng(1);
    Addr pc = 0x1000;
    for (auto _ : state) {
        bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(pred.predict(pc, 0));
        pred.update(pc, 0, taken);
        pc = 0x1000 + (rng.next() & 0xfff);
    }
}
BENCHMARK(BM_BimodalPredict);

void
BM_GsharePredict(benchmark::State &state)
{
    GsharePredictor pred(16384, 12);
    Pcg32 rng(1);
    Addr pc = 0x1000;
    for (auto _ : state) {
        bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(pred.predict(pc, 0));
        pred.update(pc, 0, taken);
        pc = 0x1000 + (rng.next() & 0xfff);
    }
}
BENCHMARK(BM_GsharePredict);

void
BM_TournamentPredict(benchmark::State &state)
{
    TournamentPredictor pred;
    Pcg32 rng(1);
    Addr pc = 0x1000;
    for (auto _ : state) {
        bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(pred.predict(pc, 0));
        pred.update(pc, 0, taken);
        pc = 0x1000 + (rng.next() & 0xfff);
    }
}
BENCHMARK(BM_TournamentPredict);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(64 * 1024, 2, 64);
    Pcg32 rng(7);
    for (auto _ : state) {
        Addr a = (rng.next() & 0x3ffff);
        benchmark::DoNotOptimize(cache.access(a));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_CrcLookup(benchmark::State &state)
{
    ClusterRegisterCache crc(static_cast<unsigned>(state.range(0)),
                             CrcRepl::Fifo);
    Pcg32 rng(7);
    for (unsigned r = 0; r < state.range(0); ++r)
        crc.insert(static_cast<PhysReg>(r));
    for (auto _ : state) {
        PhysReg r = static_cast<PhysReg>(rng.nextBounded(64));
        benchmark::DoNotOptimize(crc.lookup(r));
    }
}
BENCHMARK(BM_CrcLookup)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void
BM_TraceGeneration(benchmark::State &state)
{
    SyntheticTraceGenerator gen(spec95Profile("gcc"), 0,
                                1ULL << 40);
    MicroOp op;
    for (auto _ : state) {
        gen.next(op);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_TraceGeneration);

/** Whole-core simulation rate in simulated instructions per second. */
void
BM_CoreSimulationRate(benchmark::State &state)
{
    bool dra = state.range(0) != 0;
    std::uint64_t total = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Config cfg;
        if (dra)
            cfg.setBool("dra.enable", true);
        auto gen = std::make_unique<SyntheticTraceGenerator>(
            spec95Profile("swim"), 0, 20000);
        std::vector<TraceSource *> srcs{gen.get()};
        Core core(cfg, srcs);
        Simulator sim;
        sim.add(&core);
        state.ResumeTiming();

        sim.run(10000000);
        total += core.retiredOps();
    }
    state.counters["ops_per_sec"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreSimulationRate)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

int
run(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchutil::guardedMain(run, argc, argv);
}
