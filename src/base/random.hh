/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (synthetic workloads, random
 * replacement, tie-breaking) draws from Pcg32 streams seeded explicitly,
 * so a run is exactly reproducible from its configuration.
 */

#ifndef LOOPSIM_BASE_RANDOM_HH
#define LOOPSIM_BASE_RANDOM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace loopsim
{

/**
 * PCG32 generator (O'Neill 2014, pcg32_random_r). Small, fast, and of far
 * better statistical quality than an LCG; a single 64-bit state plus a
 * stream-selection constant.
 */
class Pcg32
{
  public:
    using result_type = std::uint32_t;

    /** Construct a generator for @p seed on stream @p stream. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit output. */
    std::uint32_t next();

    std::uint32_t operator()() { return next(); }

    static constexpr std::uint32_t min() { return 0; }
    static constexpr std::uint32_t max() { return 0xffffffffu; }

    /** Uniform integer in [0, bound) with Lemire rejection (unbiased). */
    std::uint32_t nextBounded(std::uint32_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw: true with probability @p p (clamped to [0,1]). */
    bool chance(double p);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /**
     * Geometric-ish draw: number of failures before a success with
     * success probability @p p, capped at @p cap.
     */
    std::uint32_t geometric(double p, std::uint32_t cap);

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

/**
 * A discrete distribution over arbitrary weights.
 *
 * sample() returns exactly what a binary search of the cumulative
 * weights would for the same single draw — the first index whose
 * cumulative weight exceeds next() * 2^-32 * total, clamped to the
 * last index — in O(1): that result is monotone in the 32-bit draw, so
 * construction finds, per index i, the smallest draw whose result
 * exceeds i, and sample() starts from a 256-entry guide table on the
 * draw's top byte and scans forward over those thresholds (DESIGN.md
 * §14 "Exact O(1) op-mix sampling").
 */
class DiscreteDistribution
{
  public:
    DiscreteDistribution() = default;

    /** Build from (possibly unnormalised) non-negative weights. */
    explicit DiscreteDistribution(const std::vector<double> &weights);

    /** Sample an index in [0, size()) with one rng.next(). */
    std::size_t sample(Pcg32 &rng) const { return indexOf(rng.next()); }

    /** The index sample() returns when the generator draws @p draw. */
    std::size_t
    indexOf(std::uint32_t draw) const
    {
        panic_if(threshold.empty(), "sampling an empty distribution");
        std::size_t i = guide[draw >> 24];
        while (draw >= threshold[i])
            ++i;
        return i;
    }

    std::size_t size() const { return threshold.size(); }
    bool empty() const { return threshold.empty(); }

  private:
    /** threshold[i]: the smallest draw that samples an index > i; the
     *  last entry is 2^32, above every draw, and ends the scan. */
    std::vector<std::uint64_t> threshold;
    /** guide[h]: the index sampled by draw h << 24, the smallest draw
     *  with top byte h. */
    std::array<std::uint32_t, 256> guide{};
};

} // namespace loopsim

#endif // LOOPSIM_BASE_RANDOM_HH
