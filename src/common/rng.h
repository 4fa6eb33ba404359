/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the repository (mask generation, sensor
 * noise, synthetic eye sampling, weight initialization) draws from an
 * explicitly seeded Rng so that tests and benchmark tables are
 * reproducible bit-for-bit across runs.
 */

#ifndef EYECOD_COMMON_RNG_H
#define EYECOD_COMMON_RNG_H

#include <cstddef>
#include <cstdint>
#include <random>

#include "common/status.h"

namespace eyecod {

/**
 * A seeded pseudo-random source wrapping std::mt19937_64 with the
 * handful of distributions the project needs.
 */
class Rng
{
  public:
    /** Construct with an explicit seed. */
    explicit Rng(uint64_t seed = 0x5eed) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
    }

    /** Gaussian with the given mean and standard deviation. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /** Poisson draw with the given mean (used for shot noise). */
    int64_t
    poisson(double mean)
    {
        return std::poisson_distribution<int64_t>(mean)(engine_);
    }

    /** Access the underlying engine (e.g. for std::shuffle). */
    std::mt19937_64 &engine() { return engine_; }

    /**
     * Snapshot field list: the engine's stream position as its
     * standard decimal text (one word per token, stable across
     * platforms), so a restored stream continues from the exact draw.
     */
    template <class Ar>
    Status
    fields(Ar &ar)
    {
        ar.text(engine_, kMaxStateChars);
        return ar.status();
    }

  private:
    /** mt19937_64 state text is ~6.3 KB; bound reads generously. */
    static constexpr size_t kMaxStateChars = 1u << 15;

    std::mt19937_64 engine_;
};

} // namespace eyecod

#endif // EYECOD_COMMON_RNG_H
