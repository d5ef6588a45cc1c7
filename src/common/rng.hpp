/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every randomized component in the library (workload generators, the
 * interleavers, property tests) draws from this splitmix64/xoshiro256**
 * generator so that runs are reproducible from a single seed, independent
 * of the platform's std::mt19937 implementation details.
 */

#ifndef BUTTERFLY_COMMON_RNG_HPP
#define BUTTERFLY_COMMON_RNG_HPP

#include <cstdint>

#include "common/logging.hpp"

namespace bfly {

/** xoshiro256** seeded via splitmix64; deterministic across platforms. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 expansion of the seed into the 4-word state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        ensure(bound > 0, "Rng::below bound must be positive");
        // Rejection-free Lemire reduction is overkill here; modulo bias is
        // negligible for the bounds we use (all << 2^64). A power-of-two
        // bound masks, which is the same value as the modulo.
        const std::uint64_t x = next();
        if ((bound & (bound - 1)) == 0)
            return x & (bound - 1);
        return x % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        ensure(lo <= hi, "Rng::range requires lo <= hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace bfly

#endif // BUTTERFLY_COMMON_RNG_HPP
