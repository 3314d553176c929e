/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (random cache/TLB
 * replacement, synthetic trace generation) draws from an explicitly
 * seeded Rng instance so that runs are bit-reproducible. std::mt19937
 * is avoided because its heavy state makes per-object generators
 * wasteful; this is the xoshiro256** generator seeded via splitmix64.
 */

#ifndef RAMPAGE_UTIL_RANDOM_HH
#define RAMPAGE_UTIL_RANDOM_HH

#include <algorithm>
#include <cstdint>

#include "util/error.hh"

namespace rampage
{

/**
 * Integer cut points on the 53-bit draw behind Rng::unit().  unit()
 * is x·2^-53 for x = next() >> 11, so a comparison of unit() against
 * a fixed double is a comparison of x against an integer, and a hot
 * loop can make it without converting the draw to floating point.
 */
struct UnitCut
{
    /** One past the largest 53-bit draw. */
    static constexpr std::uint64_t one = std::uint64_t{1} << 53;

    /**
     * The least x with x·2^-53 >= p, clamped to [0, one]:
     * `unit() < p` holds exactly when `(next() >> 11) < below(p)`.
     * p·2^53 is exact, and for an integer x, x < r iff x < ceil(r).
     */
    static constexpr std::uint64_t
    below(double p)
    {
        RAMPAGE_ASSERT(p == p, "UnitCut::below(NaN)");
        if (p <= 0.0)
            return 0;
        if (p >= 1.0)
            return one;
        const double r = p * 0x1.0p53;
        const auto floor_r = static_cast<std::uint64_t>(r);
        return static_cast<double>(floor_r) < r ? floor_r + 1 : floor_r;
    }

    /**
     * The second cut of the chain `u = unit(); if (u < a) ...;
     * u -= a; if (u < b) ...`: the least x >= below(a) with
     * fl(x·2^-53 - a) >= b, or `one` if there is none, so that the
     * second branch is taken exactly when below(a) <= x < the cut.
     * The rounded subtraction is monotone in x, and the exact cut
     * below(a + b) is within a few units of it, so a short walk from
     * there finds it.
     */
    static constexpr std::uint64_t
    afterSubtract(double a, double b)
    {
        const std::uint64_t lo = below(a);
        auto past = [a, b](std::uint64_t x) {
            return static_cast<double>(x) * 0x1.0p-53 - a >= b;
        };
        std::uint64_t x = std::max(below(a + b), lo);
        while (x > lo && past(x - 1))
            --x;
        while (x < one && !past(x))
            ++x;
        return x;
    }
};

/**
 * A fixed probability, as the UnitCut of its draw: Rng::chance(Odds)
 * makes the same draws as Rng::chance(double) with the same outcomes,
 * with no floating point per draw.
 */
struct Odds
{
    /** Draws below this succeed; 0 never and UnitCut::one always
     *  succeed, and neither draws (chance() clamps p the same way). */
    std::uint64_t cut = 0;

    constexpr Odds() = default;
    constexpr explicit Odds(double p) : cut(UnitCut::below(p)) {}
};

/**
 * Small, fast, seedable PRNG (xoshiro256**).
 *
 * Statistically strong enough for replacement-policy and workload
 * randomness while being a few instructions per draw.
 */
class Rng
{
  public:
    /** Seed deterministically; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    // The draw methods are defined inline: synthetic trace
    // generation makes tens of millions of draws per simulated
    // second, and the per-call overhead of out-of-line definitions
    // was visible in profiles.

    /** @return a uniformly distributed 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /**
     * @return a uniform integer in [0, bound); bound must be nonzero.
     * Uses Lemire's multiply-shift rejection-free mapping (the tiny
     * modulo bias is irrelevant at simulator scales).
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        RAMPAGE_ASSERT(bound != 0, "Rng::below requires a nonzero bound");
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** @return a uniform double in [0, 1). */
    double
    unit()
    {
        // 53 high bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability p (clamped to [0, 1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return unit() < p;
    }

    /** chance(p) for the p `odds` was built from, float-free. */
    bool
    chance(Odds odds)
    {
        if (odds.cut == 0)
            return false;
        if (odds.cut >= UnitCut::one)
            return true;
        return (next() >> 11) < odds.cut;
    }

    /**
     * @return a sample from a bounded geometric-ish distribution in
     * [0, bound), biased toward 0 with the given mean fraction; used
     * for temporally-skewed working set sampling.
     */
    std::uint64_t
    skewedBelow(std::uint64_t bound, double hot_fraction,
                double hot_probability)
    {
        RAMPAGE_ASSERT(bound != 0, "skewedBelow requires a nonzero bound");
        std::uint64_t hot = static_cast<std::uint64_t>(
            static_cast<double>(bound) * hot_fraction);
        if (hot == 0)
            hot = 1;
        return skewedBelowCached(bound, hot, Odds(hot_probability));
    }

    /**
     * skewedBelow() with the hot span and the odds precomputed by
     * the caller — identical draw sequence (the short-circuit on
     * hot >= bound skips the probability draw exactly as skewedBelow
     * does).  The synthetic trace generators cache both per profile,
     * so their hot loop does no floating point.
     */
    std::uint64_t
    skewedBelowCached(std::uint64_t bound, std::uint64_t hot,
                      Odds hot_probability)
    {
        RAMPAGE_ASSERT(bound != 0,
                       "skewedBelowCached requires a nonzero bound");
        if (hot >= bound || !chance(hot_probability))
            return below(bound);
        return below(hot);
    }

    /** Same state: the two generators draw the same stream. */
    bool operator==(const Rng &) const = default;

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace rampage

#endif // RAMPAGE_UTIL_RANDOM_HH
