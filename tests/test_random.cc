/**
 * @file
 * Unit tests for util/random.hh: determinism, range correctness and
 * coarse distribution sanity — the whole simulator's reproducibility
 * rests on this generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "trace/benchmarks.hh"
#include "util/random.hh"

namespace rampage
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull,
                                1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UnitInHalfOpenInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.unit();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    // Mean of U(0,1) is 0.5; 10k samples => stddev ~0.003.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-1.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
}

TEST(Rng, ChanceRate)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.chance(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SkewedBelowRange)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.skewedBelow(1000, 0.1, 0.9), 1000u);
}

TEST(Rng, SkewedBelowConcentratesInHotRegion)
{
    Rng rng(29);
    const std::uint64_t bound = 10000;
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.skewedBelow(bound, 0.1, 0.9) < bound / 10)
            ++hot;
    // ~0.9 + 0.1*0.1 = 91 % of draws land in the hot tenth.
    EXPECT_GT(static_cast<double>(hot) / n, 0.85);
}

/** The 53-bit draw behind unit(), as unit() scales it. */
double
unitOf(std::uint64_t x)
{
    return static_cast<double>(x) * 0x1.0p-53;
}

/**
 * The edge probabilities, the synthetic generator's fixed odds and
 * every probability a roster profile sets, deduplicated.
 */
std::set<double>
oddsUnderTest()
{
    std::set<double> ps = {0.0,  0x1.0p-53, 0.0005,
                           0.15, 0.5,       0.995,
                           std::nextafter(1.0, 0.0), 1.0,
                           0.99, 0.95}; // synthetic.cc's fixed odds
    for (const ProgramProfile &p : benchmarkRoster()) {
        ps.insert({p.branchTakenRate, p.hotCodeProb, p.dataPerInstr,
                   p.storeFraction, p.stackFraction, p.globalFraction,
                   p.streamFraction, p.hotDataProb, p.hotJumpProb,
                   p.coldJumpProb, p.globalJumpProb});
    }
    return ps;
}

TEST(Odds, AgreesWithChanceDrawForDraw)
{
    // The integer form makes the same draws with the same outcomes,
    // so it leaves the generator in the same state.
    for (double p : oddsUnderTest()) {
        Rng by_double(37), by_odds(37);
        const Odds odds(p);
        std::uint64_t mismatches = 0, hits = 0;
        for (int i = 0; i < 1000000; ++i) {
            bool want = by_double.chance(p);
            hits += want;
            mismatches += want != by_odds.chance(odds);
        }
        EXPECT_EQ(mismatches, 0u) << "p = " << p;
        EXPECT_TRUE(by_double == by_odds) << "p = " << p;
        if (p > 0.0 && p < 1.0) {
            EXPECT_NEAR(static_cast<double>(hits) / 1e6, p, 0.01);
        }
    }
}

TEST(Odds, CutIsExactAtItsEdge)
{
    // unit() < p exactly when the draw is below the cut, checked on
    // the draws either side of it.
    for (double p : oddsUnderTest()) {
        const std::uint64_t cut = UnitCut::below(p);
        ASSERT_LE(cut, UnitCut::one);
        for (std::uint64_t x = cut >= 2 ? cut - 2 : 0;
             x <= cut + 2 && x < UnitCut::one; ++x)
            EXPECT_EQ(unitOf(x) < p, x < cut) << "p = " << p << " x " << x;
    }
}

/** Region of draw `x` by the float chain the two cuts stand for. */
int
floatRegion(std::uint64_t x, double a, double b)
{
    double region = unitOf(x);
    if (region < a)
        return 0;
    region -= a;
    return region < b ? 1 : 2;
}

TEST(UnitCut, RegionCutsMatchFloatChain)
{
    // Every roster split, plus edge splits; each cut is checked on the
    // draws either side of it.
    std::set<std::pair<double, double>> splits;
    for (const ProgramProfile &p : benchmarkRoster())
        splits.insert({p.stackFraction, p.globalFraction});
    const double edges[] = {0.0, 0x1.0p-53, 0.15, 0.35, 0.5,
                            std::nextafter(1.0, 0.0), 1.0};
    for (double a : edges)
        for (double b : edges)
            splits.insert({a, b});

    for (const auto &[a, b] : splits) {
        const std::uint64_t first = UnitCut::below(a);
        const std::uint64_t second = UnitCut::afterSubtract(a, b);
        ASSERT_LE(first, second) << a << " " << b;
        ASSERT_LE(second, UnitCut::one) << a << " " << b;
        for (std::uint64_t cut : {first, second}) {
            for (std::uint64_t x = cut >= 2 ? cut - 2 : 0;
                 x <= cut + 2 && x < UnitCut::one; ++x) {
                int by_cut = x < first ? 0 : x < second ? 1 : 2;
                EXPECT_EQ(by_cut, floatRegion(x, a, b))
                    << "a = " << a << " b = " << b << " x = " << x;
            }
        }
    }
}

TEST(UnitCut, RegionCutsMatchFloatChainOnDraws)
{
    for (const ProgramProfile &p : benchmarkRoster()) {
        const double a = p.stackFraction, b = p.globalFraction;
        const std::uint64_t first = UnitCut::below(a);
        const std::uint64_t second = UnitCut::afterSubtract(a, b);
        Rng rng(p.seed);
        std::uint64_t mismatches = 0;
        for (int i = 0; i < 100000; ++i) {
            std::uint64_t x = rng.next() >> 11;
            int by_cut = x < first ? 0 : x < second ? 1 : 2;
            mismatches += by_cut != floatRegion(x, a, b);
        }
        EXPECT_EQ(mismatches, 0u) << p.name;
    }
}

} // namespace
} // namespace rampage
