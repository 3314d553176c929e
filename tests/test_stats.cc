/**
 * @file
 * Unit tests for the stats package: histograms, table rendering and
 * the per-level time breakdown.
 */

#include <gtest/gtest.h>

#include "stats/histogram.hh"
#include "stats/table.hh"
#include "stats/time_breakdown.hh"

namespace rampage
{
namespace
{

TEST(Log2Histogram, BucketsAndTotals)
{
    Log2Histogram hist;
    hist.add(0);
    hist.add(1);
    hist.add(2);
    hist.add(3);
    hist.add(1024, 5);

    EXPECT_EQ(hist.samples(), 9u);
    EXPECT_EQ(hist.sum(), 0u + 1 + 2 + 3 + 5 * 1024);
    EXPECT_EQ(hist.bucketFor(0), 2u);  // 0 and 1 share bucket 0
    EXPECT_EQ(hist.bucketFor(2), 2u);  // 2 and 3 share bucket 1
    EXPECT_EQ(hist.bucketFor(1024), 5u);
    EXPECT_EQ(hist.bucketFor(1 << 20), 0u); // empty bucket
}

TEST(Log2Histogram, Mean)
{
    Log2Histogram hist;
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
    hist.add(10);
    hist.add(20);
    EXPECT_DOUBLE_EQ(hist.mean(), 15.0);
}

TEST(Log2Histogram, RenderAndReset)
{
    Log2Histogram hist;
    hist.add(100);
    // 100 lands in bucket [64, 127].
    EXPECT_NE(hist.render().find("64"), std::string::npos);
    EXPECT_NE(hist.render().find("127"), std::string::npos);
    hist.reset();
    EXPECT_EQ(hist.samples(), 0u);
    EXPECT_TRUE(hist.render().empty());
}

TEST(Log2Histogram, PercentileUpperBound)
{
    Log2Histogram hist;
    EXPECT_EQ(hist.percentileUpperBound(0.5), 0u); // empty histogram

    // 90 samples in [64,127], 10 in [4096,8191].
    hist.add(100, 90);
    hist.add(5000, 10);
    EXPECT_EQ(hist.percentileUpperBound(0.5), 127u);
    EXPECT_EQ(hist.percentileUpperBound(0.9), 127u);
    EXPECT_EQ(hist.percentileUpperBound(0.91), 8191u);
    EXPECT_EQ(hist.percentileUpperBound(1.0), 8191u);

    // Out-of-range fractions clamp rather than misbehave.
    EXPECT_EQ(hist.percentileUpperBound(0.0), hist.percentileUpperBound(1e-9));
    EXPECT_EQ(hist.percentileUpperBound(2.0), 8191u);
}

TEST(Log2Histogram, BucketBoundaries)
{
    Log2Histogram hist;
    // 2^k and 2^(k+1)-1 share a bucket; 2^(k+1) starts the next one.
    hist.add(64);
    hist.add(127);
    hist.add(128);
    EXPECT_EQ(hist.bucketFor(64), 2u);
    EXPECT_EQ(hist.bucketFor(127), 2u);
    EXPECT_EQ(hist.bucketFor(128), 1u);
    EXPECT_EQ(hist.bucketFor(255), 1u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable table;
    table.setHeader({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer", "22"});
    std::string out = table.render();
    // Header present, separator line, both rows.
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTable, Cellf)
{
    EXPECT_EQ(cellf("%.2f", 3.14159), "3.14");
    EXPECT_EQ(cellf("%d%s", 42, "x"), "42x");
}

TEST(TimeBreakdown, FractionsSumToOne)
{
    TimeBreakdown bd;
    bd.add(TimeLevel::L1I, 100);
    bd.add(TimeLevel::L1D, 50);
    bd.add(TimeLevel::L2, 150);
    bd.add(TimeLevel::Dram, 200);
    EXPECT_EQ(bd.total(), 500u);
    double sum = 0;
    for (std::size_t i = 0; i < numTimeLevels; ++i)
        sum += bd.fraction(static_cast<TimeLevel>(i));
    EXPECT_DOUBLE_EQ(sum, 1.0);
    EXPECT_DOUBLE_EQ(bd.fraction(TimeLevel::Dram), 0.4);
}

TEST(TimeBreakdown, EmptyIsSafe)
{
    TimeBreakdown bd;
    EXPECT_EQ(bd.total(), 0u);
    EXPECT_DOUBLE_EQ(bd.fraction(TimeLevel::L2), 0.0);
}

TEST(TimeBreakdown, LevelNames)
{
    EXPECT_EQ(timeLevelName(TimeLevel::L1I), "L1i");
    EXPECT_EQ(timeLevelName(TimeLevel::L2, "SRAM MM"), "SRAM MM");
    EXPECT_EQ(timeLevelName(TimeLevel::Dram), "DRAM");
}

} // namespace
} // namespace rampage
