/**
 * @file
 * Tests for the frequency-separable cost model (§4.3): SRAM-level
 * cycles scale with the issue rate, DRAM picoseconds do not.
 */

#include <gtest/gtest.h>

#include "core/cost_model.hh"

namespace rampage
{
namespace
{

EventCounts
sampleCounts()
{
    EventCounts c;
    c.l1iCycles = 1000;
    c.l1dCycles = 200;
    c.l2Cycles = 2400;
    c.dramPs = 5'000'000;
    c.traceRefs = 900;
    c.tlbMissOverheadRefs = 60;
    c.faultOverheadRefs = 30;
    return c;
}

TEST(CostModel, PricesEachLevel)
{
    EventCounts c = sampleCounts();
    TimeBreakdown bd = priceEvents(c, 1'000'000'000ull);
    EXPECT_EQ(bd.at(TimeLevel::L1I), 1000 * 1000u);
    EXPECT_EQ(bd.at(TimeLevel::L1D), 200 * 1000u);
    EXPECT_EQ(bd.at(TimeLevel::L2), 2400 * 1000u);
    EXPECT_EQ(bd.at(TimeLevel::Dram), 5'000'000u);
}

TEST(CostModel, CyclesScaleWithIssueRateDramDoesNot)
{
    EventCounts c = sampleCounts();
    TimeBreakdown slow = priceEvents(c, 200'000'000ull);
    TimeBreakdown fast = priceEvents(c, 4'000'000'000ull);
    // SRAM-level time shrinks 20x between 200 MHz and 4 GHz.
    EXPECT_EQ(slow.at(TimeLevel::L1I), 20 * fast.at(TimeLevel::L1I));
    EXPECT_EQ(slow.at(TimeLevel::L2), 20 * fast.at(TimeLevel::L2));
    // DRAM time is issue-rate invariant.
    EXPECT_EQ(slow.at(TimeLevel::Dram), fast.at(TimeLevel::Dram));
    // Hence DRAM's *fraction* grows with CPU speed — the CPU-DRAM
    // gap the paper studies.
    EXPECT_GT(fast.fraction(TimeLevel::Dram),
              slow.fraction(TimeLevel::Dram));
}

TEST(CostModel, StallTimeChargedToDram)
{
    EventCounts c = sampleCounts();
    TimeBreakdown bd = priceEvents(c, 1'000'000'000ull, 777);
    EXPECT_EQ(bd.at(TimeLevel::Dram), 5'000'777u);
}

TEST(CostModel, TotalTime)
{
    EventCounts c = sampleCounts();
    EXPECT_EQ(totalTimePs(c, 1'000'000'000ull),
              (1000 + 200 + 2400) * 1000u + 5'000'000u);
}

TEST(CostModel, OverheadRatioIsFig4Definition)
{
    EventCounts c = sampleCounts();
    EXPECT_DOUBLE_EQ(c.overheadRatio(), (60.0 + 30.0) / 900.0);
    EventCounts empty;
    EXPECT_DOUBLE_EQ(empty.overheadRatio(), 0.0);
}

} // namespace
} // namespace rampage
