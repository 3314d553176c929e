/**
 * @file
 * Unit tests for the hot-loop warning filters (warnOnce /
 * warnRateLimited): each counts every occurrence, also those it does
 * not print.
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace rampage
{
namespace
{

/** Silence diagnostic output around each test. */
class DebugTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    void TearDown() override { setQuiet(false); }
};

TEST_F(DebugTest, WarnOnceCountsEveryOccurrence)
{
    resetWarnFilters();
    const char *fmt = "test-warn-once %d";
    warnOnce(fmt, 1);
    warnOnce(fmt, 2);
    warnOnce(fmt, 3);
    EXPECT_EQ(warnOccurrences(fmt), 3u);
    resetWarnFilters();
    EXPECT_EQ(warnOccurrences(fmt), 0u);
}

TEST_F(DebugTest, WarnRateLimitedCountsPastTheLimit)
{
    resetWarnFilters();
    setWarnRateLimit(2);
    const char *fmt = "test-warn-rate %d";
    for (int i = 0; i < 10; ++i)
        warnRateLimited(fmt, i);
    EXPECT_EQ(warnOccurrences(fmt), 10u);
    setWarnRateLimit(0); // restore default
    resetWarnFilters();
}

} // namespace
} // namespace rampage
