/**
 * @file
 * Unit tests for the context-switch-on-miss scheduler (paper §4.6).
 */

#include <gtest/gtest.h>

#include "os/scheduler.hh"

namespace rampage
{
namespace
{

TEST(Scheduler, QuantumExpiry)
{
    Scheduler sched(3, 5);
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(sched.onRefs(1));
    EXPECT_TRUE(sched.onRefs(1));
    // Counter reset after expiry.
    EXPECT_FALSE(sched.onRefs(1));
}

TEST(Scheduler, RotateRoundRobin)
{
    Scheduler sched(3, 100);
    EXPECT_EQ(sched.current(), 0u);
    auto pick = sched.rotate(0);
    EXPECT_EQ(pick.index, 1u);
    EXPECT_FALSE(pick.stalled);
    pick = sched.rotate(0);
    EXPECT_EQ(pick.index, 2u);
    pick = sched.rotate(0);
    EXPECT_EQ(pick.index, 0u);
    EXPECT_EQ(sched.stats().quantumSwitches, 3u);
}

TEST(Scheduler, BlockedProcessSkipped)
{
    Scheduler sched(3, 100);
    // Block process 0 until t=1000; rotation from 0 picks 1.
    auto pick = sched.blockCurrent(0, 1000);
    EXPECT_EQ(pick.index, 1u);
    // Rotating at t=500 skips 0 (still blocked) after 2.
    sched.rotate(500); // -> 2
    pick = sched.rotate(500);
    EXPECT_EQ(pick.index, 1u); // 0 skipped
    // At t=1000, 0 becomes ready again.
    pick = sched.rotate(1000);
    EXPECT_EQ(pick.index, 2u);
    pick = sched.rotate(1000);
    EXPECT_EQ(pick.index, 0u);
}

TEST(Scheduler, AllBlockedStallsToEarliest)
{
    Scheduler sched(2, 100);
    sched.blockCurrent(0, 500);  // block 0, run 1
    auto pick = sched.blockCurrent(100, 300); // block 1 too
    EXPECT_TRUE(pick.stalled);
    EXPECT_EQ(pick.index, 1u);     // earliest unblock (t=300)
    EXPECT_EQ(pick.resumeAt, 300u);
    EXPECT_EQ(sched.stats().stalls, 1u);
    EXPECT_EQ(sched.stats().stallTime, 200u);
}

TEST(Scheduler, ReadyCount)
{
    Scheduler sched(4, 100);
    EXPECT_EQ(sched.readyCount(0), 4u);
    sched.blockCurrent(0, 1000);
    EXPECT_EQ(sched.readyCount(0), 3u);
    EXPECT_EQ(sched.readyCount(1000), 4u);
    EXPECT_TRUE(sched.ready(0, 1000));
    EXPECT_FALSE(sched.ready(0, 999));
}

TEST(Scheduler, MissSwitchesCounted)
{
    Scheduler sched(3, 100);
    sched.blockCurrent(0, 10);
    sched.blockCurrent(0, 10);
    EXPECT_EQ(sched.stats().missSwitches, 2u);
}

TEST(Scheduler, SingleProcessStallsOnOwnFault)
{
    Scheduler sched(1, 100);
    auto pick = sched.blockCurrent(0, 700);
    EXPECT_TRUE(pick.stalled);
    EXPECT_EQ(pick.index, 0u);
    EXPECT_EQ(pick.resumeAt, 700u);
}

TEST(Scheduler, QuantumResetOnSwitch)
{
    Scheduler sched(2, 3);
    sched.onRefs(1);
    sched.onRefs(1);
    sched.rotate(0); // resets slice
    EXPECT_FALSE(sched.onRefs(1));
    EXPECT_FALSE(sched.onRefs(1));
    EXPECT_TRUE(sched.onRefs(1));
}

} // namespace
} // namespace rampage
