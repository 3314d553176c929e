/**
 * @file
 * Tests for the simulation driver: blocking runs, context-switch
 * trace insertion, and the timing-coupled switch-on-miss schedule.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/file_format.hh"
#include "trace/synthetic.hh"
#include "util/error.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

std::vector<std::unique_ptr<TraceSource>>
tinyWorkload(int programs = 3)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (int i = 0; i < programs; ++i) {
        ProgramProfile profile;
        profile.name = "tiny" + std::to_string(i);
        profile.seed = 100 + i;
        profile.heapBytes = 256 * kib;
        sources.push_back(std::make_unique<SyntheticProgram>(
            profile, static_cast<Pid>(i)));
    }
    return sources;
}

SimConfig
tinySim(std::uint64_t refs = 60'000, std::uint64_t quantum = 10'000)
{
    SimConfig sim;
    sim.maxRefs = refs;
    sim.quantumRefs = quantum;
    return sim;
}

TEST(Simulator, BlockingRunIsDeterministic)
{
    auto run = [] {
        auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
        Simulator sim(*hier, tinyWorkload(), tinySim());
        return sim.run();
    };
    SimResult a = run();
    SimResult b = run();
    EXPECT_EQ(a.elapsedPs, b.elapsedPs);
    EXPECT_EQ(a.counts.dramReads, b.counts.dramReads);
    EXPECT_EQ(a.counts.tlbMisses, b.counts.tlbMisses);
}

TEST(Simulator, ProcessesExactlyMaxRefs)
{
    auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
    Simulator sim(*hier, tinyWorkload(), tinySim(12'345));
    SimResult result = sim.run();
    EXPECT_EQ(result.counts.traceRefs, 12'345u);
}

TEST(Simulator, ContextSwitchTracePerSlice)
{
    auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
    Simulator sim(*hier, tinyWorkload(), tinySim(60'000, 10'000));
    SimResult result = sim.run();
    // 6 slices -> 6 context-switch traces (first slice included).
    EXPECT_EQ(result.counts.contextSwitches, 6u);
}

TEST(Simulator, SwitchTraceCanBeDisabled)
{
    auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
    SimConfig cfg = tinySim();
    cfg.insertSwitchTrace = false;
    Simulator sim(*hier, tinyWorkload(), cfg);
    SimResult result = sim.run();
    EXPECT_EQ(result.counts.contextSwitches, 0u);
}

TEST(Simulator, ElapsedMatchesRecostAtSameRate)
{
    // For blocking runs, the timeline total equals the priced event
    // counts at the run's own issue rate — the Table 3 re-costing is
    // exact, not approximate.
    auto hier = makeHierarchy(baselineConfig(oneGhz, 512));
    Simulator sim(*hier, tinyWorkload(), tinySim());
    SimResult result = sim.run();
    EXPECT_EQ(result.elapsedPs, totalTimePs(result.counts, oneGhz));
}

TEST(Simulator, RampageBlockingElapsedMatchesRecost)
{
    RampageConfig cfg = rampageConfig(oneGhz, 1024);
    cfg.pager.baseSramBytes = 256 * kib;
    auto hier = makeHierarchy(cfg);
    Simulator sim(*hier, tinyWorkload(), tinySim());
    SimResult result = sim.run();
    EXPECT_EQ(result.elapsedPs, totalTimePs(result.counts, oneGhz));
}

TEST(Simulator, SwitchOnMissOverlapsTransfers)
{
    // With several processes, switch-on-miss overlaps page transfers
    // with execution: elapsed time is at most the blocking time and
    // strictly less than cycle-time + full DRAM time.
    // Moderate fault pressure: working sets mostly fit, so the
    // channel is not saturated and overlap can pay off.
    auto run = [](bool switch_on_miss) {
        RampageConfig cfg = rampageConfig(4'000'000'000ull, 4096,
                                          switch_on_miss);
        cfg.pager.baseSramBytes = 1 * mib;
        auto hier = makeHierarchy(cfg);
        SimConfig sim = tinySim(200'000, 25'000);
        sim.switchOnMiss = switch_on_miss;
        Simulator driver(*hier, tinyWorkload(4), sim);
        return driver.run();
    };
    SimResult blocking = run(false);
    SimResult switching = run(true);
    EXPECT_GT(switching.sched.missSwitches, 0u);
    // At 4 GHz with big pages, overlap wins (the paper's §5.4 claim).
    EXPECT_LT(switching.elapsedPs, blocking.elapsedPs);
}

TEST(Simulator, SwitchOnMissSingleProcessStalls)
{
    // With one process there is nobody to switch to: every fault
    // stalls the CPU for the transfer, so elapsed time ~ blocking.
    RampageConfig cfg = rampageConfig(oneGhz, 1024, true);
    cfg.pager.baseSramBytes = 128 * kib;
    auto hier = makeHierarchy(cfg);
    SimConfig sim = tinySim(30'000, 10'000);
    sim.switchOnMiss = true;
    Simulator driver(*hier, tinyWorkload(1), sim);
    SimResult result = driver.run();
    EXPECT_GT(result.sched.stalls, 0u);
    EXPECT_GT(result.stallPs, 0u);
    EXPECT_EQ(result.stallPs, result.sched.stallTime);
}

TEST(Simulator, ResultMetadata)
{
    auto hier = makeHierarchy(twoWayConfig(oneGhz, 256));
    Simulator sim(*hier, tinyWorkload(), tinySim(5'000, 1'000));
    SimResult result = sim.run();
    EXPECT_EQ(result.systemName, "2-way L2");
    EXPECT_EQ(result.issueHz, oneGhz);
    EXPECT_NEAR(result.seconds(),
                static_cast<double>(result.elapsedPs) / 1e12, 1e-15);
}

TEST(Simulator, ElapsedGrowsWithRefs)
{
    auto elapsed = [](std::uint64_t refs) {
        auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
        Simulator sim(*hier, tinyWorkload(), tinySim(refs));
        return sim.run().elapsedPs;
    };
    EXPECT_LT(elapsed(10'000), elapsed(40'000));
}

TEST(Simulator, ReplaysAFiniteSourceFromTheStart)
{
    // A trace shorter than one chunk is rewound and replayed within
    // every chunk: the run must equal one over a file that holds the
    // same references repeated past maxRefs.
    constexpr int traceRefs = 1000;
    constexpr int copies = 13;
    constexpr std::uint64_t maxRefs = 12'000;
    const std::string dir = ::testing::TempDir();
    const std::string once = dir + "/rampage_replay_once.trace";
    const std::string repeated = dir + "/rampage_replay_repeated.trace";
    const std::string empty = dir + "/rampage_replay_empty.trace";
    {
        ProgramProfile profile;
        profile.name = "replay";
        profile.seed = 9;
        SyntheticProgram gen(profile, 2);
        std::vector<MemRef> refs(traceRefs);
        ASSERT_EQ(gen.fill(refs.data(), refs.size()), refs.size());
        TraceWriter short_file(once);
        TraceWriter long_file(repeated);
        TraceWriter empty_file(empty);
        for (const MemRef &ref : refs)
            short_file.write(ref);
        for (int copy = 0; copy < copies; ++copy)
            for (const MemRef &ref : refs)
                long_file.write(ref);
    }
    ASSERT_GT(std::uint64_t{traceRefs} * copies, maxRefs);

    auto run = [&](const std::string &path) {
        auto hier = makeHierarchy(baselineConfig(oneGhz, 128));
        std::vector<std::unique_ptr<TraceSource>> workload;
        workload.push_back(std::make_unique<FileTraceSource>(path));
        Simulator sim(*hier, std::move(workload),
                      tinySim(maxRefs, 5'000));
        return sim.run();
    };
    SimResult replayed = run(once);
    SimResult unrolled = run(repeated);
    EXPECT_EQ(replayed.counts.traceRefs, maxRefs);
    EXPECT_EQ(replayed.stats.toJson().dump(),
              unrolled.stats.toJson().dump());

    // A source that is still empty after a rewind cannot be replayed.
    EXPECT_THROW(run(empty), InternalError);

    std::remove(once.c_str());
    std::remove(repeated.c_str());
    std::remove(empty.c_str());
}

} // namespace
} // namespace rampage
