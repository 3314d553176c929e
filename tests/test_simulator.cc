/**
 * @file
 * Tests for the simulation driver: blocking runs, context-switch
 * trace insertion, the timing-coupled switch-on-miss schedule, and
 * the helper thread that fills a blocking run's next chunk.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "core/deadline.hh"
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

/**
 * A synthetic program behind a decorator that chooses whether the
 * source opts into the helper-thread feed, notes whether any fill ran
 * off the thread that built it, and can throw on its k-th fill.
 */
class ProbeSource final : public TraceSource
{
  public:
    ProbeSource(int index, bool self_contained, int throw_on_fill = 0)
        : inner(profileFor(index), static_cast<Pid>(index)),
          optIn(self_contained), throwOn(throw_on_fill),
          owner(std::this_thread::get_id())
    {
    }

    std::size_t
    fill(MemRef *buf, std::size_t n) override
    {
        if (std::this_thread::get_id() != owner)
            filledOffThread = true;
        if (++fills == throwOn)
            throw TraceError("probe '%s': fill %d fails",
                             inner.name().c_str(), fills);
        return inner.fill(buf, n);
    }

    void reset() override { inner.reset(); }
    std::string name() const override { return inner.name(); }
    Pid pid() const override { return inner.pid(); }
    bool selfContained() const override { return optIn; }

    bool filledOffThread = false;

  private:
    static ProgramProfile
    profileFor(int index)
    {
        ProgramProfile profile;
        profile.name = "probe" + std::to_string(index);
        profile.seed = 100 + index;
        profile.heapBytes = 256 * kib;
        return profile;
    }

    SyntheticProgram inner;
    bool optIn;
    int throwOn;
    int fills = 0;
    std::thread::id owner;
};

/** Probe sources for a workload; `probes` gets borrowed pointers. */
std::vector<std::unique_ptr<TraceSource>>
probeWorkload(bool self_contained, std::vector<ProbeSource *> &probes,
              int programs = 3, int throwing = -1, int throw_on_fill = 0)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    probes.clear();
    for (int i = 0; i < programs; ++i) {
        auto source = std::make_unique<ProbeSource>(
            i, self_contained, i == throwing ? throw_on_fill : 0);
        probes.push_back(source.get());
        sources.push_back(std::move(source));
    }
    return sources;
}

bool
anyFilledOffThread(const std::vector<ProbeSource *> &probes)
{
    for (const ProbeSource *probe : probes)
        if (probe->filledOffThread)
            return true;
    return false;
}

/** A small RAMpage system, pinned to one core. */
RampageConfig
feedRampage()
{
    RampageConfig cfg = rampageConfig(oneGhz, 1024);
    cfg.common.cores = 1;
    cfg.pager.baseSramBytes = 256 * kib;
    return cfg;
}

TEST(SimulatorFeed, FedRunEqualsSynchronousRun)
{
    // The same sources with and without the opt-in: one run fills on
    // the helper, one on the calling thread, and every stat and the
    // elapsed time must agree, at chunk-cutting maxRefs and at
    // quanta below and off multiples of the 4096-reference chunk.
    constexpr int programs = 3;
    auto run = [&](bool fed, bool paged, std::uint64_t refs,
                   std::uint64_t quantum) {
        ConventionalConfig baseline = baselineConfig(oneGhz, 128);
        baseline.common.cores = 1;
        auto hier = paged ? makeHierarchy(feedRampage())
                          : makeHierarchy(baseline);
        std::vector<ProbeSource *> probes;
        Simulator sim(*hier, probeWorkload(fed, probes, programs),
                      tinySim(refs, quantum));
        SimResult result = sim.run();
        EXPECT_EQ(anyFilledOffThread(probes), fed && refs > 0)
            << "refs " << refs << " quantum " << quantum;
        return result;
    };
    for (bool paged : {false, true}) {
        for (std::uint64_t quantum : {1000u, 5000u}) {
            for (std::uint64_t refs :
                 {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{4095},
                  std::uint64_t{4097}, programs * quantum + 7}) {
                SCOPED_TRACE("paged " + std::to_string(paged) +
                             " quantum " + std::to_string(quantum) +
                             " refs " + std::to_string(refs));
                SimResult fed = run(true, paged, refs, quantum);
                SimResult sync = run(false, paged, refs, quantum);
                EXPECT_EQ(fed.counts.traceRefs, refs);
                EXPECT_EQ(fed.elapsedPs, sync.elapsedPs);
                EXPECT_EQ(fed.stats.toText(), sync.stats.toText());
            }
        }
    }
}

TEST(SimulatorFeed, TimingCoupledRunsFillOnTheCallingThread)
{
    // Switch-on-miss and multicore runs pick their next source by
    // simulated time, so even opting sources are filled in step.
    std::vector<ProbeSource *> probes;
    RampageConfig som = rampageConfig(oneGhz, 1024, true);
    som.common.cores = 1;
    som.pager.baseSramBytes = 256 * kib;
    auto som_hier = makeHierarchy(som);
    SimConfig som_sim = tinySim(20'000, 5'000);
    som_sim.switchOnMiss = true;
    Simulator som_driver(*som_hier, probeWorkload(true, probes),
                         som_sim);
    som_driver.run();
    EXPECT_FALSE(anyFilledOffThread(probes));

    RampageConfig multi = feedRampage();
    multi.common.cores = 2;
    auto multi_hier = makeHierarchy(multi);
    Simulator multi_driver(*multi_hier, probeWorkload(true, probes, 4),
                           tinySim(20'000, 5'000));
    multi_driver.run();
    EXPECT_FALSE(anyFilledOffThread(probes));
}

TEST(SimulatorFeed, IsolatedPointFillsOnItsOwnThread)
{
    // An --isolate child is forked from a multithreaded parent, where
    // it must not start a thread: its feed stays synchronous.
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.isolate = 1;
    SweepRunner runner(opts);
    runner.add("fed", [] {
        auto hier = makeHierarchy(feedRampage());
        std::vector<ProbeSource *> probes;
        Simulator sim(*hier, probeWorkload(true, probes),
                      tinySim(20'000, 5'000));
        SimResult result = sim.run();
        if (anyFilledOffThread(probes))
            throw InternalError("the isolated child started a helper");
        return result;
    });
    SweepReport report = runner.run();
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Ok)
        << report.outcomes[0].error;
}

TEST(SimulatorFeed, HelperSideErrorIsRethrownAtTheSameReference)
{
    // Source 1 throws on its third fill, the first chunk of its
    // second slice.  Fed, that fill runs on the helper, one chunk
    // ahead; the error must surface when the simulating thread takes
    // that chunk, with the hierarchy where the synchronous run left
    // it.
    auto run = [](bool fed) {
        auto hier = makeHierarchy(feedRampage());
        std::vector<ProbeSource *> probes;
        Simulator sim(*hier, probeWorkload(fed, probes, 3, 1, 3),
                      tinySim(60'000, 5'000));
        std::string message;
        try {
            sim.run();
            ADD_FAILURE() << "the failing fill was never reached";
        } catch (const TraceError &e) {
            message = e.what();
        }
        EXPECT_EQ(anyFilledOffThread(probes), fed);
        return std::make_pair(message, hier->counts().refs);
    };
    auto fed = run(true);
    auto sync = run(false);
    EXPECT_NE(fed.first.find("probe1"), std::string::npos) << fed.first;
    EXPECT_GT(fed.second, 3u * 5'000u);
    EXPECT_EQ(fed, sync);
}

TEST(SimulatorFeed, SimulatingSideErrorsStopTheHelper)
{
    // Each cooperative stop ends a fed run at a chunk boundary while
    // the helper is filling or holding the next chunk.  Every exit
    // joins it before run() returns: a helper left running would
    // touch the sources after the Simulator frees them (a sanitizer
    // report), and an unjoined std::thread terminates the process.
    auto expect_stop = [](SimConfig cfg, auto check) {
        auto hier = makeHierarchy(feedRampage());
        std::vector<ProbeSource *> probes;
        Simulator sim(*hier, probeWorkload(true, probes), cfg);
        try {
            sim.run();
            ADD_FAILURE() << "the run was not stopped";
        } catch (const SimError &e) {
            check(e);
        }
        EXPECT_TRUE(anyFilledOffThread(probes));
    };
    for (int rep = 0; rep < 100; ++rep) {
        SCOPED_TRACE("rep " + std::to_string(rep));

        SimConfig watchdog = tinySim(60'000, 5'000);
        watchdog.watchdogRefBudget = 1;
        expect_stop(watchdog, [](const SimError &e) {
            EXPECT_NE(dynamic_cast<const InternalError *>(&e), nullptr)
                << e.what();
        });

        armPointDeadline(0.01);
        expect_stop(tinySim(4'000'000'000ull, 5'000),
                    [](const SimError &e) {
                        EXPECT_NE(dynamic_cast<const TimeoutError *>(&e),
                                  nullptr)
                            << e.what();
                    });
        disarmPointDeadline();

        SimConfig audited = tinySim(60'000, 5'000);
        audited.auditLevel = AuditLevel::Boundaries;
        audited.faultPlan = "skew-cycles";
        expect_stop(audited, [](const SimError &e) {
            const auto *audit = dynamic_cast<const AuditError *>(&e);
            ASSERT_NE(audit, nullptr) << e.what();
            EXPECT_EQ(audit->firstInvariant(), "time.conservation");
        });
    }
}

} // namespace
} // namespace rampage
