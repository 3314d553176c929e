/**
 * @file
 * Fault-tolerant sweep engine tests: poisoned points fail in
 * isolation with a categorized outcome, completed points checkpoint
 * to the manifest, and a re-run resumes without re-simulating them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/audit.hh"
#include "core/fault_injection.hh"
#include "core/sweep.hh"
#include "trace/corrupter.hh"
#include "trace/file_format.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/knob.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{
namespace
{

class SweepRunnerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        // Per-test path: ctest runs fixture tests as concurrent
        // processes, and the manifest loader now *repairs* damaged
        // files in place — sharing one path would race.
        manifest = std::string(::testing::TempDir()) +
                   "/rampage_sweep_" +
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name() +
                   ".checkpoint";
        std::remove(manifest.c_str());
    }

    void TearDown() override
    {
        setQuiet(false);
        std::remove(manifest.c_str());
    }

    static SimResult fakeResult(Tick elapsed)
    {
        SimResult result;
        result.elapsedPs = elapsed;
        return result;
    }

    /** A small but real simulation (the §4.4 baseline, tiny scale). */
    static SimResult tinyBaseline(std::uint64_t l2_block)
    {
        SimConfig sim;
        sim.maxRefs = 2'000;
        sim.quantumRefs = 500;
        return simulateSystem(
            baselineConfig(200'000'000ull, l2_block), sim);
    }

    /** The §4.7 2-way system at the same tiny scale. */
    static SimResult tinyTwoWay(std::uint64_t l2_block)
    {
        SimConfig sim;
        sim.maxRefs = 2'000;
        sim.quantumRefs = 500;
        return simulateSystem(
            twoWayConfig(200'000'000ull, l2_block), sim);
    }

    /** The §4.5 RAMpage system at the same tiny scale. */
    static SimResult tinyRampage(std::uint64_t page_bytes)
    {
        SimConfig sim;
        sim.maxRefs = 2'000;
        sim.quantumRefs = 500;
        return simulateSystem(
            rampageConfig(200'000'000ull, page_bytes), sim);
    }

    /**
     * The determinism campaign: eight points spanning all three
     * system families plus a poisoned configuration and a synthetic
     * internal bug, so the jobs=1 vs jobs=4 comparison covers Ok and
     * both failure statuses.
     */
    static void addDeterminismPoints(SweepRunner &runner)
    {
        for (std::uint64_t block : {128u, 256u, 512u, 1024u})
            runner.add("baseline/" + std::to_string(block),
                       [block] { return tinyBaseline(block); });
        runner.add("2way/512", [] { return tinyTwoWay(512); });
        runner.add("rampage/1024", [] { return tinyRampage(1024); });
        runner.add("poison/config",
                   [] { return tinyBaseline(16); }); // below the L1 block
        runner.add("poison/internal", []() -> SimResult {
            throw InternalError("synthetic bug");
        });
    }

    /**
     * The manifest's lines as an order-independent set with the
     * wall-clock token blanked: wall time is the one legitimately
     * nondeterministic field, everything else must match exactly.
     * The crc token goes too — it covers the wall text, so it is
     * exactly as nondeterministic as the field it protects.
     */
    static std::vector<std::string> manifestLineSet(
        const std::string &path)
    {
        std::vector<std::string> lines;
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            for (const char *token : {"crc=", "wall="}) {
                std::size_t at = line.find(token);
                if (at == std::string::npos)
                    continue;
                std::size_t end = line.find(' ', at);
                if (end == std::string::npos)
                    end = line.size();
                line.erase(at, end - at);
            }
            lines.push_back(line);
        }
        std::sort(lines.begin(), lines.end());
        return lines;
    }

    std::string manifest;
};

TEST_F(SweepRunnerTest, PoisonedPointsYieldPartialResults)
{
    SweepRunner runner;
    runner.add("good/128", [] { return tinyBaseline(128); });
    runner.add("poison/config",
               [] { return tinyBaseline(16); }); // below the L1 block
    runner.add("good/1024", [] { return tinyBaseline(1024); });
    runner.add("poison/internal", []() -> SimResult {
        throw InternalError("synthetic bug");
    });

    SweepReport report = runner.run();
    ASSERT_EQ(report.outcomes.size(), 4u);
    EXPECT_EQ(report.okCount(), 2u);
    EXPECT_EQ(report.failedCount(), 2u);
    EXPECT_FALSE(report.allOk());

    EXPECT_EQ(report.outcomes[0].status, PointStatus::Ok);
    EXPECT_TRUE(report.outcomes[0].haveResult);
    EXPECT_GT(report.outcomes[0].result.elapsedPs, 0u);

    EXPECT_EQ(report.outcomes[1].status, PointStatus::Failed);
    EXPECT_EQ(report.outcomes[1].errorCategory, ErrorCategory::Config);
    EXPECT_FALSE(report.outcomes[1].error.empty());

    EXPECT_EQ(report.outcomes[2].status, PointStatus::Ok);

    EXPECT_EQ(report.outcomes[3].status, PointStatus::Failed);
    EXPECT_EQ(report.outcomes[3].errorCategory,
              ErrorCategory::Internal);
}

TEST_F(SweepRunnerTest, DuplicatePointIdsAreRejected)
{
    SweepRunner runner;
    runner.add("p", [] { return fakeResult(1); });
    EXPECT_THROW(runner.add("p", [] { return fakeResult(2); }),
                 ConfigError);
}

TEST_F(SweepRunnerTest, CheckpointResumeSkipsCompletedPoints)
{
    std::atomic<int> executions{0};
    bool poisoned = true;
    auto build = [&](SweepRunner &runner) {
        runner.add("a", [&] {
            ++executions;
            return fakeResult(10);
        });
        runner.add("b", [&]() -> SimResult {
            ++executions;
            if (poisoned)
                throw TraceError("injected trace damage");
            return fakeResult(20);
        });
        runner.add("c", [&] {
            ++executions;
            return fakeResult(30);
        });
    };

    SweepRunner first({manifest});
    build(first);
    SweepReport run1 = first.run();
    EXPECT_EQ(run1.okCount(), 2u);
    EXPECT_EQ(run1.failedCount(), 1u);
    EXPECT_EQ(run1.outcomes[1].errorCategory, ErrorCategory::Trace);
    EXPECT_EQ(executions, 3);

    // Second campaign: the fault is fixed; only 'b' re-executes.
    poisoned = false;
    SweepRunner second({manifest});
    build(second);
    SweepReport run2 = second.run();
    EXPECT_EQ(executions, 4);
    EXPECT_EQ(run2.skippedCount(), 2u);
    EXPECT_EQ(run2.okCount(), 1u);
    EXPECT_TRUE(run2.allOk());
    EXPECT_EQ(run2.outcomes[0].status, PointStatus::Skipped);
    EXPECT_EQ(run2.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(run2.outcomes[2].status, PointStatus::Skipped);
}

TEST_F(SweepRunnerTest, DamagedManifestLinesAreIgnored)
{
    SweepRunner first({manifest});
    std::atomic<int> executions{0};
    first.add("keep", [&] {
        ++executions;
        return fakeResult(5);
    });
    first.run();

    // Simulate a torn write: append garbage to the manifest.
    std::FILE *file = std::fopen(manifest.c_str(), "a");
    ASSERT_NE(file, nullptr);
    std::fprintf(file, "ok wall=0.5 elapsed_ps=");
    std::fclose(file);

    SweepRunner second({manifest});
    second.add("keep", [&] {
        ++executions;
        return fakeResult(5);
    });
    SweepReport report = second.run();
    EXPECT_EQ(report.skippedCount(), 1u);
    EXPECT_EQ(executions, 1);
}

TEST_F(SweepRunnerTest, WatchdogAbortsRunawayPointCleanly)
{
    SweepRunner runner;
    runner.add("runaway", [] {
        SimConfig sim;
        sim.maxRefs = 50'000;
        sim.quantumRefs = 500;
        sim.watchdogRefBudget = 1'000; // absurdly tight on purpose
        return simulateSystem(baselineConfig(200'000'000ull, 1024),
                                    sim);
    });
    runner.add("healthy", [] { return tinyBaseline(1024); });

    SweepReport report = runner.run();
    EXPECT_EQ(report.failedCount(), 1u);
    EXPECT_EQ(report.okCount(), 1u);
    EXPECT_EQ(report.outcomes[0].errorCategory, ErrorCategory::Internal);
    EXPECT_NE(report.outcomes[0].error.find("watchdog"),
              std::string::npos);
}

TEST_F(SweepRunnerTest, OkPointsReportWallTimeAndNoDebugTail)
{
    SweepRunner runner;
    runner.add("real", [] { return tinyBaseline(1024); });
    SweepReport report = runner.run();
    ASSERT_EQ(report.okCount(), 1u);
    EXPECT_GE(report.outcomes[0].wallSeconds, 0.0);
    EXPECT_TRUE(report.outcomes[0].debugTail.empty());
}

TEST_F(SweepRunnerTest, FailedPointCapturesDebugRingTail)
{
    clearDebugRing();
    SweepRunner runner;
    runner.add("noisy-failure", []() -> SimResult {
        // Stand-in for RAMPAGE_DPRINTF events emitted while the point
        // runs (the macro is compiled out in Release, the ring isn't).
        debugRecord(DebugChannel::Pager, "fault vpn=0xabc");
        debugRecord(DebugChannel::Dram, "read 4096 bytes");
        throw InternalError("synthetic post-mortem bug");
    });
    runner.add("clean-failure", []() -> SimResult {
        throw InternalError("no events this time");
    });

    SweepReport report = runner.run();
    ASSERT_EQ(report.failedCount(), 2u);

    const PointOutcome &noisy = report.outcomes[0];
    ASSERT_EQ(noisy.debugTail.size(), 2u);
    EXPECT_EQ(noisy.debugTail[0], "pager: fault vpn=0xabc");
    EXPECT_EQ(noisy.debugTail[1], "dram: read 4096 bytes");

    // Each point starts with a clean ring: the second failure must not
    // inherit the first point's events.
    EXPECT_TRUE(report.outcomes[1].debugTail.empty());
}

TEST_F(SweepRunnerTest, HeartbeatOptionIsHarmless)
{
    SweepRunner::Options opts;
    opts.heartbeatSeconds = 0.000001; // fire at every point boundary
    SweepRunner runner(opts);
    runner.add("a", [] { return fakeResult(1); });
    runner.add("b", [] { return fakeResult(2); });
    SweepReport report = runner.run();
    EXPECT_EQ(report.okCount(), 2u);
}

/**
 * The acceptance scenario end to end: a campaign holding an injected
 * corrupt-trace point and an invalid-config point among healthy ones
 * completes with partial results, and a second run resumes from the
 * manifest without re-simulating the completed points.
 */
TEST_F(SweepRunnerTest, CorruptTraceAndBadConfigCampaignResumes)
{
    std::string trace = std::string(::testing::TempDir()) +
                        "/rampage_sweep_campaign.trace";
    {
        TraceWriter writer(trace);
        MemRef ref;
        ref.pid = 1;
        for (int i = 0; i < 64; ++i) {
            ref.vaddr = 0x1000 + 32 * i;
            writer.write(ref);
        }
    }
    truncateTraceFile(trace, 8 + 64 * 11 - 5); // injected damage

    std::atomic<int> simulated{0};
    auto build = [&](SweepRunner &runner) {
        runner.add("baseline/128", [&] {
            ++simulated;
            return tinyBaseline(128);
        });
        runner.add("trace/corrupt", [&]() -> SimResult {
            TraceReadOptions strict;
            strict.strict = true;
            readTraceFile(trace, 1, strict);
            return SimResult{};
        });
        runner.add("config/invalid", [&] {
            ++simulated;
            return tinyBaseline(16);
        });
        runner.add("baseline/1024", [&] {
            ++simulated;
            return tinyBaseline(1024);
        });
    };

    SweepRunner first({manifest});
    build(first);
    SweepReport run1 = first.run();
    ASSERT_EQ(run1.outcomes.size(), 4u);
    EXPECT_EQ(run1.okCount(), 2u);
    EXPECT_EQ(run1.failedCount(), 2u);
    EXPECT_EQ(run1.outcomes[1].errorCategory, ErrorCategory::Trace);
    EXPECT_EQ(run1.outcomes[2].errorCategory, ErrorCategory::Config);
    EXPECT_TRUE(run1.outcomes[0].haveResult);
    EXPECT_TRUE(run1.outcomes[3].haveResult);
    EXPECT_EQ(simulated, 3); // two healthy + the invalid-config attempt

    SweepRunner second({manifest});
    build(second);
    SweepReport run2 = second.run();
    EXPECT_EQ(run2.skippedCount(), 2u); // healthy points not re-simulated
    EXPECT_EQ(run2.failedCount(), 2u);  // still-broken points re-tried
    EXPECT_EQ(simulated, 4); // only the invalid-config attempt repeats

    std::remove(trace.c_str());
}

// A resumed campaign appends to a manifest that already has content.
// The header decision must look at the file's real size, not the
// append-stream's initial position (implementation-defined per C11
// 7.21.5.3), or every resume writes a second header line.
TEST_F(SweepRunnerTest, ManifestHeaderWrittenOnceAcrossResumes)
{
    {
        SweepRunner first({manifest});
        first.add("a", [] { return fakeResult(1); });
        first.run();
    }
    {
        SweepRunner second({manifest});
        second.add("a", [] { return fakeResult(1); });
        second.add("b", [] { return fakeResult(2); });
        SweepReport report = second.run();
        EXPECT_EQ(report.skippedCount(), 1u);
        EXPECT_EQ(report.okCount(), 1u);
    }

    std::ifstream in(manifest);
    ASSERT_TRUE(in.is_open());
    int headers = 0;
    int ok_lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# rampage-sweep-checkpoint", 0) == 0)
            ++headers;
        // v2 completion lines carry a "crc=XXXXXXXX " prefix.
        if (line.rfind("crc=", 0) == 0 &&
            line.find(" ok ") == 12)
            ++ok_lines;
    }
    EXPECT_EQ(headers, 1);
    EXPECT_EQ(ok_lines, 2);
}

// The heartbeat is driven by the reporter's timed wait, so it fires
// while one long point is still mid-simulation, and it reports points
// simulated this run separately from checkpoint skips instead of
// folding the skips into apparent progress.
TEST_F(SweepRunnerTest, HeartbeatFiresDuringLongPointAndSplitsSkips)
{
    {
        SweepRunner first({manifest});
        first.add("fast", [] { return fakeResult(1); });
        first.run();
    }

    SweepRunner::Options opts;
    opts.checkpointPath = manifest;
    opts.heartbeatSeconds = 0.05;
    SweepRunner second(opts);
    second.add("fast", [] { return fakeResult(1); });
    second.add("slow", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return fakeResult(2);
    });

    setQuiet(false);
    ::testing::internal::CaptureStderr();
    SweepReport report = second.run();
    std::string err = ::testing::internal::GetCapturedStderr();
    setQuiet(true);

    EXPECT_EQ(report.skippedCount(), 1u);
    EXPECT_EQ(report.okCount(), 1u);
    // Fired before 'slow' finished: nothing simulated yet, one skip.
    EXPECT_NE(err.find("heartbeat 0/1 points simulated this run "
                       "(1 skipped)"),
              std::string::npos)
        << err;
}

// The tentpole guarantee: a parallel campaign is observably identical
// to a serial one — same per-point statuses, errors, simulated times
// and stats snapshots, and the same checkpoint-manifest line set.
TEST_F(SweepRunnerTest, ParallelRunMatchesSerialRun)
{
    std::string manifest4 = manifest + ".jobs4";
    std::remove(manifest4.c_str());

    SweepRunner::Options serial_opts;
    serial_opts.checkpointPath = manifest;
    serial_opts.jobs = 1;
    SweepRunner serial(serial_opts);
    addDeterminismPoints(serial);
    SweepReport one = serial.run();

    SweepRunner::Options parallel_opts;
    parallel_opts.checkpointPath = manifest4;
    parallel_opts.jobs = 4;
    SweepRunner parallel(parallel_opts);
    addDeterminismPoints(parallel);
    SweepReport four = parallel.run();

    ASSERT_EQ(one.outcomes.size(), 8u);
    ASSERT_EQ(four.outcomes.size(), 8u);
    EXPECT_EQ(one.okCount(), 6u);
    EXPECT_EQ(one.failedCount(), 2u);
    for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
        const PointOutcome &a = one.outcomes[i];
        const PointOutcome &b = four.outcomes[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.status, b.status) << a.id;
        EXPECT_EQ(a.errorCategory, b.errorCategory) << a.id;
        EXPECT_EQ(a.error, b.error) << a.id;
        EXPECT_EQ(a.haveResult, b.haveResult) << a.id;
        EXPECT_EQ(a.result.elapsedPs, b.result.elapsedPs) << a.id;
        EXPECT_EQ(a.result.stats.toText(), b.result.stats.toText())
            << a.id;
    }
    EXPECT_EQ(manifestLineSet(manifest), manifestLineSet(manifest4));

    std::remove(manifest4.c_str());
}

// Same determinism bar with model-integrity audits armed and a fault
// injected: the parallel run must reject the same point for the same
// violated invariant the serial run names.
TEST_F(SweepRunnerTest, ParallelAuditedFaultMatchesSerial)
{
    auto build = [](SweepRunner &runner) {
        runner.add("faulty/leak-frame", [] {
            RampageConfig cfg = rampageConfig(1'000'000'000ull, 1024);
            cfg.pager.baseSramBytes = 256 * kib;
            SimConfig sim;
            sim.maxRefs = 60'000;
            sim.quantumRefs = 10'000;
            sim.auditLevel = AuditLevel::Boundaries;
            sim.faultPlan = "leak-frame";
            return simulateSystem(cfg, sim);
        });
        runner.add("clean/baseline", [] { return tinyBaseline(1024); });
        runner.add("clean/rampage", [] { return tinyRampage(1024); });
    };

    auto runWith = [&](unsigned jobs) {
        SweepRunner::Options opts;
        opts.jobs = jobs;
        SweepRunner runner(opts);
        build(runner);
        return runner.run();
    };
    SweepReport one = runWith(1);
    SweepReport four = runWith(4);

    ASSERT_EQ(one.outcomes.size(), 3u);
    ASSERT_EQ(four.outcomes.size(), 3u);
    EXPECT_EQ(one.outcomes[0].status, PointStatus::AuditFailed);
    EXPECT_EQ(four.outcomes[0].status, PointStatus::AuditFailed);
    EXPECT_EQ(one.outcomes[0].auditInvariant, "pager.leak");
    EXPECT_EQ(four.outcomes[0].auditInvariant,
              one.outcomes[0].auditInvariant);
    EXPECT_EQ(four.outcomes[0].error, one.outcomes[0].error);
    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(one.outcomes[i].status, PointStatus::Ok);
        EXPECT_EQ(four.outcomes[i].status, PointStatus::Ok);
        EXPECT_EQ(four.outcomes[i].result.elapsedPs,
                  one.outcomes[i].result.elapsedPs);
    }
}

// Options::jobs defaults to resolveJobs() so the --jobs flag and
// RAMPAGE_JOBS reach embedders that never touch the option, and a
// pool wider than the campaign is harmless.
TEST_F(SweepRunnerTest, MoreWorkersThanPointsIsHarmless)
{
    SweepRunner::Options opts;
    opts.jobs = 32;
    SweepRunner runner(opts);
    runner.add("only", [] { return fakeResult(7); });
    SweepReport report = runner.run();
    ASSERT_EQ(report.okCount(), 1u);
    EXPECT_EQ(report.outcomes[0].id, "only");
}

// ---------------------------------------------------------- deadlines

// A runaway point is cancelled cooperatively at the watchdog seam:
// the outcome records TimedOut with the references executed at
// cancel, healthy points are untouched, and the timed-out point is
// NOT checkpointed — a resume re-runs it.
TEST_F(SweepRunnerTest, DeadlineCancelsRunawayPointCooperatively)
{
    auto runaway = [] {
        // Far more work than the deadline allows at this scale; the
        // per-reference deadline poll cancels it mid-simulation.
        SimConfig sim;
        sim.maxRefs = 400'000'000;
        sim.quantumRefs = 100'000;
        return simulateSystem(baselineConfig(200'000'000ull, 128),
                              sim);
    };

    SweepRunner::Options opts;
    opts.checkpointPath = manifest;
    opts.jobs = 1;
    opts.pointDeadlineSeconds = 0.2;
    SweepRunner runner(opts);
    runner.add("runaway", runaway);
    runner.add("healthy", [] { return tinyBaseline(1024); });

    SweepReport report = runner.run();
    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].status, PointStatus::TimedOut);
    EXPECT_EQ(report.outcomes[0].errorCategory,
              ErrorCategory::Timeout);
    EXPECT_GT(report.outcomes[0].refsAtCancel, 0u);
    EXPECT_NE(report.outcomes[0].error.find("deadline"),
              std::string::npos);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(report.timedOutCount(), 1u);
    EXPECT_FALSE(report.allOk());

    // Only the healthy point is checkpointed.
    std::vector<std::string> lines = manifestLineSet(manifest);
    for (const std::string &line : lines)
        EXPECT_EQ(line.find("id=runaway"), std::string::npos) << line;
}

// The injected hang fault spins at the cancellation seam forever; a
// deadline turns that into a TimedOut outcome within a small factor
// of the configured bound.
TEST_F(SweepRunnerTest, HangFaultTimesOutWithinDeadline)
{
    setKnob("RAMPAGE_SWEEP_FAULT", "hang@stuck");
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.pointDeadlineSeconds = 0.2;
    SweepRunner runner(opts);
    runner.add("stuck", [] { return fakeResult(1); });
    runner.add("fine", [] { return fakeResult(2); });

    auto started = std::chrono::steady_clock::now();
    SweepReport report = runner.run();
    double took = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();
    setKnob("RAMPAGE_SWEEP_FAULT", "");

    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].status, PointStatus::TimedOut);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);
    EXPECT_LT(took, 5.0); // cancelled, not hung
}

TEST_F(SweepRunnerTest, DeadlineParsingIsStrict)
{
    EXPECT_THROW(parsePointDeadline("abc"), ConfigError);
    EXPECT_THROW(parsePointDeadline("-1"), ConfigError);
    EXPECT_THROW(parsePointDeadline("0"), ConfigError);
    EXPECT_THROW(parsePointDeadline("1.5x"), ConfigError);
    EXPECT_THROW(parsePointDeadline(""), ConfigError);
    EXPECT_THROW(parsePointDeadline("inf"), ConfigError);
    EXPECT_DOUBLE_EQ(parsePointDeadline("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(parsePointDeadline(".5"), 0.5);
}

// ------------------------------------------------------------ retries

// A transient (trace/io) failure retries up to maxRetries with the
// attempt count recorded in the outcome and the manifest line; a
// deterministic config failure never retries.
TEST_F(SweepRunnerTest, TransientFailuresRetryDeterministicOnesDoNot)
{
    std::atomic<int> flaky_runs{0};
    std::atomic<int> config_runs{0};

    SweepRunner::Options opts;
    opts.checkpointPath = manifest;
    opts.jobs = 1;
    opts.maxRetries = 3;
    opts.retryBackoffSeconds = 0.001;
    SweepRunner runner(opts);
    runner.add("flaky", [&]() -> SimResult {
        if (++flaky_runs < 3)
            throw TraceError("transient trace damage");
        return fakeResult(42);
    });
    runner.add("broken", [&]() -> SimResult {
        ++config_runs;
        throw ConfigError("deterministically invalid");
    });

    SweepReport report = runner.run();
    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(report.outcomes[0].attempts, 3u);
    EXPECT_EQ(flaky_runs, 3);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Failed);
    EXPECT_EQ(report.outcomes[1].attempts, 1u);
    EXPECT_EQ(config_runs, 1);

    // The manifest records how many attempts the completion took.
    bool found = false;
    for (const std::string &line : manifestLineSet(manifest))
        if (line.find("id=flaky") != std::string::npos) {
            EXPECT_NE(line.find("attempts=3"), std::string::npos)
                << line;
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST_F(SweepRunnerTest, RetriesExhaustedReportsLastError)
{
    std::atomic<int> runs{0};
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.maxRetries = 2;
    opts.retryBackoffSeconds = 0.001;
    SweepRunner runner(opts);
    runner.add("always-bad", [&]() -> SimResult {
        ++runs;
        throw IoError("disk on fire");
    });

    SweepReport report = runner.run();
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(report.outcomes[0].errorCategory, ErrorCategory::Io);
    EXPECT_EQ(report.outcomes[0].attempts, 3u); // 1 try + 2 retries
    EXPECT_EQ(runs, 3);
}

TEST_F(SweepRunnerTest, RetryCategoryClassification)
{
    EXPECT_TRUE(isRetryableCategory(ErrorCategory::Trace));
    EXPECT_TRUE(isRetryableCategory(ErrorCategory::Io));
    EXPECT_FALSE(isRetryableCategory(ErrorCategory::Config));
    EXPECT_FALSE(isRetryableCategory(ErrorCategory::Internal));
    EXPECT_FALSE(isRetryableCategory(ErrorCategory::Audit));
    EXPECT_FALSE(isRetryableCategory(ErrorCategory::Timeout));
}

TEST_F(SweepRunnerTest, RetriesAndIsolateParsingAreStrict)
{
    EXPECT_THROW(parseRetries("abc"), ConfigError);
    EXPECT_THROW(parseRetries("-1"), ConfigError);
    EXPECT_THROW(parseRetries("3x"), ConfigError);
    EXPECT_THROW(parseRetries("17"), ConfigError); // > maxSweepRetries
    EXPECT_EQ(parseRetries("0"), 0u);
    EXPECT_EQ(parseRetries("16"), 16u);
}

// -------------------------------------------------- process isolation

// NOTE: isolation tests pin jobs = 1.  fork() from a multithreaded
// process may only safely call async-signal-safe functions in the
// child, and TSan rejects it outright; the runner itself forks from
// its worker threads, which is safe for *this* child (it only
// simulates and writes a pipe), but the tests stay conservative.

// A point that dies of SIGSEGV becomes a Crashed outcome carrying the
// signal and the debug-ring tail it relayed before dying, and the
// campaign continues to the next point.
TEST_F(SweepRunnerTest, IsolatedCrashIsContainedWithRingTail)
{
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.isolate = 1;
    SweepRunner runner(opts);
    runner.add("doomed", []() -> SimResult {
        debugRecordRaw("pager: about to dereference garbage");
        ::raise(SIGSEGV);
        return SimResult{};
    });
    runner.add("survivor", [] { return tinyBaseline(1024); });

    SweepReport report = runner.run();
    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Crashed);
    EXPECT_EQ(report.outcomes[0].signalNumber, SIGSEGV);
    EXPECT_NE(report.outcomes[0].error.find("signal"),
              std::string::npos);
    ASSERT_FALSE(report.outcomes[0].debugTail.empty());
    EXPECT_NE(report.outcomes[0]
                  .debugTail.back()
                  .find("dereference garbage"),
              std::string::npos);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(report.crashedCount(), 1u);
    EXPECT_FALSE(report.allOk());
}

// The injected crash fault exercises the same containment through
// the fault-injection plumbing the CI smoke uses.
TEST_F(SweepRunnerTest, IsolatedCrashFaultIsContained)
{
    setKnob("RAMPAGE_SWEEP_FAULT", "crash@victim");
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.isolate = 1;
    SweepRunner runner(opts);
    runner.add("victim", [] { return fakeResult(1); });
    runner.add("bystander", [] { return fakeResult(2); });
    SweepReport report = runner.run();
    setKnob("RAMPAGE_SWEEP_FAULT", "");

    EXPECT_EQ(report.outcomes[0].status, PointStatus::Crashed);
    EXPECT_EQ(report.outcomes[0].signalNumber, SIGSEGV);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);
}

// Every observable of an isolated campaign — statuses, categories,
// error text, audit invariants, simulated times, the full stats
// snapshot — must match the in-process run bit for bit: doubles cross
// the pipe as bit patterns, exceptions are rebuilt field-exact.
TEST_F(SweepRunnerTest, IsolatedCampaignMatchesInProcess)
{
    auto build = [](SweepRunner &runner) {
        runner.add("baseline/512", [] { return tinyBaseline(512); });
        runner.add("2way/512", [] { return tinyTwoWay(512); });
        runner.add("rampage/1024", [] { return tinyRampage(1024); });
        runner.add("poison/config",
                   [] { return tinyBaseline(16); });
        runner.add("faulty/leak-frame", [] {
            RampageConfig cfg = rampageConfig(1'000'000'000ull, 1024);
            cfg.pager.baseSramBytes = 256 * kib;
            SimConfig sim;
            sim.maxRefs = 60'000;
            sim.quantumRefs = 10'000;
            sim.auditLevel = AuditLevel::Boundaries;
            sim.faultPlan = "leak-frame";
            return simulateSystem(cfg, sim);
        });
    };

    auto runWith = [&](int isolate) {
        SweepRunner::Options opts;
        opts.jobs = 1;
        opts.isolate = isolate;
        SweepRunner runner(opts);
        build(runner);
        return runner.run();
    };
    SweepReport inProcess = runWith(0);
    SweepReport forked = runWith(1);

    ASSERT_EQ(inProcess.outcomes.size(), forked.outcomes.size());
    for (std::size_t i = 0; i < inProcess.outcomes.size(); ++i) {
        const PointOutcome &a = inProcess.outcomes[i];
        const PointOutcome &b = forked.outcomes[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.status, b.status) << a.id;
        EXPECT_EQ(a.errorCategory, b.errorCategory) << a.id;
        EXPECT_EQ(a.error, b.error) << a.id;
        EXPECT_EQ(a.auditInvariant, b.auditInvariant) << a.id;
        EXPECT_EQ(a.haveResult, b.haveResult) << a.id;
        EXPECT_EQ(a.result.elapsedPs, b.result.elapsedPs) << a.id;
        EXPECT_EQ(a.result.stallPs, b.result.stallPs) << a.id;
        EXPECT_EQ(a.result.systemName, b.result.systemName) << a.id;
        EXPECT_EQ(a.result.issueHz, b.result.issueHz) << a.id;
        EXPECT_EQ(a.result.counts.refs, b.result.counts.refs) << a.id;
        EXPECT_EQ(a.result.stats.toText(), b.result.stats.toText())
            << a.id;
        // Rebuilt exceptions rethrow with identical what().
        if (a.exception) {
            ASSERT_TRUE(b.exception) << a.id;
            std::string what_a, what_b;
            try {
                std::rethrow_exception(a.exception);
            } catch (const std::exception &e) {
                what_a = e.what();
            }
            try {
                std::rethrow_exception(b.exception);
            } catch (const std::exception &e) {
                what_b = e.what();
            }
            EXPECT_EQ(what_a, what_b) << a.id;
        }
    }
}

// A child that hangs WITHOUT reaching the cooperative seam (a plain
// blocking sleep) is hard-killed by the parent at deadline + grace
// and reported TimedOut.
TEST_F(SweepRunnerTest, IsolatedNonPollingHangIsHardKilled)
{
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.isolate = 1;
    opts.pointDeadlineSeconds = 0.2;
    SweepRunner runner(opts);
    runner.add("comatose", [] {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return fakeResult(1);
    });

    auto started = std::chrono::steady_clock::now();
    SweepReport report = runner.run();
    double took = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();

    EXPECT_EQ(report.outcomes[0].status, PointStatus::TimedOut);
    EXPECT_EQ(report.outcomes[0].errorCategory,
              ErrorCategory::Timeout);
    EXPECT_NE(report.outcomes[0].error.find("killed"),
              std::string::npos);
    EXPECT_LT(took, 10.0); // nowhere near the 30 s sleep
}

// ------------------------------------------------- manifest edges

// The torn-final-line repair: a manifest whose last append was cut
// mid-line resumes with every complete point skipped, re-simulates
// exactly the torn one, and leaves the file healed.
TEST_F(SweepRunnerTest, TornFinalManifestLineIsRepairedAndReSimulated)
{
    std::atomic<int> a_runs{0}, b_runs{0};
    auto build = [&](SweepRunner &runner) {
        runner.add("a", [&] {
            ++a_runs;
            return fakeResult(10);
        });
        runner.add("b", [&] {
            ++b_runs;
            return fakeResult(20);
        });
    };

    {
        SweepRunner first({manifest});
        build(first);
        first.run();
    }
    EXPECT_EQ(a_runs, 1);
    EXPECT_EQ(b_runs, 1);

    // Tear the final line mid-append, exactly as a SIGKILL would.
    std::ifstream in(manifest, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::size_t last_line =
        text.rfind('\n', text.size() - 2) + 1;
    std::size_t cut = last_line + (text.size() - last_line) / 2;
    std::ofstream out(manifest,
                      std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(cut));
    out.close();

    SweepRunner second({manifest});
    build(second);
    SweepReport report = second.run();
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Skipped);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(a_runs, 1); // intact line still skips
    EXPECT_EQ(b_runs, 2); // exactly the torn point re-simulated

    // The file healed: a third resume skips everything.
    SweepRunner third({manifest});
    build(third);
    SweepReport again = third.run();
    EXPECT_EQ(again.skippedCount(), 2u);
}

// An interior line whose CRC does not match its body (bit rot, hand
// edits) is ignored, costing exactly that point a re-simulation.
TEST_F(SweepRunnerTest, CrcMismatchedManifestLineIsReSimulated)
{
    std::atomic<int> a_runs{0};
    auto build = [&](SweepRunner &runner) {
        runner.add("a", [&] {
            ++a_runs;
            return fakeResult(10);
        });
    };
    {
        SweepRunner first({manifest});
        build(first);
        first.run();
    }

    // Flip a digit inside the protected body; the CRC now lies.
    std::ifstream in(manifest, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::size_t at = text.find("elapsed_ps=10");
    ASSERT_NE(at, std::string::npos);
    text[at + 11] = '9';
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();

    SweepRunner second({manifest});
    build(second);
    SweepReport report = second.run();
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(a_runs, 2);
}

// Two runs racing on one manifest can append the same completion
// twice; a resume collapses the duplicate to a single skip.
TEST_F(SweepRunnerTest, DuplicateManifestEntriesCollapseToOneSkip)
{
    std::atomic<int> runs{0};
    auto build = [&](SweepRunner &runner) {
        runner.add("a", [&] {
            ++runs;
            return fakeResult(10);
        });
    };
    {
        SweepRunner first({manifest});
        build(first);
        first.run();
    }

    // Duplicate the completion line, as a concurrent stale run would.
    std::ifstream in(manifest, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::size_t line_at = text.find("crc=");
    ASSERT_NE(line_at, std::string::npos);
    std::ofstream out(manifest,
                      std::ios::binary | std::ios::app);
    out << text.substr(line_at);
    out.close();

    SweepRunner second({manifest});
    build(second);
    SweepReport report = second.run();
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Skipped);
    EXPECT_EQ(runs, 1);
}

// A manifest from a newer build must be refused with an error naming
// the version — guessing at an unknown format could silently skip
// points that are not done.
TEST_F(SweepRunnerTest, NewerManifestVersionIsRejected)
{
    {
        std::ofstream out(manifest);
        out << "# rampage-sweep-checkpoint v3\n"
            << "shape-of-things-to-come ok id=a\n";
    }
    SweepRunner runner({manifest});
    runner.add("a", [] { return fakeResult(1); });
    try {
        runner.run();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("v3"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(manifest),
                  std::string::npos)
            << e.what();
    }
}

// v1 manifests (pre-CRC) keep resuming via the legacy lenient parse.
TEST_F(SweepRunnerTest, LegacyV1ManifestStillResumes)
{
    {
        std::ofstream out(manifest);
        out << "# rampage-sweep-checkpoint v1\n"
            << "ok wall=0.5 elapsed_ps=100 id=a\n"
            << "audit wall=0.1 invariant=pager.leak id=b\n";
    }
    std::atomic<int> runs{0};
    SweepRunner runner({manifest});
    runner.add("a", [&] {
        ++runs;
        return fakeResult(1);
    });
    runner.add("b", [&] {
        ++runs;
        return fakeResult(2);
    });
    SweepReport report = runner.run();
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Skipped);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(runs, 1); // audit line is forensic, not a completion
}

// The torn-manifest-line fault tears a real append through the real
// writer; the next campaign re-simulates exactly the torn point.
TEST_F(SweepRunnerTest, TornManifestLineFaultCostsOnePoint)
{
    std::atomic<int> a_runs{0}, b_runs{0}, c_runs{0};
    auto build = [&](SweepRunner &runner) {
        runner.add("a", [&] {
            ++a_runs;
            return fakeResult(10);
        });
        runner.add("b", [&] {
            ++b_runs;
            return fakeResult(20);
        });
        runner.add("c", [&] {
            ++c_runs;
            return fakeResult(30);
        });
    };

    setKnob("RAMPAGE_SWEEP_FAULT", "torn-manifest-line@b");
    {
        SweepRunner first({manifest});
        build(first);
        SweepReport report = first.run();
        EXPECT_EQ(report.okCount(), 3u); // the tear is invisible live
    }
    setKnob("RAMPAGE_SWEEP_FAULT", "");

    SweepRunner second({manifest});
    build(second);
    SweepReport report = second.run();
    EXPECT_EQ(report.outcomes[0].status, PointStatus::Skipped);
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);
    EXPECT_EQ(report.outcomes[2].status, PointStatus::Skipped);
    EXPECT_EQ(a_runs, 1);
    EXPECT_EQ(b_runs, 2);
    EXPECT_EQ(c_runs, 1);
}

} // namespace
} // namespace rampage
