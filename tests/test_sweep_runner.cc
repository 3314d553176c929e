/**
 * @file
 * Fault-tolerant sweep engine tests: poisoned points fail in
 * isolation with a categorized outcome while the rest of the campaign
 * completes, in-process, on a worker pool, under a deadline, or in
 * forked children.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/audit.hh"
#include "core/fault_injection.hh"
#include "core/sweep.hh"
#include "trace/corrupter.hh"
#include "trace/file_format.hh"
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
    void SetUp() override { setQuiet(true); }

    void TearDown() override { setQuiet(false); }

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

TEST_F(SweepRunnerTest, OkPointsReportWallTimeAndNoError)
{
    SweepRunner runner;
    runner.add("real", [] { return tinyBaseline(1024); });
    SweepReport report = runner.run();
    ASSERT_EQ(report.okCount(), 1u);
    EXPECT_GE(report.outcomes[0].wallSeconds, 0.0);
    EXPECT_TRUE(report.outcomes[0].error.empty());
    EXPECT_TRUE(report.outcomes[0].auditViolations.empty());
}

// A failed audit's post-mortem is the AuditError's own violation list:
// every one is printed, also those past the four that what() lists,
// and also when the point ran in a forked child.
TEST_F(SweepRunnerTest, AuditFailedPointReportsEveryViolation)
{
    for (int isolate : {0, 1}) {
        SweepRunner::Options opts;
        opts.jobs = 1;
        opts.isolate = isolate;
        SweepRunner runner(opts);
        runner.add("corrupt", []() -> SimResult {
            std::vector<AuditViolation> violations;
            for (int i = 0; i < 6; ++i)
                violations.push_back(AuditViolation{
                    "synthetic.v" + std::to_string(i),
                    "detail " + std::to_string(i)});
            throw AuditError("quantum boundary (ref 1)",
                             std::move(violations));
        });

        ::testing::internal::CaptureStderr();
        SweepReport report = runner.run();
        std::string err = ::testing::internal::GetCapturedStderr();

        ASSERT_EQ(report.outcomes.size(), 1u);
        const PointOutcome &outcome = report.outcomes[0];
        ASSERT_EQ(outcome.status, PointStatus::AuditFailed) << isolate;
        EXPECT_EQ(outcome.auditViolations.size(), 6u) << isolate;
        EXPECT_EQ(outcome.error.find("synthetic.v5"), std::string::npos)
            << "what() should list only the first four violations";
        std::size_t lines = 0;
        for (std::size_t at = err.find("violated");
             at != std::string::npos; at = err.find("violated", at + 1))
            ++lines;
        EXPECT_EQ(lines, 6u) << isolate << "\n" << err;
        for (int i = 0; i < 6; ++i)
            EXPECT_NE(err.find(formatErrorMessage(
                          "  audit: violated synthetic.v%d at quantum "
                          "boundary (ref 1): detail %d\n",
                          i, i)),
                      std::string::npos)
                << isolate << "\n" << err;
    }
}

/**
 * The acceptance scenario end to end: a campaign holding an injected
 * corrupt-trace point and an invalid-config point among healthy ones
 * resumes past both and completes with partial results.
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
    SweepRunner runner;
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

    SweepReport report = runner.run();
    ASSERT_EQ(report.outcomes.size(), 4u);
    EXPECT_EQ(report.okCount(), 2u);
    EXPECT_EQ(report.failedCount(), 2u);
    EXPECT_EQ(report.outcomes[1].errorCategory, ErrorCategory::Trace);
    EXPECT_EQ(report.outcomes[2].errorCategory, ErrorCategory::Config);
    EXPECT_TRUE(report.outcomes[0].haveResult);
    EXPECT_TRUE(report.outcomes[3].haveResult);
    EXPECT_EQ(simulated, 3); // two healthy + the invalid-config attempt

    std::remove(trace.c_str());
}

// The tentpole guarantee: a parallel campaign is observably identical
// to a serial one — same per-point statuses, errors, simulated times
// and stats snapshots.
TEST_F(SweepRunnerTest, ParallelRunMatchesSerialRun)
{
    SweepRunner::Options serial_opts;
    serial_opts.jobs = 1;
    SweepRunner serial(serial_opts);
    addDeterminismPoints(serial);
    SweepReport one = serial.run();

    SweepRunner::Options parallel_opts;
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
// cancel, and healthy points are untouched.
TEST_F(SweepRunnerTest, DeadlineCancelsRunawayPointCooperatively)
{
    auto runaway = [] {
        // Far more work than the deadline allows at this scale; the
        // per-chunk deadline poll cancels it mid-simulation.
        SimConfig sim;
        sim.maxRefs = 400'000'000;
        sim.quantumRefs = 100'000;
        return simulateSystem(baselineConfig(200'000'000ull, 128),
                              sim);
    };

    SweepRunner::Options opts;
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
}

// Every per-chunk poll reads the clock, so an expired deadline
// cancels a point within its first chunks instead of after a stride
// of 1024 polls (about 4 M references).
TEST_F(SweepRunnerTest, DeadlineCancelsWithinFirstChunks)
{
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.pointDeadlineSeconds = 1e-6;
    SweepRunner runner(opts);
    runner.add("million", [] {
        SimConfig sim;
        sim.maxRefs = 1'000'000;
        sim.quantumRefs = 100'000;
        return simulateSystem(baselineConfig(200'000'000ull, 1024),
                              sim);
    });

    SweepReport report = runner.run();
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].status, PointStatus::TimedOut);
    EXPECT_LT(report.outcomes[0].refsAtCancel, 64'000u);
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

// A malformed RAMPAGE_SWEEP_FAULT is rejected by run() itself, on the
// calling thread and before any point runs, so a bench's cliMain
// turns it into "fatal: ..." and exit 1 instead of an escape from a
// worker thread.  The retired torn-manifest-line kind is as unknown
// as a typo.
TEST_F(SweepRunnerTest, BadSweepFaultSpecThrowsBeforeAnyPointRuns)
{
    for (const char *spec : {"bogus", "torn-manifest-line"}) {
        SCOPED_TRACE(spec);
        setKnob("RAMPAGE_SWEEP_FAULT", spec);
        std::atomic<int> runs{0};
        SweepRunner::Options opts;
        opts.jobs = 2;
        SweepRunner runner(opts);
        runner.add("a", [&] {
            ++runs;
            return fakeResult(1);
        });
        runner.add("b", [&] {
            ++runs;
            return fakeResult(2);
        });
        try {
            runner.run();
            ADD_FAILURE() << "expected ConfigError";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown sweep fault"),
                      std::string::npos)
                << e.what();
        }
        setKnob("RAMPAGE_SWEEP_FAULT", "");
        EXPECT_EQ(runs, 0);
    }
}

// -------------------------------------------------- process isolation

// NOTE: isolation tests pin jobs = 1.  fork() from a multithreaded
// process may only safely call async-signal-safe functions in the
// child, and TSan rejects it outright; the runner itself forks from
// its worker threads, which is safe for *this* child (it only
// simulates and writes a pipe), but the tests stay conservative.

// A point that dies of SIGSEGV becomes a Crashed outcome carrying the
// signal, and the campaign continues to the next point.
TEST_F(SweepRunnerTest, IsolatedCrashIsContained)
{
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.isolate = 1;
    SweepRunner runner(opts);
    runner.add("doomed", []() -> SimResult {
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

} // namespace
} // namespace rampage
