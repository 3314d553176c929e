/**
 * @file
 * Tests for the runtime model-integrity audits and the model-level
 * fault injector: clean runs at every audit level across all three
 * hierarchies, one injected fault per checker proving it fires, the
 * end-to-end Simulator injection path, and the SweepRunner's
 * audit-failed outcome.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/audit.hh"
#include "core/conventional.hh"
#include "core/fault_injection.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "os/scheduler.hh"
#include "trace/synthetic.hh"
#include "util/audit.hh"
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
    sim.watchdogRefBudget = refs * 8 + 1'000'000;
    return sim;
}

RampageConfig
smallRampage(bool switch_on_miss = false)
{
    RampageConfig cfg = rampageConfig(oneGhz, 1024, switch_on_miss);
    cfg.pager.baseSramBytes = 256 * kib;
    return cfg;
}

PagedConfig
smallVar()
{
    // A genuinely per-pid configuration: the default page spans two
    // base frames, so the config cannot normalize down to the uniform
    // policy (which would make var-owner-drop inapplicable).
    PagedConfig cfg;
    cfg.common = defaultCommon(oneGhz);
    cfg.pager.pageBytes = 512; // base frame size
    cfg.pager.defaultPageBytes = 1024;
    cfg.pager.baseSramBytes = 512 * kib;
    return cfg;
}

/** Populate live state: a short unaudited blocking run. */
void
warmUp(Hierarchy &hier, std::uint64_t refs = 30'000)
{
    Simulator sim(hier, tinyWorkload(), tinySim(refs, 10'000));
    sim.run();
}

/** Audit once; return the violation list (empty when clean). */
std::vector<AuditViolation>
auditViolations(const Hierarchy &hier)
{
    Auditor auditor(AuditLevel::Boundaries);
    try {
        auditor.auditHierarchy(hier, "test audit");
    } catch (const AuditError &e) {
        return e.violations();
    }
    return {};
}

bool
hasInvariant(const std::vector<AuditViolation> &violations,
             const std::string &name)
{
    for (const AuditViolation &violation : violations)
        if (violation.invariant == name)
            return true;
    return false;
}

// ---------------------------------------------------------- level parsing

TEST(AuditLevelParse, KnownNames)
{
    EXPECT_EQ(parseAuditLevel("off"), AuditLevel::Off);
    EXPECT_EQ(parseAuditLevel("boundaries"), AuditLevel::Boundaries);
    EXPECT_EQ(parseAuditLevel("paranoid"), AuditLevel::Paranoid);
    EXPECT_STREQ(auditLevelName(AuditLevel::Paranoid), "paranoid");
}

TEST(AuditLevelParse, UnknownNameThrows)
{
    EXPECT_THROW(parseAuditLevel("extreme"), ConfigError);
    EXPECT_THROW(parseAuditLevel(""), ConfigError);
}

TEST(FaultPlanParse, Specs)
{
    EXPECT_EQ(parseFaultPlan("").kind, ModelFault::None);
    EXPECT_EQ(parseFaultPlan("none").kind, ModelFault::None);

    FaultPlan plan = parseFaultPlan("l1-tag-flip");
    EXPECT_EQ(plan.kind, ModelFault::L1TagFlip);
    EXPECT_EQ(plan.seed, 1u);

    plan = parseFaultPlan("dir-alias:7");
    EXPECT_EQ(plan.kind, ModelFault::DirAlias);
    EXPECT_EQ(plan.seed, 7u);

    EXPECT_STREQ(modelFaultName(ModelFault::SkewCycles), "skew-cycles");
}

TEST(FaultPlanParse, BadSpecsThrow)
{
    EXPECT_THROW(parseFaultPlan("tag-smash"), ConfigError);
    EXPECT_THROW(parseFaultPlan("l1-tag-flip:"), ConfigError);
    EXPECT_THROW(parseFaultPlan("l1-tag-flip:x"), ConfigError);
    EXPECT_THROW(parseFaultPlan("l1-tag-flip:-1"), ConfigError);
    EXPECT_THROW(parseFaultPlan("l1-tag-flip: 7"), ConfigError);
}

TEST(AuditConfig, ArmedSimConfigIsHardened)
{
    SimConfig sim = armedSimConfig(1'000, 100);
    EXPECT_EQ(sim.maxRefs, 1'000u);
    EXPECT_EQ(sim.quantumRefs, 100u);
    EXPECT_GT(sim.watchdogRefBudget, 0u);
}

// ------------------------------------------------------------- clean runs

TEST(AuditClean, ConventionalParanoid)
{
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.auditLevel = AuditLevel::Paranoid;
    Simulator driver(hier, tinyWorkload(), sim);
    SimResult result;
    EXPECT_NO_THROW(result = driver.run());
    const StatsSnapshot::Entry *runs = result.stats.find("audit.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_GT(runs->counter, 0u);
    const StatsSnapshot::Entry *checks =
        result.stats.find("audit.checks");
    ASSERT_NE(checks, nullptr);
    EXPECT_GT(checks->counter, 0u);
}

TEST(AuditClean, RampageParanoid)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.auditLevel = AuditLevel::Paranoid;
    Simulator driver(hier, tinyWorkload(), sim);
    EXPECT_NO_THROW(driver.run());
}

TEST(AuditClean, RampageSwitchOnMissParanoid)
{
    auto hier_owner = makeHierarchy(smallRampage(true));
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.switchOnMiss = true;
    sim.auditLevel = AuditLevel::Paranoid;
    Simulator driver(hier, tinyWorkload(), sim);
    EXPECT_NO_THROW(driver.run());
}

TEST(AuditClean, VarRampageParanoid)
{
    auto hier_owner = makeHierarchy(smallVar());
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.auditLevel = AuditLevel::Paranoid;
    Simulator driver(hier, tinyWorkload(), sim);
    EXPECT_NO_THROW(driver.run());
}

TEST(AuditClean, AuditedRunIsByteIdentical)
{
    // Audits must be side-effect-free: the paranoid run's entire
    // outcome (timeline and every event count) matches the unaudited
    // run exactly.
    auto run = [](AuditLevel level) {
        auto hier_owner = makeHierarchy(smallRampage());
        Hierarchy &hier = *hier_owner;
        SimConfig sim = tinySim();
        sim.auditLevel = level;
        Simulator driver(hier, tinyWorkload(), sim);
        return driver.run();
    };
    SimResult off = run(AuditLevel::Off);
    SimResult paranoid = run(AuditLevel::Paranoid);
    EXPECT_EQ(off.elapsedPs, paranoid.elapsedPs);
    EXPECT_EQ(off.counts.refs, paranoid.counts.refs);
    EXPECT_EQ(off.counts.l2Misses, paranoid.counts.l2Misses);
    EXPECT_EQ(off.counts.tlbMisses, paranoid.counts.tlbMisses);
    EXPECT_EQ(off.counts.dramReads, paranoid.counts.dramReads);
    EXPECT_EQ(off.counts.dramPs, paranoid.counts.dramPs);
    EXPECT_EQ(off.counts.overheadRefs, paranoid.counts.overheadRefs);
}

TEST(AuditClean, OffRunCarriesNoAuditStats)
{
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    Simulator driver(hier, tinyWorkload(), tinySim(20'000, 10'000));
    SimResult result = driver.run();
    EXPECT_EQ(result.stats.find("audit.runs"), nullptr);
    EXPECT_EQ(result.stats.find("audit.checks"), nullptr);
}

// ------------------------------------------- one fault per checker fires

TEST(AuditFault, L1TagFlipBreaksRampageInclusion)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("l1-tag-flip"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "inclusion.l1"));
}

TEST(AuditFault, L1TagFlipBreaksConventionalInclusion)
{
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("l1-tag-flip"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "inclusion.l1"));
}

TEST(AuditFault, L2TagFlipOrphansL1Block)
{
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("l2-tag-flip"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "inclusion.l1"));
}

TEST(AuditFault, TlbFrameXorBreaksBackingRampage)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("tlb-frame-xor"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "tlb.backing"));
}

TEST(AuditFault, TlbFrameXorBreaksBackingConventional)
{
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("tlb-frame-xor"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "tlb.backing"));
}

TEST(AuditFault, TlbIndexStaleBreaksTheIndex)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    ASSERT_TRUE(auditViolations(hier).empty());
    FaultInjector injector(parseFaultPlan("tlb-index-stale:5"));
    ASSERT_TRUE(injector.apply(hier));
    std::vector<AuditViolation> violations = auditViolations(hier);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations.front().invariant, "tlb.index");
}

TEST(AuditFault, IptUnlinkBreaksChain)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("ipt-unlink"));
    ASSERT_TRUE(injector.apply(hier));
    std::vector<AuditViolation> violations = auditViolations(hier);
    EXPECT_TRUE(hasInvariant(violations, "ipt.chain"));
    EXPECT_TRUE(hasInvariant(violations, "ipt.count"));
}

TEST(AuditFault, StaleDirtyBitIsCaught)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("stale-dirty"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(
        hasInvariant(auditViolations(hier), "pager.stale_dirty"));
}

TEST(AuditFault, LeakedFrameIsCaught)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("leak-frame"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "pager.leak"));
}

TEST(AuditFault, DirAliasIsCaughtRampage)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("dir-alias"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "dir.alias"));
}

TEST(AuditFault, DirAliasIsCaughtConventional)
{
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("dir-alias"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "dir.alias"));
}

TEST(AuditFault, VarOwnerDropBreaksFrameMap)
{
    auto hier_owner = makeHierarchy(smallVar());
    Hierarchy &hier = *hier_owner;
    warmUp(hier);
    FaultInjector injector(parseFaultPlan("var-owner-drop"));
    ASSERT_TRUE(injector.apply(hier));
    EXPECT_TRUE(hasInvariant(auditViolations(hier), "var.frame_map"));
}

TEST(AuditFault, SkewedCyclesBreakTimeConservation)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    Simulator driver(hier, tinyWorkload(), tinySim());
    SimResult result = driver.run();

    Auditor auditor(AuditLevel::Boundaries);
    // Clean state re-prices exactly...
    EXPECT_NO_THROW(
        auditor.auditBlocking(hier, result.elapsedPs, "clean"));

    // ...and a skewed accumulator is caught immediately.
    FaultInjector injector(parseFaultPlan("skew-cycles"));
    ASSERT_TRUE(injector.apply(hier));
    try {
        auditor.auditBlocking(hier, result.elapsedPs, "skewed");
        FAIL() << "skewed cycle accumulator passed the audit";
    } catch (const AuditError &e) {
        EXPECT_TRUE(hasInvariant(e.violations(), "time.conservation"));
    }
}

TEST(AuditFault, SchedBlockBreaksQueueAudit)
{
    Scheduler sched(3, 1'000);
    AuditContext clean("clean scheduler");
    sched.auditState(clean, 0);
    EXPECT_TRUE(clean.clean());

    FaultInjector injector(parseFaultPlan("sched-block"));
    ASSERT_TRUE(injector.applyScheduler(sched, 0));
    AuditContext ctx("corrupted scheduler");
    sched.auditState(ctx, 0);
    EXPECT_FALSE(ctx.clean());
    EXPECT_TRUE(hasInvariant(ctx.violations(), "sched.queue"));
}

TEST(AuditFault, InapplicableFaultInjectsNothing)
{
    // ipt-unlink targets the RAMpage pager; on a conventional
    // hierarchy the injector warns, applies nothing, and the state
    // stays clean.
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    warmUp(hier, 20'000);
    FaultInjector injector(parseFaultPlan("ipt-unlink"));
    EXPECT_FALSE(injector.apply(hier));
    EXPECT_FALSE(injector.pending());
    EXPECT_TRUE(auditViolations(hier).empty());
}

// ------------------------------------------------ end-to-end injection

TEST(AuditEndToEnd, SimulatorInjectsAndAuditCatches)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.auditLevel = AuditLevel::Boundaries;
    sim.faultPlan = "ipt-unlink";
    Simulator driver(hier, tinyWorkload(), sim);
    try {
        driver.run();
        FAIL() << "injected ipt-unlink escaped the boundary audits";
    } catch (const AuditError &e) {
        EXPECT_FALSE(e.violations().empty());
        EXPECT_TRUE(hasInvariant(e.violations(), "ipt.chain"));
    }
}

TEST(AuditEndToEnd, SkewCyclesCaughtAtNextBoundary)
{
    auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.auditLevel = AuditLevel::Boundaries;
    sim.faultPlan = "skew-cycles";
    Simulator driver(hier, tinyWorkload(), sim);
    try {
        driver.run();
        FAIL() << "injected cycle skew escaped the boundary audits";
    } catch (const AuditError &e) {
        EXPECT_EQ(e.firstInvariant(), "time.conservation");
    }
}

TEST(AuditEndToEnd, SchedBlockCaughtInSwitchOnMissRun)
{
    auto hier_owner = makeHierarchy(smallRampage(true));
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.switchOnMiss = true;
    sim.auditLevel = AuditLevel::Boundaries;
    sim.faultPlan = "sched-block";
    Simulator driver(hier, tinyWorkload(), sim);
    try {
        driver.run();
        FAIL() << "blocked-but-running process escaped the audits";
    } catch (const AuditError &e) {
        EXPECT_TRUE(hasInvariant(e.violations(), "sched.queue"));
    }
}

TEST(AuditEndToEnd, FaultWithAuditsOffRunsToCompletion)
{
    // The injector corrupts state but nobody audits: the run ends
    // normally.  This is exactly the silent-corruption scenario the
    // audits exist to close.
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.faultPlan = "stale-dirty";
    Simulator driver(hier, tinyWorkload(), sim);
    EXPECT_NO_THROW(driver.run());
}

TEST(AuditEndToEnd, BadFaultSpecRejectedAtConstruction)
{
    auto hier_owner = makeHierarchy(smallRampage());
    Hierarchy &hier = *hier_owner;
    SimConfig sim = tinySim();
    sim.faultPlan = "smash-everything";
    EXPECT_THROW(Simulator(hier, tinyWorkload(), sim), ConfigError);
}

// ------------------------------------------------------- context limits

TEST(AuditContextLimits, TruncatesRecordedViolations)
{
    AuditContext ctx("truncation test");
    for (int i = 0; i < 40; ++i)
        ctx.check(false, "test.flood", "violation %d", i);
    EXPECT_FALSE(ctx.clean());
    try {
        ctx.raiseIfViolated();
        FAIL() << "40 violations did not raise";
    } catch (const AuditError &e) {
        // 16 recorded + the audit.truncated marker.
        EXPECT_EQ(e.violations().size(), 17u);
        EXPECT_EQ(e.violations().back().invariant, "audit.truncated");
    }
}

// ---------------------------------------------------------- sweep runner

TEST(AuditSweep, AuditFailureIsDistinctOutcome)
{
    auto faultyPoint = [] {
        auto hier_owner = makeHierarchy(smallRampage());
        Hierarchy &hier = *hier_owner;
        SimConfig sim = tinySim();
        sim.auditLevel = AuditLevel::Boundaries;
        sim.faultPlan = "leak-frame";
        Simulator driver(hier, tinyWorkload(), sim);
        return driver.run();
    };
    auto cleanPoint = [] {
        auto hier_owner = makeHierarchy(baselineConfig(oneGhz, 128));
        Hierarchy &hier = *hier_owner;
        Simulator driver(hier, tinyWorkload(),
                         tinySim(20'000, 10'000));
        return driver.run();
    };

    SweepRunner runner;
    runner.add("faulty", faultyPoint);
    runner.add("clean", cleanPoint);
    SweepReport report = runner.run();

    ASSERT_EQ(report.outcomes.size(), 2u);
    const PointOutcome &faulty = report.outcomes[0];
    EXPECT_EQ(faulty.status, PointStatus::AuditFailed);
    EXPECT_EQ(faulty.errorCategory, ErrorCategory::Audit);
    EXPECT_EQ(faulty.auditInvariant, "pager.leak");
    EXPECT_FALSE(faulty.error.empty());
    EXPECT_EQ(report.outcomes[1].status, PointStatus::Ok);

    EXPECT_EQ(report.auditFailedCount(), 1u);
    EXPECT_EQ(report.failedCount(), 0u);
    EXPECT_FALSE(report.allOk());
}

} // namespace
} // namespace rampage
