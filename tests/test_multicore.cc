/**
 * @file
 * Multicore driver proofs.
 *
 * The Simulator has one chunked loop for every core count.  Audits,
 * timeline tracing and interval stats must not change what it
 * simulates, at one core or four, for all three hierarchy families;
 * the timeline it writes must carry the same context- and
 * process-switch events per scheduling decision at every core count,
 * in simulated-time order.  Multicore runs must be deterministic —
 * same stats snapshot run to run and at any SweepRunner parallelism —
 * and pass paranoid audits.  Finally the coherence-lite residency
 * invariant must be a real checker: dropping a core's residency bit
 * under a live TLB translation (the stale-private-copy fault) has to
 * trip the coherence.residency audit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/core_frontend.hh"
#include "core/factory.hh"
#include "core/fault_injection.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/benchmarks.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.elapsedPs, b.elapsedPs);
    EXPECT_EQ(a.stallPs, b.stallPs);
    EXPECT_EQ(a.systemName, b.systemName);
    EXPECT_EQ(a.stats.toJson().dump(), b.stats.toJson().dump());
}

// ---------------------------------------------------- multicore runs

SimResult
runCores(const HierarchyConfig &cfg, unsigned cores, AuditLevel level)
{
    SimConfig sim;
    sim.maxRefs = 60'000;
    sim.quantumRefs = 7'000;
    sim.cores = cores;
    sim.auditLevel = level;
    return simulateSystem(cfg, sim);
}

TEST(Multicore, FourCoreRunsAreDeterministic)
{
    for (const HierarchyConfig &cfg :
         {HierarchyConfig(baselineConfig(oneGhz, 128)),
          HierarchyConfig(rampageConfig(oneGhz, 1024)),
          HierarchyConfig(rampageConfig(oneGhz, 1024, true))}) {
        SimResult a = runCores(cfg, 4, AuditLevel::Off);
        SimResult b = runCores(cfg, 4, AuditLevel::Off);
        expectIdentical(a, b);
    }
}

TEST(Multicore, FourCoreRunsPassParanoidAudits)
{
    EXPECT_NO_THROW(
        runCores(baselineConfig(oneGhz, 128), 4, AuditLevel::Paranoid));
    EXPECT_NO_THROW(
        runCores(rampageConfig(oneGhz, 1024), 4, AuditLevel::Paranoid));
    EXPECT_NO_THROW(runCores(rampageConfig(oneGhz, 1024, true), 4,
                             AuditLevel::Paranoid));
}

/**
 * The snapshot minus the bookkeeping only audits and observability
 * add (audit.*, sim.trace.*, sim.interval.*): every simulated
 * quantity must still match bit for bit.
 */
std::string
dumpModelStats(const StatsSnapshot &stats)
{
    StatsSnapshot out;
    for (const StatsSnapshot::Entry &entry : stats.entries())
        if (entry.name.rfind("audit.", 0) != 0 &&
            entry.name.rfind("sim.trace.", 0) != 0 &&
            entry.name.rfind("sim.interval.", 0) != 0)
            out.addEntry(entry);
    return out.toJson().dump();
}

/** Baseline, RAMpage, RAMpage with switch-on-miss. */
const HierarchyConfig families[] = {
    baselineConfig(oneGhz, 128),
    rampageConfig(oneGhz, 1024),
    rampageConfig(oneGhz, 1024, true),
};

bool
switchesOnMiss(const HierarchyConfig &cfg)
{
    return cfg.family == HierarchyConfig::Family::Paged &&
           cfg.paged.switchOnMiss;
}

/**
 * A run with tracing and interval stats under `obs_base` ("" off).
 * The 3001-reference epoch divides neither the 4096-reference chunk
 * nor the quantum, so epochs land mid-chunk.
 */
SimResult
runObserved(const HierarchyConfig &cfg, unsigned cores,
            AuditLevel level, const std::string &obs_base)
{
    SimConfig sim;
    sim.maxRefs = 60'000;
    sim.quantumRefs = 7'000;
    sim.cores = cores;
    sim.auditLevel = level;
    sim.traceOutBase = obs_base;
    sim.statsIntervalRefs = obs_base.empty() ? 0 : 3'001;
    sim.intervalOutBase = obs_base;
    return simulateSystem(cfg, sim);
}

std::string
obsBase(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "/rampage_mc_" + tag;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Multicore, AuditsAreSideEffectFree)
{
    // Paranoid audits end an access batch after every reference and
    // interval stats at every epoch boundary, but neither moves a
    // chunk boundary, so every combination simulates exactly the
    // plain run.  Every observed run also writes the same timeline as
    // the unaudited one: batched references are stamped as if each
    // ran alone, and epochs land on the same references.
    const AuditLevel levels[] = {AuditLevel::Off, AuditLevel::Boundaries,
                                 AuditLevel::Paranoid};
    for (unsigned cores : {1u, 4u}) {
        for (const HierarchyConfig &cfg : families) {
            SimResult plain = runObserved(cfg, cores, AuditLevel::Off, "");
            // The audit-Off observed run's trace and interval files.
            std::string off_trace;
            std::string off_intervals;
            for (AuditLevel level : levels) {
                for (bool observed : {false, true}) {
                    SCOPED_TRACE(testing::Message()
                                 << plain.systemName << ", " << cores
                                 << " cores, audit "
                                 << auditLevelName(level)
                                 << (observed ? ", observed" : ""));
                    SimResult run = runObserved(
                        cfg, cores, level,
                        observed ? obsBase("side_effect") : "");
                    EXPECT_EQ(plain.elapsedPs, run.elapsedPs);
                    EXPECT_EQ(plain.stallPs, run.stallPs);
                    EXPECT_EQ(plain.systemName, run.systemName);
                    EXPECT_EQ(dumpModelStats(plain.stats),
                              dumpModelStats(run.stats));
                    if (observed) {
                        ASSERT_FALSE(run.traceFile.empty());
                        ASSERT_FALSE(run.intervalFile.empty());
                        std::string trace = slurp(run.traceFile);
                        std::string intervals = slurp(run.intervalFile);
                        if (level == AuditLevel::Off) {
                            off_trace = trace;
                            off_intervals = intervals;
                        } else {
                            EXPECT_EQ(off_trace, trace);
                            EXPECT_EQ(off_intervals, intervals);
                        }
                    }
                    std::remove(run.traceFile.c_str());
                    std::remove(run.intervalFile.c_str());
                }
            }
        }
    }
}

/** Sum of every counter whose name ends in `suffix`. */
std::uint64_t
statSum(const StatsSnapshot &stats, const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const StatsSnapshot::Entry &entry : stats.entries())
        if (entry.name.size() >= suffix.size() &&
            entry.name.compare(entry.name.size() - suffix.size(),
                               suffix.size(), suffix) == 0)
            sum += entry.counter;
    return sum;
}

TEST(Multicore, SwitchEventsMatchTheSchedulerAtEveryCoreCount)
{
    // Blocking runs emit one context_switch per switch trace.  Under
    // switch-on-miss each core's boot switch emits none, and every
    // scheduler pick emits one process_switch.  Timestamps in the
    // trace and interval files never go backwards.
    for (unsigned cores : {1u, 4u}) {
        for (const HierarchyConfig &cfg : families) {
            SimResult run = runObserved(cfg, cores, AuditLevel::Off,
                                        obsBase("switch_events"));
            SCOPED_TRACE(testing::Message()
                         << run.systemName << ", " << cores << " cores");
            ASSERT_FALSE(run.traceFile.empty());
            ASSERT_FALSE(run.intervalFile.empty());
            ASSERT_EQ(run.stats.find("sim.trace.dropped")->counter, 0u);

            JsonValue doc = JsonValue::parse(slurp(run.traceFile));
            const JsonValue &events = doc.at("traceEvents");
            std::uint64_t context = 0;
            std::uint64_t process = 0;
            double last_ts = 0;
            for (std::size_t i = 0; i < events.size(); ++i) {
                const JsonValue &ev = events.at(i);
                if (ev.at("ph").asString() == "M")
                    continue;
                const std::string &name = ev.at("name").asString();
                context += name == "context_switch";
                process += name == "process_switch";
                EXPECT_GE(ev.at("ts").asDouble(), last_ts);
                last_ts = ev.at("ts").asDouble();
            }

            const bool som = switchesOnMiss(cfg);
            const std::uint64_t switches = run.counts.contextSwitches;
            EXPECT_GT(switches, cores);
            EXPECT_EQ(context, som ? switches - cores : switches);
            EXPECT_EQ(process,
                      som ? statSum(run.stats, "sched.quantum_switches") +
                                statSum(run.stats, "sched.miss_switches")
                          : 0u);

            std::ifstream intervals(run.intervalFile);
            std::string line;
            double last_ns = 0;
            while (std::getline(intervals, line)) {
                double ns =
                    JsonValue::parse(line).at("sim_ns").asDouble();
                EXPECT_GE(ns, last_ns);
                last_ns = ns;
            }
            EXPECT_GT(last_ns, 0);
            std::remove(run.traceFile.c_str());
            std::remove(run.intervalFile.c_str());
        }
    }
}

bool
hasStat(const StatsSnapshot &stats, const std::string &name)
{
    for (const StatsSnapshot::Entry &entry : stats.entries())
        if (entry.name == name)
            return true;
    return false;
}

TEST(Multicore, StatsUsePerCorePrefixes)
{
    SimResult quad = runCores(rampageConfig(oneGhz, 1024), 4,
                              AuditLevel::Off);
    EXPECT_TRUE(hasStat(quad.stats, "core0.l1d.misses"));
    EXPECT_TRUE(hasStat(quad.stats, "core3.tlb.misses"));
    EXPECT_FALSE(hasStat(quad.stats, "l1d.misses"));

    SimResult single = runCores(rampageConfig(oneGhz, 1024), 1,
                                AuditLevel::Off);
    EXPECT_TRUE(hasStat(single.stats, "l1d.misses"));
    EXPECT_FALSE(hasStat(single.stats, "core0.l1d.misses"));
}

TEST(Multicore, SnapshotStableAtAnySweepParallelism)
{
    // The same four-point cores=4 campaign at --jobs 1 and --jobs 4:
    // every point's stats snapshot must be byte-identical, proving
    // multicore runs share no hidden cross-thread state.
    auto campaign = [](unsigned jobs) {
        SweepRunner::Options opts;
        opts.jobs = jobs;
        SweepRunner runner(opts);
        for (std::uint64_t page : {512u, 1024u, 2048u, 4096u})
            runner.add("rampage/" + std::to_string(page), [page] {
                return runCores(rampageConfig(oneGhz, page), 4,
                                AuditLevel::Off);
            });
        return runner.run();
    };
    SweepReport serial = campaign(1);
    SweepReport parallel = campaign(4);
    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    ASSERT_TRUE(serial.allOk());
    ASSERT_TRUE(parallel.allOk());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        const PointOutcome &a = serial.outcomes[i];
        const PointOutcome &b = parallel.outcomes[i];
        EXPECT_EQ(a.id, b.id);
        ASSERT_TRUE(a.haveResult);
        ASSERT_TRUE(b.haveResult);
        expectIdentical(a.result, b.result);
    }
}

TEST(Multicore, MoreSourcesThanCoresIsRequired)
{
    // The Table 2 workload has 19 programs; a 20-core hierarchy has
    // nothing to schedule on the last core.
    CommonConfig common = defaultCommon(oneGhz);
    EXPECT_GT(makeWorkload().size(), 0u);
    ConventionalConfig cfg = baselineConfig(oneGhz, 128);
    cfg.common.cores = 20;
    SimConfig sim;
    sim.maxRefs = 1'000;
    sim.quantumRefs = 500;
    EXPECT_THROW(simulateSystem(cfg, sim), ConfigError);
    (void)common;
}

TEST(Multicore, CoreCountIsValidated)
{
    ConventionalConfig cfg = baselineConfig(oneGhz, 128);
    cfg.common.cores = 0;
    EXPECT_THROW(validateHierarchyConfig(cfg), ConfigError);
    cfg.common.cores = maxCores + 1;
    EXPECT_THROW(validateHierarchyConfig(cfg), ConfigError);
}

// ------------------------------------------- coherence-lite residency

TEST(Multicore, StalePrivateCopyFaultTripsTheResidencyAudit)
{
    // Warm a four-core RAMpage hierarchy so every core holds live
    // translations, then drop one core's residency bit out from under
    // its TLB — the corruption page replacement would turn into a
    // stale private copy.  The coherence.residency checker must fire.
    HierarchyConfig cfg(rampageConfig(oneGhz, 1024));
    cfg.common().cores = 4;
    auto hier = makeHierarchy(cfg);
    SimConfig sim;
    sim.maxRefs = 40'000;
    sim.quantumRefs = 5'000;
    Simulator(*hier, makeWorkload(), sim).run();

    // Positive control: the warmed hierarchy audits clean.
    Auditor control(AuditLevel::Boundaries);
    EXPECT_NO_THROW(control.auditHierarchy(*hier, "control"));

    FaultInjector injector(parseFaultPlan("stale-private-copy"));
    ASSERT_TRUE(injector.apply(*hier))
        << "warm run left no resident translation to corrupt";

    Auditor auditor(AuditLevel::Boundaries);
    try {
        auditor.auditHierarchy(*hier, "stale private copy");
        FAIL() << "a dropped residency bit passed the audit";
    } catch (const AuditError &err) {
        EXPECT_EQ(err.firstInvariant(), "coherence.residency");
    }
}

TEST(Multicore, InjectedRunIsRejectedEndToEnd)
{
    // The same fault through the simulator's injection seam: the run
    // itself must abort with the residency violation.
    HierarchyConfig cfg(rampageConfig(oneGhz, 1024));
    SimConfig sim;
    sim.maxRefs = 40'000;
    sim.quantumRefs = 5'000;
    sim.cores = 4;
    sim.auditLevel = AuditLevel::Boundaries;
    sim.faultPlan = "stale-private-copy";
    try {
        simulateSystem(cfg, sim);
        FAIL() << "injected run finished clean";
    } catch (const AuditError &err) {
        EXPECT_EQ(err.firstInvariant(), "coherence.residency");
    }
}

} // namespace
} // namespace rampage
