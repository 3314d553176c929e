#include "check/properties.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "core/sweep.hh"
// simulateFuzzPoint needs the raw Simulator seam
#include "trace/benchmarks.hh"
#include "util/error.hh"

namespace rampage
{

namespace
{

/** The suite's baseline SimConfig: no audits, no observability. */
SimConfig
baseSimConfig(const FuzzPoint &point)
{
    SimConfig sim = point.sim;
    sim.auditLevel = AuditLevel::Off;
    sim.faultPlan = point.faultSpec;
    sim.traceOutBase.clear();
    sim.intervalOutBase.clear();
    sim.statsIntervalRefs = 0;
    return sim;
}

void
fail(PropertyReport &report, const char *property, std::string detail)
{
    report.failures.push_back(PropertyFailure{property,
                                              std::move(detail)});
}

/**
 * Run the engine, translating any escaped SimError into a property
 * failure.  @retval true the run completed and `out` is valid.
 */
bool
runEngine(const FuzzPoint &point, const SimConfig &sim,
          const char *property, PropertyReport &report, SimResult &out)
{
    try {
        out = simulateFuzzPoint(point, sim);
        return true;
    } catch (const SimError &err) {
        fail(report, property,
             formatErrorMessage("engine raised %s error: %s",
                                errorCategoryName(err.category()),
                                err.what()));
        return false;
    }
}

bool
sameBits(double a, double b)
{
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    return ba == bb;
}

bool
excluded(const std::string &name,
         const std::vector<std::string> &prefixes)
{
    for (const std::string &prefix : prefixes)
        if (name.compare(0, prefix.size(), prefix) == 0)
            return true;
    return false;
}

/**
 * Bit-exact snapshot comparison, optionally ignoring entries whose
 * names start with one of `skip`.  Returns "" when equal, else a
 * description of the first difference.
 */
std::string
diffSnapshots(const StatsSnapshot &lhs, const StatsSnapshot &rhs,
              const std::vector<std::string> &skip = {})
{
    std::vector<const StatsSnapshot::Entry *> a, b;
    for (const auto &entry : lhs.entries())
        if (!excluded(entry.name, skip))
            a.push_back(&entry);
    for (const auto &entry : rhs.entries())
        if (!excluded(entry.name, skip))
            b.push_back(&entry);

    std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        const auto &x = *a[i];
        const auto &y = *b[i];
        if (x.name != y.name)
            return formatErrorMessage(
                "entry %zu named '%s' vs '%s'", i, x.name.c_str(),
                y.name.c_str());
        if (x.kind != y.kind)
            return formatErrorMessage("'%s': kind differs",
                                      x.name.c_str());
        if (x.counter != y.counter)
            return formatErrorMessage(
                "'%s': %llu vs %llu", x.name.c_str(),
                static_cast<unsigned long long>(x.counter),
                static_cast<unsigned long long>(y.counter));
        if (!sameBits(x.value, y.value))
            return formatErrorMessage("'%s': %.17g vs %.17g",
                                      x.name.c_str(), x.value, y.value);
        if (x.buckets != y.buckets || x.samples != y.samples ||
            x.sum != y.sum)
            return formatErrorMessage("'%s': histogram differs",
                                      x.name.c_str());
    }
    if (a.size() != b.size())
        return formatErrorMessage("entry counts differ: %zu vs %zu",
                                  a.size(), b.size());
    return "";
}

void
checkOracle(const FuzzPoint &point, const SimResult &base,
            PropertyReport &report)
{
    OracleReport oracle = crossCheckOracle(point, base.stats);
    report.oracleMode = oracle.mode;
    for (const std::string &mismatch : oracle.mismatches)
        fail(report, "oracle",
             formatErrorMessage("[%s] %s", oracleModeName(oracle.mode),
                                mismatch.c_str()));
}

void
checkDeterminism(const FuzzPoint &point, const SimResult &base,
                 PropertyReport &report)
{
    SimResult again;
    if (!runEngine(point, baseSimConfig(point), "determinism", report,
                   again))
        return;
    std::string diff = diffSnapshots(base.stats, again.stats);
    if (!diff.empty())
        fail(report, "determinism",
             "same seed, different snapshot: " + diff);
}

void
checkDegeneracy(const FuzzPoint &point, const SimResult &base,
                PropertyReport &report)
{
    if (point.hier.family != HierarchyConfig::Family::Paged ||
        point.hier.paged.pager.defaultPageBytes != 0)
        return;
    // Rewrite the uniform policy as the equivalent per-pid policy:
    // every process at the base frame size.  Same machine, so the
    // snapshot must not move at all.
    FuzzPoint degen = point;
    PageStoreParams &pg = degen.hier.paged.pager;
    pg.defaultPageBytes = pg.pageBytes;
    pg.pageBytesByPid.clear();
    pg.pageBytesByPid[3] = pg.pageBytes;

    SimResult other;
    if (!runEngine(degen, baseSimConfig(degen), "degeneracy", report,
                   other))
        return;
    std::string diff = diffSnapshots(base.stats, other.stats);
    if (!diff.empty())
        fail(report, "degeneracy",
             "degenerate per-pid policy diverged from uniform: " +
                 diff);
}

void
checkSweepHarness(const FuzzPoint &point, const SimResult &base,
                  PropertyReport &report)
{
    struct Variant
    {
        const char *label;
        unsigned jobs;
        bool isolate;
    };
    // jobs=2 runs two copies of the point concurrently (exercising the
    // worker pool), --isolate forks and streams the result back.
    const Variant variants[] = {
        {"jobs=1", 1, false},
        {"jobs=2", 2, false},
        {"isolate", 1, true},
    };
    for (const Variant &variant : variants) {
        SweepRunner::Options options;
        options.jobs = variant.jobs;
        options.isolate = variant.isolate;
        options.pointDeadlineSeconds = 0; // none, whatever the knob says
        SweepRunner runner(options);
        auto body = [&point] {
            return simulateFuzzPoint(point, baseSimConfig(point));
        };
        runner.add("p0", body);
        if (variant.jobs > 1)
            runner.add("p1", body);
        SweepReport sweep;
        try {
            sweep = runner.run();
        } catch (const SimError &err) {
            fail(report, "sweep-harness",
                 formatErrorMessage("%s: runner raised: %s",
                                    variant.label, err.what()));
            continue;
        }
        for (const PointOutcome &outcome : sweep.outcomes) {
            if (outcome.status != PointStatus::Ok) {
                fail(report, "sweep-harness",
                     formatErrorMessage(
                         "%s: point %s ended %s: %s", variant.label,
                         outcome.id.c_str(),
                         pointStatusName(outcome.status),
                         outcome.error.c_str()));
                continue;
            }
            std::string diff =
                diffSnapshots(base.stats, outcome.result.stats);
            if (!diff.empty())
                fail(report, "sweep-harness",
                     formatErrorMessage(
                         "%s: snapshot diverged from the in-process "
                         "run: %s",
                         variant.label, diff.c_str()));
        }
    }
}

void
checkAudit(const FuzzPoint &point, const SimResult &base,
           PropertyReport &report)
{
    SimConfig sim = baseSimConfig(point);
    sim.auditLevel = AuditLevel::Paranoid;
    SimResult audited;
    if (!runEngine(point, sim, "audit", report, audited))
        return;
    std::string diff =
        diffSnapshots(base.stats, audited.stats, {"audit."});
    if (!diff.empty())
        fail(report, "audit",
             "paranoid audits perturbed the simulation: " + diff);
}

void
checkObservability(const FuzzPoint &point, const SimResult &base,
                   PropertyReport &report)
{
    static std::atomic<std::uint64_t> sequence{0};
    std::string scratch = formatErrorMessage(
        "fuzz_obs_%d_%llu", static_cast<int>(getpid()),
        static_cast<unsigned long long>(
            sequence.fetch_add(1, std::memory_order_relaxed)));

    SimConfig sim = baseSimConfig(point);
    sim.traceOutBase = scratch;
    sim.intervalOutBase = scratch;
    sim.statsIntervalRefs =
        std::max<std::uint64_t>(1, point.sim.quantumRefs / 2);

    SimResult traced;
    bool ran =
        runEngine(point, sim, "observability", report, traced);
    if (ran) {
        std::string diff = diffSnapshots(
            base.stats, traced.stats, {"sim.trace.", "sim.interval."});
        if (!diff.empty())
            fail(report, "observability",
                 "tracing/interval stats perturbed the simulation: " +
                     diff);
    }
    if (!traced.traceFile.empty())
        std::remove(traced.traceFile.c_str());
    if (!traced.intervalFile.empty())
        std::remove(traced.intervalFile.c_str());
}

} // namespace

SimResult
simulateFuzzPoint(const FuzzPoint &point, const SimConfig &sim)
{
    std::unique_ptr<Hierarchy> hierarchy = makeHierarchy(point.hier);
    SimConfig effective = sim;
    if (point.hier.family == HierarchyConfig::Family::Paged)
        effective.switchOnMiss = point.hier.paged.switchOnMiss;
    Simulator simulator(*hierarchy,
                        makeWorkload(point.workloadSalt), effective);
    return simulator.run();
}

std::string
PropertyReport::summary() const
{
    std::string out;
    for (const PropertyFailure &failure : failures) {
        if (!out.empty())
            out += '\n';
        out += failure.property;
        out += ": ";
        out += failure.detail;
    }
    return out;
}

PropertyReport
checkPoint(const FuzzPoint &point, const PropertyOptions &options)
{
    PropertyReport report;

    SimResult base;
    if (!runEngine(point, baseSimConfig(point), "base-run", report,
                   base))
        return report; // nothing downstream can run

    if (options.oracle)
        checkOracle(point, base, report);
    if (options.determinism)
        checkDeterminism(point, base, report);
    if (options.degeneracy)
        checkDegeneracy(point, base, report);
    if (options.sweepHarness)
        checkSweepHarness(point, base, report);
    if (options.audit)
        checkAudit(point, base, report);
    if (options.observability)
        checkObservability(point, base, report);
    return report;
}

} // namespace rampage
