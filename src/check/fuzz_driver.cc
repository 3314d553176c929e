#include "check/fuzz_driver.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include <dirent.h>
#include <errno.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "check/shrink.hh"
#include "core/audit.hh"
#include "core/factory.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/benchmarks.hh"
#include "util/error.hh"

namespace rampage
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Hostile-mutation probe: corrupt one field of a valid configuration
 * and require validation to either accept it or reject it with
 * ConfigError.  Any other escape is a validation bug.
 * @return a finding description, or "" when the contract held.
 */
std::string
hostileProbe(Rng &rng, const FuzzPoint &point)
{
    HierarchyConfig corrupted = point.hier;
    std::string mutation = mutateHostile(rng, corrupted);
    try {
        validateHierarchyConfig(corrupted);
        return ""; // still valid: acceptable
    } catch (const ConfigError &) {
        return ""; // rejected with the right category
    } catch (const SimError &err) {
        return formatErrorMessage(
            "validation bug: mutation '%s' escaped with %s error "
            "instead of ConfigError: %s",
            mutation.c_str(), errorCategoryName(err.category()),
            err.what());
    } catch (const std::exception &err) {
        return formatErrorMessage(
            "validation bug: mutation '%s' escaped with untyped "
            "exception: %s",
            mutation.c_str(), err.what());
    }
}

// ------------------------- canonical points for detector coverage

CommonConfig
coverageCommon()
{
    CommonConfig c{};
    c.issueHz = 1'000'000'000;
    c.l1BlockBytes = 32;
    c.l1SizeBytes = 1024;
    c.l1Assoc = 2;
    c.tlb.entries = 16;
    c.tlb.assoc = 0;
    c.tlb.lruReplacement = false;
    c.dramPageBytes = 4096;
    return c;
}

FuzzPoint
coveragePoint(HierarchyConfig hier)
{
    FuzzPoint point;
    point.hier = std::move(hier);
    // Small run with several quantum boundaries: the injector fires
    // at the first boundary, the later audits (or the oracle replay)
    // see the corruption.
    point.sim.maxRefs = 6000;
    point.sim.quantumRefs = 1500;
    point.sim.insertSwitchTrace = true;
    point.sim.watchdogRefBudget =
        point.sim.maxRefs * 20 + 10'000'000;
    return point;
}

FuzzPoint
coveragePagedUniform(bool switch_on_miss)
{
    PagedConfig pc{};
    pc.common = coverageCommon();
    pc.pager.pageBytes = 512;
    pc.pager.baseSramBytes = 64 * 1024;
    pc.pager.tagBytesPerBlock = 0;
    pc.pager.repl = PageReplKind::Clock;
    pc.switchOnMiss = switch_on_miss;
    return coveragePoint(HierarchyConfig(pc));
}

FuzzPoint
coveragePagedPerPid()
{
    PagedConfig pc{};
    pc.common = coverageCommon();
    pc.pager.pageBytes = 512;
    pc.pager.baseSramBytes = 64 * 1024;
    pc.pager.tagBytesPerBlock = 0;
    pc.pager.defaultPageBytes = 1024;
    pc.pager.pageBytesByPid[2] = 2048;
    pc.pager.pageBytesByPid[5] = 512;
    return coveragePoint(HierarchyConfig(pc));
}

FuzzPoint
coverageConventional()
{
    ConventionalConfig cc{};
    cc.common = coverageCommon();
    cc.l2BlockBytes = 64;
    cc.l2SizeBytes = 32 * 1024;
    cc.l2Assoc = 2;
    cc.l2Style = ConventionalConfig::L2Style::SetAssoc;
    cc.l2Repl = ReplPolicy::LRU;
    cc.victimEntries = 0;
    return coveragePoint(HierarchyConfig(cc));
}

/** The config family each fault kind can corrupt. */
FuzzPoint
coveragePointFor(ModelFault kind)
{
    switch (kind) {
      case ModelFault::L2TagFlip:
      case ModelFault::DirAlias:
        return coverageConventional();
      case ModelFault::VarOwnerDrop:
        return coveragePagedPerPid();
      case ModelFault::SchedBlock:
        return coveragePagedUniform(true);
      default:
        return coveragePagedUniform(false);
    }
}

} // namespace

void
ensureDirectories(const std::string &path)
{
    std::string prefix;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/')
            continue;
        prefix = path.substr(0, i);
        if (prefix.empty() || prefix == ".")
            continue;
        if (mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
            throw IoError("cannot create directory '%s': %s",
                          prefix.c_str(), strerror(errno));
    }
    if (!path.empty() && path.back() != '/') {
        if (mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
            throw IoError("cannot create directory '%s': %s",
                          path.c_str(), strerror(errno));
    }
}

FuzzCampaignResult
runFuzzCampaign(const FuzzOptions &options)
{
    FuzzCampaignResult result;
    auto start = std::chrono::steady_clock::now();

    if (!options.corpusDir.empty()) {
        int failing = replayReproDir(options.corpusDir,
                                     options.verbose);
        // Count is informational here; each failing repro already
        // registered a finding line via replayReproDir's return.
        if (failing > 0)
            result.findings.push_back(formatErrorMessage(
                "%d committed repro(s) under '%s' still fail",
                failing, options.corpusDir.c_str()));
        result.corpusReplayed = 1;
    }

    std::uint64_t target = options.points;
    if (target == 0 && options.budgetSeconds <= 0)
        target = 25;

    Rng rng(options.seed);
    for (std::uint64_t index = 0;; ++index) {
        if (target != 0 && result.pointsRun >= target)
            break;
        if (options.budgetSeconds > 0 &&
            secondsSince(start) >= options.budgetSeconds)
            break;

        FuzzPoint point =
            generatePoint(rng, options.seed, index, &result.gen);
        point.faultSpec = options.faultSpec;

        if (options.hostileEvery != 0 &&
            index % options.hostileEvery == 0) {
            ++result.hostileProbes;
            std::string finding = hostileProbe(rng, point);
            if (!finding.empty())
                result.findings.push_back(finding);
        }

        PropertyReport report = checkPoint(point);
        ++result.pointsRun;
        if (options.verbose)
            std::printf("fuzz: point %llu [%s] %s\n",
                        static_cast<unsigned long long>(index),
                        oracleModeName(report.oracleMode),
                        report.ok() ? "ok" : "FAIL");

        if (report.ok())
            continue;

        ShrinkOptions shrink_options;
        shrink_options.maxEvaluations = options.shrinkEvaluations;
        ShrinkResult shrunk = shrinkPoint(point, shrink_options);

        ensureDirectories(options.outDir);
        std::string path = formatErrorMessage(
            "%s/repro_seed%llu_point%llu.json",
            options.outDir.c_str(),
            static_cast<unsigned long long>(options.seed),
            static_cast<unsigned long long>(index));
        saveFuzzPoint(shrunk.point, path);
        result.reproPaths.push_back(path);
        result.findings.push_back(formatErrorMessage(
            "point %llu failed (%u shrink steps kept the failure, "
            "repro %s):\n%s",
            static_cast<unsigned long long>(index), shrunk.accepted,
            path.c_str(), shrunk.failure.c_str()));
    }
    return result;
}

int
replayRepro(const std::string &path, bool verbose)
{
    FuzzPoint point = loadFuzzPoint(path);
    PropertyReport report = checkPoint(point);
    if (verbose)
        std::printf("replay: %s [%s] %s\n", path.c_str(),
                    oracleModeName(report.oracleMode),
                    report.ok() ? "ok" : "FAIL");
    if (!report.ok() && verbose)
        std::printf("%s\n", report.summary().c_str());
    return report.ok() ? 0 : 1;
}

int
replayReproDir(const std::string &dir, bool verbose)
{
    DIR *handle = opendir(dir.c_str());
    if (handle == nullptr)
        throw IoError("cannot open repro directory '%s': %s",
                      dir.c_str(), strerror(errno));
    std::vector<std::string> files;
    while (const dirent *entry = readdir(handle)) {
        std::string name = entry->d_name;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            files.push_back(dir + "/" + name);
    }
    closedir(handle);
    std::sort(files.begin(), files.end());

    int failing = 0;
    for (const std::string &file : files)
        failing += replayRepro(file, verbose);
    if (verbose)
        std::printf("replay: %zu repro(s), %d failing\n",
                    files.size(), failing);
    return failing;
}

std::vector<CoverageOutcome>
runDetectorCoverage(bool verbose)
{
    constexpr ModelFault kinds[] = {
        ModelFault::L1TagFlip,   ModelFault::L2TagFlip,
        ModelFault::TlbFrameXor, ModelFault::IptUnlink,
        ModelFault::StaleDirty,  ModelFault::LeakFrame,
        ModelFault::DirAlias,    ModelFault::VarOwnerDrop,
        ModelFault::SchedBlock,  ModelFault::SkewCycles,
        ModelFault::StalePrivateCopy,
        ModelFault::TlbIndexStale,
    };

    std::vector<CoverageOutcome> outcomes;
    for (ModelFault kind : kinds) {
        CoverageOutcome outcome;
        outcome.kind = kind;
        FuzzPoint point = coveragePointFor(kind);
        point.faultSpec = modelFaultName(kind);

        // Detector 1: audits on the injected run.  Paranoid level
        // (auditing after every miss that reached the L2/SRAM) so a
        // transient corruption is examined before natural eviction
        // or remapping repairs it.
        SimConfig audited = point.sim;
        audited.auditLevel = AuditLevel::Paranoid;
        audited.faultPlan = point.faultSpec;
        try {
            simulateSystem(point.hier, audited);
            outcome.detail = "audits ran clean; ";
        } catch (const AuditError &err) {
            outcome.auditCaught = true;
            outcome.detail = formatErrorMessage(
                "audit caught '%s'; ", err.firstInvariant().c_str());
        } catch (const SimError &err) {
            outcome.detail = formatErrorMessage(
                "audited run raised %s error; ",
                errorCategoryName(err.category()));
        }

        // Detector 1b: direct injection plus an immediate audit.  The
        // transient kinds (cache tag flips, stale dirty bits) self-heal
        // — natural eviction or frame remapping repairs the corrupted
        // entry before the next scheduled audit examines it — so the
        // in-run detector above can legitimately stay clean.  Auditing
        // the corrupted state directly, the way a crash-dump checker
        // would, is the honest detection tier for them.
        if (!outcome.auditCaught) {
            try {
                std::unique_ptr<Hierarchy> hier =
                    makeHierarchy(point.hier);
                SimConfig warm = point.sim;
                if (point.hier.family ==
                    HierarchyConfig::Family::Paged)
                    warm.switchOnMiss =
                        point.hier.paged.switchOnMiss;
                Simulator(*hier, makeWorkload(point.workloadSalt),
                          warm)
                    .run();
                FaultInjector injector(
                    parseFaultPlan(point.faultSpec));
                if (injector.apply(*hier)) {
                    Auditor auditor(AuditLevel::Boundaries);
                    auditor.auditHierarchy(*hier,
                                           "detector coverage");
                    outcome.detail += "post-injection audit ran "
                                      "clean; ";
                } else {
                    outcome.detail +=
                        "fault inapplicable to warm state; ";
                }
            } catch (const AuditError &err) {
                outcome.auditCaught = true;
                outcome.detail += formatErrorMessage(
                    "post-injection audit caught '%s'; ",
                    err.firstInvariant().c_str());
            } catch (const SimError &err) {
                outcome.detail += formatErrorMessage(
                    "post-injection tier raised %s error; ",
                    errorCategoryName(err.category()));
            }
        }

        // Detector 2: the differential oracle, audits off.  Restrict
        // the suite to the oracle so a detection is attributable.
        PropertyOptions oracle_only;
        oracle_only.determinism = false;
        oracle_only.degeneracy = false;
        oracle_only.sweepHarness = false;
        oracle_only.audit = false;
        oracle_only.observability = false;
        PropertyReport report = checkPoint(point, oracle_only);
        if (!report.ok()) {
            outcome.oracleCaught = true;
            outcome.detail += "oracle flagged the run";
        } else {
            outcome.detail += "oracle saw nothing";
        }

        if (verbose)
            std::printf("coverage: %-14s audit=%d oracle=%d (%s)\n",
                        modelFaultName(kind),
                        outcome.auditCaught ? 1 : 0,
                        outcome.oracleCaught ? 1 : 0,
                        outcome.detail.c_str());
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

} // namespace rampage
