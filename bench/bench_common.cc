#include "bench_common.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "core/audit.hh"
#include "core/cost_model.hh"
#include "core/fault_injection.hh"
#include "obs/obs_config.hh"
#include "util/error.hh"
#include "util/knob.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{

namespace
{

/** State of the per-process JSON report (empty path = disabled). */
struct BenchReport
{
    std::string path;
    std::string name;
    std::string statsFilter;
    std::vector<JsonValue> results;
    std::vector<JsonValue> rows;
};

BenchReport &
benchReport()
{
    static BenchReport report;
    return report;
}

std::string
baseName(const char *path)
{
    std::string text = path ? path : "bench";
    std::size_t slash = text.find_last_of('/');
    return slash == std::string::npos ? text : text.substr(slash + 1);
}

void
writeJsonReport()
{
    BenchReport &report = benchReport();
    if (report.path.empty())
        return;

    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::str(report.name));

    ExperimentScale scale = experimentScale();
    JsonValue scale_obj = JsonValue::object();
    scale_obj.set("refs", JsonValue::integer(scale.refs));
    scale_obj.set("quantum_refs", JsonValue::integer(scale.quantumRefs));
    doc.set("scale", std::move(scale_obj));

    JsonValue rows = JsonValue::array();
    for (JsonValue &row : report.rows)
        rows.push(std::move(row));
    doc.set("rows", std::move(rows));

    JsonValue results = JsonValue::array();
    for (JsonValue &entry : report.results)
        results.push(std::move(entry));
    doc.set("results", std::move(results));

    errno = 0;
    std::ofstream out(report.path);
    if (!out.is_open()) {
        int err = errno;
        if (err == ENOSPC || err == EIO)
            warnOnce("JSON report '%s': %s (host I/O failure, "
                     "category %s)",
                     report.path.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("cannot write JSON report to '%s'",
                 report.path.c_str());
        return;
    }
    out << doc.dump() << "\n";
    out.flush();
    if (!out) {
        // A full or failing disk surfaces here, after buffering: the
        // stream goes bad and errno carries the write(2) error.
        int err = errno;
        if (err == ENOSPC || err == EIO)
            warnOnce("JSON report '%s': %s (host I/O failure, "
                     "category %s); report is incomplete",
                     report.path.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("short write to JSON report '%s'; report is "
                 "incomplete",
                 report.path.c_str());
        return;
    }
    std::fprintf(stderr, "[json report written to %s]\n",
                 report.path.c_str());
}

bool
jsonActive()
{
    return !benchReport().path.empty();
}

/** Record one simulation into the report (see runSweep()). */
void
recordResult(const std::string &label, const SimResult &result)
{
    if (!jsonActive())
        return;
    JsonValue entry = JsonValue::object();
    entry.set("label", JsonValue::str(label));
    entry.set("system", JsonValue::str(result.systemName));
    entry.set("issue_hz", JsonValue::integer(result.issueHz));
    entry.set("elapsed_ps", JsonValue::integer(result.elapsedPs));
    entry.set("seconds", JsonValue::number(result.seconds()));
    if (!result.traceFile.empty())
        entry.set("trace_file", JsonValue::str(result.traceFile));
    if (!result.intervalFile.empty())
        entry.set("interval_file", JsonValue::str(result.intervalFile));
    const std::string &filter = benchReport().statsFilter;
    entry.set("stats", filter.empty()
                           ? result.stats.toJson()
                           : result.stats.filter(filter).toJson());
    benchReport().results.push_back(std::move(entry));
}

/**
 * One benchMain flag.  A knob flag is the CLI spelling of its
 * variable: its text is validated under the flag's name, then stored
 * with setKnob(), so it wins over the variable.  A bench-local flag
 * (no variable) is applied by its check instead.
 */
struct BenchFlag
{
    const char *flag;
    /** Usage placeholder, e.g. "<n>"; empty for a switch. */
    std::string value;
    /** The knob the flag sets; null for a bench-local flag. */
    const char *variable;
    /** Throws ConfigError naming `flag` on bad text; may be null. */
    void (*check)(const std::string &text, const char *flag);
};

/** Check with a parser that names the origin of its text. */
template <auto Parse>
void
validate(const std::string &text, const char *flag)
{
    Parse(text, flag);
}

/** Check with a parser that does not, prefixing its error. */
template <auto Parse>
void
validateNamed(const std::string &text, const char *flag)
{
    try {
        Parse(text);
    } catch (const ConfigError &e) {
        throw ConfigError("%s: %s", flag, e.what());
    }
}

} // namespace

int
benchMain(int argc, char **argv, const std::function<int()> &body)
{
    return cliMain([&]() -> int {
        using Text = const std::string &;
        const BenchFlag flags[] = {
            {"--json", "<path>", nullptr,
             [](Text text, const char *) { benchReport().path = text; }},
            {"--audit", "<off|boundaries|paranoid>", "RAMPAGE_AUDIT",
             validateNamed<parseAuditLevel>},
            {"--inject-fault", "<kind[:seed]>", "RAMPAGE_INJECT_FAULT",
             validateNamed<parseFaultPlan>},
            {"--jobs", "<n>", "RAMPAGE_JOBS", validate<parseJobs>},
            {"--cores", "<n>", "RAMPAGE_CORES", validate<parseCores>},
            {"--point-deadline", "<seconds>", "RAMPAGE_DEADLINE",
             validate<parsePointDeadline>},
            {"--isolate", "", "RAMPAGE_ISOLATE", nullptr},
            {"--trace-out", "<base>", "RAMPAGE_TRACE_OUT", nullptr},
            {"--stats-interval", "<refs>", "RAMPAGE_STATS_INTERVAL",
             validate<parseStatsInterval>},
            {"--stats-filter", "<glob>", nullptr,
             [](Text text, const char *) {
                 benchReport().statsFilter = text;
             }},
        };

        benchReport().name = baseName(argc > 0 ? argv[0] : nullptr);
        std::string usage = "usage: " + benchReport().name;
        for (const BenchFlag &row : flags)
            usage += " [" + std::string(row.flag) +
                     (row.value.empty() ? "" : " " + row.value) + "]";
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            const BenchFlag *row =
                std::find_if(std::begin(flags), std::end(flags),
                             [arg](const BenchFlag &candidate) {
                                 return std::strcmp(candidate.flag,
                                                    arg) == 0;
                             });
            if (row == std::end(flags))
                throw ConfigError("unknown argument '%s'\n%s", arg,
                                  usage.c_str());
            std::string text = "1"; // a switch stores "1"
            if (!row->value.empty()) {
                if (i + 1 >= argc)
                    throw ConfigError("%s needs a value\n%s", arg,
                                      usage.c_str());
                text = argv[++i];
            }
            if (row->check)
                row->check(text, arg);
            if (row->variable)
                setKnob(row->variable, text);
        }
        if (!benchReport().path.empty()) {
            // Interval files with tracing off land next to the JSON
            // report: "out/fig.json" yields "out/fig.<point>....".
            std::string base = benchReport().path;
            if (base.size() > 5 &&
                base.compare(base.size() - 5, 5, ".json") == 0)
                base.resize(base.size() - 5);
            setObsFileBaseOverride(base);
        }
        int status = body();
        if (status == 0)
            writeJsonReport();
        return status;
    });
}

void
benchRecordRow(JsonValue row)
{
    if (!jsonActive())
        return;
    benchReport().rows.push_back(std::move(row));
}

void
benchBanner(const std::string &title, const std::string &paper_says)
{
    std::printf("================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper: %s\n", paper_says.c_str());
    std::printf("================================================================\n");
}

void
benchScale()
{
    ExperimentScale scale = experimentScale();
    std::printf("scale: %llu refs per run, %llu-ref time slices "
                "(RAMPAGE_REFS / RAMPAGE_QUANTUM / RAMPAGE_FULL=1 to "
                "change)\n\n",
                static_cast<unsigned long long>(scale.refs),
                static_cast<unsigned long long>(scale.quantumRefs));
}

std::vector<std::string>
blockSizeLabels()
{
    std::vector<std::string> labels;
    for (std::uint64_t size : blockSizeSweep())
        labels.push_back(formatByteSize(size));
    return labels;
}

namespace
{

/** Map a sweep family name to the HierarchyConfig it simulates. */
HierarchyConfig
familyConfig(const std::string &family, std::uint64_t issue_hz,
             std::uint64_t size)
{
    if (family == "baseline")
        return baselineConfig(issue_hz, size);
    if (family == "2way")
        return twoWayConfig(issue_hz, size);
    if (family == "rampage")
        return rampageConfig(issue_hz, size);
    throw ConfigError("unknown system family '%s'", family.c_str());
}

} // namespace

std::vector<SimResult>
runSweep(SweepRunner &runner)
{
    // Outcomes come back in add() order, so the JSON results and the
    // returned vector are identical for any job count.
    SweepReport report = runner.run();
    std::vector<SimResult> results;
    results.reserve(report.outcomes.size());
    for (const PointOutcome &outcome : report.outcomes) {
        if (outcome.status != PointStatus::Ok) {
            if (outcome.exception)
                std::rethrow_exception(outcome.exception);
            throw InternalError("sweep point '%s' failed: %s",
                                outcome.id.c_str(),
                                outcome.error.c_str());
        }
        recordResult(outcome.id, outcome.result);
        results.push_back(outcome.result);
    }
    return results;
}

std::vector<SimResult>
runBlockingSweep(const std::string &family, std::uint64_t issue_hz)
{
    SimConfig sim = defaultSimConfig();
    SweepRunner runner;
    for (std::uint64_t size : blockSizeSweep()) {
        std::string id = family + "/" + formatByteSize(size);
        HierarchyConfig config = familyConfig(family, issue_hz, size);
        runner.add(id, [=] { return simulateSystem(config, sim); });
    }
    return runSweep(runner);
}

Tick
bestTimePs(const std::vector<SimResult> &results, std::uint64_t issue_hz)
{
    Tick best = ~Tick{0};
    for (const SimResult &result : results)
        best = std::min(best, totalTimePs(result.counts, issue_hz));
    return best;
}

} // namespace rampage
