/**
 * @file
 * Runtime configuration for the timeline-observability layer
 * (src/obs/): which of the three facilities are on, where their files
 * go, and how per-point output files are named.
 *
 * Everything here is OFF by default and side-effect-free when off —
 * an un-instrumented run is byte-identical to a pre-obs build.  The
 * knobs mirror the sweep knobs' resolution order: an explicit CLI
 * override (the benches' --trace-out / --stats-interval flags,
 * installed via set*Override()), then the environment
 * (RAMPAGE_TRACE_OUT / RAMPAGE_STATS_INTERVAL / RAMPAGE_TRACE_RING,
 * strictly parsed), then disabled.
 *
 * Output files are *per simulation run*: a sweep campaign with
 * tracing on produces one trace file and one interval file per point,
 * named after the point id (SweepRunner installs the id as the
 * calling thread's obs label before running the body, so the scheme
 * composes with --jobs worker threads and --isolate forked children
 * alike).  Runs outside a sweep fall back to a process-wide sequence
 * number.
 */

#ifndef RAMPAGE_OBS_OBS_CONFIG_HH
#define RAMPAGE_OBS_OBS_CONFIG_HH

#include <cstdint>
#include <string>

namespace rampage
{

/** Default trace-ring capacity (events) when none is configured. */
constexpr std::size_t defaultTraceRingCapacity = 1u << 18;

/** Resolved observability settings for one simulation run. */
struct ObsSettings
{
    /** Trace-file base path; "" disables event tracing. */
    std::string traceOutBase;
    /** Benchmark refs per interval-stats epoch; 0 disables. */
    std::uint64_t statsIntervalRefs = 0;
    /**
     * Interval-file base path.  Defaults to traceOutBase when tracing
     * is on, else to the setObsFileBaseOverride() value (benchMain
     * derives one from --json), else "rampage".
     */
    std::string intervalOutBase;
    /** Trace-ring capacity in events (drops are counted beyond it). */
    std::size_t traceRingCapacity = defaultTraceRingCapacity;
};

/**
 * Resolve the observability knobs: CLI overrides first, then
 * RAMPAGE_TRACE_OUT / RAMPAGE_STATS_INTERVAL / RAMPAGE_TRACE_RING,
 * then off.  defaultSimConfig()/armedSimConfig() call this so every
 * bench and example picks the knobs up without new plumbing.
 */
ObsSettings resolveObsSettings();

/**
 * Parse an interval length in references ("50000") with the sweep
 * knobs' strict validation (no signs, no trailing junk, nonzero),
 * naming `origin` in the ConfigError.
 */
std::uint64_t parseStatsInterval(const std::string &text,
                                 const char *origin = "--stats-interval");

/**
 * Parse a trace-ring capacity in events (nonzero) with the same
 * strict validation, naming `origin` in the ConfigError.
 */
std::size_t parseTraceRingCapacity(const std::string &text,
                                   const char *origin =
                                       "RAMPAGE_TRACE_RING");

/** CLI override for the trace base path; "" clears it (tests). */
void setTraceOutOverride(const std::string &base);

/** CLI override for the interval length; 0 clears it (tests). */
void setStatsIntervalOverride(std::uint64_t refs);

/**
 * Fallback base path for interval files when tracing is off (benches
 * derive it from the --json path); "" clears it.
 */
void setObsFileBaseOverride(const std::string &base);

/**
 * Label the calling thread's simulation runs for output-file naming
 * (SweepRunner sets the point id; "" reverts to sequence numbering).
 * Thread-local, so concurrent workers never share a label.
 */
void setObsPointLabel(const std::string &label);

/** The calling thread's current obs label ("" when unset). */
const std::string &obsPointLabel();

/** RAII label scope: installs on construction, clears on exit. */
struct ObsPointLabelScope
{
    explicit ObsPointLabelScope(const std::string &label)
    {
        setObsPointLabel(label);
    }
    ~ObsPointLabelScope() { setObsPointLabel(""); }
};

/**
 * The file-name label for one simulation run: the sanitized thread
 * label, or "runNNN" from a process-wide counter when unlabeled.
 * Sanitization maps every character outside [A-Za-z0-9._-] to '_',
 * so sweep point ids like "rampage/1KB" become safe file names.  Draw
 * it once per run, so all of the run's files share one stem.
 */
std::string obsRunLabel();

/** Per-run output path: `base` + "." + `label` + `suffix`. */
std::string obsRunFilePath(const std::string &base,
                           const std::string &label, const char *suffix);

} // namespace rampage

#endif // RAMPAGE_OBS_OBS_CONFIG_HH
