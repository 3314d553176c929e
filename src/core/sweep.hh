/**
 * @file
 * Experiment scaffolding shared by the benches, examples and
 * integration tests: canonical system configurations (paper §4),
 * environment-controlled run scale, one-call runners that build a
 * hierarchy plus the Table 2 workload and simulate it, and the
 * fault-tolerant SweepRunner that executes whole campaigns point by
 * point with per-point outcomes and checkpoint/resume.
 *
 * Run knobs, each read through knob() (util/knob.hh): a bench flag
 * named in brackets is the CLI spelling of its variable and wins over
 * it; an empty value means unset.
 *  - RAMPAGE_REFS=<n>     benchmark references per run (default 24 M)
 *  - RAMPAGE_QUANTUM=<n>  references per time slice (default 120 K)
 *  - RAMPAGE_FULL=1       paper scale: 1.1 G references, 500 K quantum
 *                         ("0"/"1", strictly parsed; default 0)
 *  - RAMPAGE_RATES=a,b,c  issue rates (default 200MHz,500MHz,1GHz,
 *                         2GHz,4GHz)
 *  - RAMPAGE_JOBS=<n>     SweepRunner worker threads (default 1)
 *                         [--jobs]
 *  - RAMPAGE_CORES=<n>    CPU cores per simulated system (default:
 *                         the hierarchy config's own setting, i.e. 1)
 *                         [--cores]
 *  - RAMPAGE_DEADLINE=<s> per-point wall-clock deadline in seconds
 *                         (default: none) [--point-deadline]
 *  - RAMPAGE_ISOLATE=1    fork each sweep point into a child process
 *                         (default 0) [--isolate]
 */

#ifndef RAMPAGE_CORE_SWEEP_HH
#define RAMPAGE_CORE_SWEEP_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/factory.hh"
#include "core/fault_injection.hh"
#include "core/simulator.hh"
#include "util/error.hh"

namespace rampage
{

/** Run-scale parameters resolved from the knobs. */
struct ExperimentScale
{
    std::uint64_t refs = 24'000'000;
    std::uint64_t quantumRefs = 120'000;
};

/** Resolve the run scale from the knobs (see file comment). */
ExperimentScale experimentScale();

/** Issue rates to sweep (RAMPAGE_RATES or the paper-like default). */
std::vector<std::uint64_t> issueRates();

/** Largest worker-pool size resolveJobs()/parseJobs() accept. */
constexpr unsigned maxSweepJobs = 256;

/**
 * Parse a worker count ("4") with full validation: rejects empty or
 * non-numeric text, signs, trailing junk ("4x"), zero and anything
 * above maxSweepJobs, naming `origin` (the flag or environment
 * variable the text came from) in the ConfigError.
 */
unsigned parseJobs(const std::string &text, const char *origin = "--jobs");

/** SweepRunner worker threads: the RAMPAGE_JOBS knob, else 1. */
unsigned resolveJobs();

/**
 * Parse a simulated-core count ("4") with the same strict validation
 * as parseJobs(), capped at maxCores (core/core_frontend.hh), naming
 * `origin` in the ConfigError.
 */
unsigned parseCores(const std::string &text,
                    const char *origin = "--cores");

/**
 * Simulated CPU cores to build hierarchies with: the RAMPAGE_CORES
 * knob, else 0 — meaning "leave the hierarchy config's own
 * CommonConfig::cores untouched".
 */
unsigned resolveCores();

/**
 * Parse a per-point wall-clock deadline ("2.5") with the same strict
 * validation as parseJobs(): rejects non-numeric text, signs,
 * trailing junk, zero and non-finite values, naming `origin` in the
 * ConfigError.
 */
double parsePointDeadline(const std::string &text,
                          const char *origin = "--point-deadline");

/** Per-point deadline seconds: RAMPAGE_DEADLINE, else 0 (none). */
double resolvePointDeadline();

/**
 * Whether points run in forked child processes: RAMPAGE_ISOLATE
 * ("0"/"1", strictly parsed; --isolate stores "1"), else false.
 */
bool resolveIsolate();

/** The paper's block/page size sweep: 128 B ... 4 KB. */
std::vector<std::uint64_t> blockSizeSweep();

/** Common parameters at an issue rate (§4.3). */
CommonConfig defaultCommon(std::uint64_t issue_hz);

/** The §4.4 baseline: direct-mapped 4 MB L2. */
ConventionalConfig baselineConfig(std::uint64_t issue_hz,
                                  std::uint64_t l2_block_bytes);

/** The §4.7 system: 2-way random-replacement 4 MB L2. */
ConventionalConfig twoWayConfig(std::uint64_t issue_hz,
                                std::uint64_t l2_block_bytes);

/** The §4.5 RAMpage system at an SRAM page size. */
RampageConfig rampageConfig(std::uint64_t issue_hz,
                            std::uint64_t page_bytes,
                            bool switch_on_miss = false);

/**
 * SimConfig at the knob scale, with the runaway watchdog armed and
 * the audit level, fault plan, core count and observability settings
 * resolved from their knobs (RAMPAGE_AUDIT, RAMPAGE_INJECT_FAULT, ...).
 */
SimConfig defaultSimConfig(bool switch_on_miss = false);

/**
 * SimConfig for an explicit (refs, quantum) pair with the same
 * hardening as defaultSimConfig(): armed watchdog, resolved audit
 * level and fault plan.  Use this instead of building a raw SimConfig
 * whenever a bench or example picks its own scale.
 */
SimConfig armedSimConfig(std::uint64_t refs, std::uint64_t quantum_refs);

/**
 * Build (via makeHierarchy()), run and report any system on the §4.2
 * workload.  A paged config's switchOnMiss policy overrides the
 * SimConfig's, exactly as a hand-built RAMpage run would set it.
 */
SimResult simulateSystem(const HierarchyConfig &config,
                         const SimConfig &sim);

// ------------------------------------------------------------ SweepRunner

/** How one sweep point ended. */
enum class PointStatus {
    Ok,          ///< simulated to completion this run
    Failed,      ///< raised an error; the campaign continued
    AuditFailed, ///< a model-integrity audit rejected live state
    Skipped,     ///< already completed per the checkpoint manifest
    TimedOut,    ///< cancelled at the per-point wall-clock deadline
    Crashed,     ///< the point's isolated child died on a signal
};

/** Stable lower-case name ("ok", "failed", "audit-failed", ...). */
const char *pointStatusName(PointStatus status);

/** Outcome record for one sweep point. */
struct PointOutcome
{
    std::string id;
    PointStatus status = PointStatus::Failed;
    /** Failure classification; meaningful unless Ok/Skipped. */
    ErrorCategory errorCategory = ErrorCategory::Internal;
    /** Diagnostic message; empty when Ok/Skipped. */
    std::string error;
    /**
     * First violated invariant's stable name ("inclusion.l1",
     * "time.conservation"); empty unless AuditFailed.
     */
    std::string auditInvariant;
    /** Audit scope line ("quantum boundary (...)"); AuditFailed only. */
    std::string auditScope;
    /**
     * Structured audit violations; AuditFailed only.  Together with
     * auditScope this is enough to rebuild the original AuditError
     * verbatim across the --isolate fork boundary.
     */
    std::vector<AuditViolation> auditViolations;
    /** Wall time of this execution (or the checkpointed value). */
    double wallSeconds = 0;
    /**
     * Hierarchy references the point had executed when the per-point
     * deadline cancelled it; meaningful only when TimedOut.
     */
    std::uint64_t refsAtCancel = 0;
    /**
     * The signal that killed the point's isolated child (SIGSEGV,
     * SIGABRT, SIGKILL...); meaningful only when Crashed.
     */
    int signalNumber = 0;
    /**
     * Post-mortem: the debug ring buffer's tail at the moment of
     * failure (most recent RAMPAGE_DPRINTF events).  Empty unless
     * Failed and tracing was active.
     */
    std::vector<std::string> debugTail;
    /**
     * The exception the point raised, for embedders that want to
     * rethrow a failure with full fidelity (runBlockingSweep turns a
     * failed bench point back into the error a serial run would have
     * surfaced).  Null unless Failed/AuditFailed.
     */
    std::exception_ptr exception;
    /** True when `result` holds a simulation run from this campaign. */
    bool haveResult = false;
    SimResult result;
};

/** Everything a campaign produced, in add() order. */
struct SweepReport
{
    std::vector<PointOutcome> outcomes;

    std::size_t count(PointStatus status) const;
    std::size_t okCount() const { return count(PointStatus::Ok); }
    std::size_t failedCount() const { return count(PointStatus::Failed); }
    std::size_t auditFailedCount() const
    {
        return count(PointStatus::AuditFailed);
    }
    std::size_t skippedCount() const
    {
        return count(PointStatus::Skipped);
    }
    std::size_t timedOutCount() const
    {
        return count(PointStatus::TimedOut);
    }
    std::size_t crashedCount() const
    {
        return count(PointStatus::Crashed);
    }
    bool
    allOk() const
    {
        return failedCount() == 0 && auditFailedCount() == 0 &&
               timedOutCount() == 0 && crashedCount() == 0;
    }
};

/**
 * Fault-tolerant sweep engine.  Each queued point runs under
 * try/catch: a point that throws (bad trace, invalid configuration,
 * internal bug, watchdog trip) is recorded as Failed with its error
 * category and the campaign continues, so one poisoned point costs
 * one point — never the whole parameter sweep.  On top of that basic
 * containment the runner layers three independent hardening stages:
 *
 *  - Deadlines: with a per-point wall-clock deadline configured
 *    (Options::pointDeadlineSeconds, --point-deadline,
 *    RAMPAGE_DEADLINE) a runaway point is cancelled cooperatively at
 *    the simulator's watchdog seam and recorded as TimedOut with the
 *    reference count it had reached; healthy points are unaffected.
 *
 *  - Isolation: with Options::isolate (--isolate, RAMPAGE_ISOLATE=1)
 *    each point runs in a forked child that streams its outcome (and
 *    its post-mortem debug-ring tail) back over a pipe, so a point
 *    that SIGSEGVs, aborts or is OOM-killed becomes a Crashed outcome
 *    carrying the signal number while the rest of the sweep
 *    continues.  Results are serialized bit-exactly (doubles as bit
 *    patterns), so observables match an in-process run byte for byte.
 *
 *  - Crash-consistent checkpointing: see below.
 *
 * With a checkpoint path configured, a versioned, CRC-protected
 * manifest line is appended with a single write(2) and fsync'd after
 * every completed point; re-running the same campaign against the
 * same manifest skips completed points (reported as Skipped) and
 * re-executes only failed or new ones.  A torn final line — the
 * signature of a mid-append SIGKILL or power loss — is detected by
 * its CRC, repaired by truncation, and costs exactly one re-simulated
 * point.  Damaged interior lines are warned about and ignored, so a
 * corrupt checkpoint degrades to re-simulation rather than an error.
 *
 * With jobs > 1 (Options::jobs, --jobs, RAMPAGE_JOBS) independent
 * points execute concurrently on a worker pool while every observable
 * stays equivalent to a serial run:
 *  - outcomes land in add() order, and the per-point status lines are
 *    emitted by the main thread in that order, so stdout/stderr do
 *    not depend on completion order;
 *  - manifest appends are serialized behind a mutex (one fopen/write
 *    critical section per point); line *order* may differ from a
 *    serial run but the line *set* is the same;
 *  - the post-mortem debug ring is thread-local, so a failing point's
 *    tail holds only its own events;
 *  - each point builds its own hierarchy (with its own seeded Rngs)
 *    inside its body and retires it when the body returns, so results
 *    never depend on scheduling and memory stays bounded by the
 *    worker count, not the campaign size.
 * Point bodies must therefore not share mutable state with each
 * other; everything under src/ already satisfies this (points only
 * share the read-only trace roster).
 */
class SweepRunner
{
  public:
    struct Options
    {
        /** Checkpoint manifest path; empty disables checkpointing. */
        std::string checkpointPath;
        /**
         * Worker threads executing points concurrently; 1 (or 0) runs
         * the campaign serially.  Defaults to resolveJobs().
         */
        unsigned jobs = resolveJobs();
        /**
         * Per-point wall-clock deadline in seconds; a point still
         * running at the deadline is cancelled cooperatively and
         * recorded as TimedOut.  0 means none.  Defaults to
         * resolvePointDeadline().
         */
        double pointDeadlineSeconds = resolvePointDeadline();
        /**
         * Run each point in a forked child process rather than
         * in-process.  Defaults to resolveIsolate().
         */
        bool isolate = resolveIsolate();
    };

    SweepRunner() = default;
    explicit SweepRunner(const Options &options) : opts(options) {}

    /**
     * Queue one point.  `id` names it in outcomes and the manifest
     * and must be unique within the campaign (ConfigError otherwise).
     */
    void add(const std::string &id, std::function<SimResult()> body);

    std::size_t pointCount() const { return points.size(); }

    /**
     * Execute every queued point, continuing past failures.
     * @throws ConfigError for a malformed RAMPAGE_SWEEP_FAULT spec or
     *         a checkpoint manifest from a newer build, before any
     *         point runs.
     */
    SweepReport run();

  private:
    struct Point
    {
        std::string id;
        std::function<SimResult()> body;
    };

    /** id -> checkpointed wall seconds from a previous campaign. */
    std::map<std::string, double> loadManifest() const;
    /** Caller must hold manifestMutex when workers are live. */
    void appendManifest(const PointOutcome &outcome) const;

    /**
     * Run one point (worker context): a local or isolated attempt,
     * then its checkpoint line.
     */
    PointOutcome executePoint(const Point &point) const;
    /** One in-process attempt: deadline arming, try/catch taxonomy. */
    PointOutcome runLocalAttempt(const Point &point) const;
    /** One forked attempt: pipe protocol, signal & hang containment. */
    PointOutcome runIsolatedAttempt(const Point &point) const;
    /** Emit the point's status lines (reporter context, in order). */
    void reportOutcome(const PointOutcome &outcome) const;

    Options opts;
    std::vector<Point> points;
    /**
     * RAMPAGE_SWEEP_FAULT, parsed once by run() on the calling thread
     * so a bad spec throws there; workers and forked children only
     * read it.
     */
    SweepFaultPlan faultPlan;
    /** Serializes checkpoint-manifest appends across workers. */
    mutable std::mutex manifestMutex;
};

} // namespace rampage

#endif // RAMPAGE_CORE_SWEEP_HH
