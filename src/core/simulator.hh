/**
 * @file
 * The simulation driver: feeds the multiprogrammed workload through a
 * hierarchy, inserting the context-switch trace at time-slice
 * boundaries (§4.6), and — for RAMpage with context switches on
 * misses — running the timing-coupled schedule where a faulting
 * process blocks on its page transfer while others execute, with the
 * single Rambus channel serializing outstanding transfers.  One
 * chunked loop drives every core count, audit level and
 * observability setting.
 */

#ifndef RAMPAGE_CORE_SIMULATOR_HH
#define RAMPAGE_CORE_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/audit.hh"
#include "core/hierarchy.hh"
#include "obs/obs_config.hh"
#include "os/scheduler.hh"
#include "stats/registry.hh"
#include "trace/source.hh"

namespace rampage
{

/** Driver configuration. */
struct SimConfig
{
    /** Benchmark-trace references to simulate. */
    std::uint64_t maxRefs = 24'000'000;
    /** References per time slice (paper: 500 000 at full scale). */
    std::uint64_t quantumRefs = 120'000;
    /** Insert the ~400-reference context-switch trace at each slice. */
    bool insertSwitchTrace = true;
    /**
     * Context-switch on page faults (RAMpage only, §4.6): overlap
     * page transfers with other processes' execution.
     */
    bool switchOnMiss = false;
    /**
     * Runaway-point watchdog: throw InternalError once the hierarchy
     * has processed this many references in total (benchmark plus
     * handler traces).  0 disables the check.  defaultSimConfig()
     * arms it with a generous multiple of maxRefs, so healthy runs
     * are unaffected while a runaway point (e.g. unbounded handler
     * recursion) aborts cleanly instead of hanging a sweep campaign.
     */
    std::uint64_t watchdogRefBudget = 0;
    /**
     * Model-integrity audit level (src/core/audit.hh): Off runs
     * unaudited, Boundaries audits at every quantum boundary and at
     * end-of-run, Paranoid additionally after every miss that reached
     * the L2/SRAM level.  Violations raise AuditError.  Audits are
     * side-effect-free: simulation output is byte-identical at every
     * level.
     */
    AuditLevel auditLevel = AuditLevel::Off;
    /**
     * Model-fault injection spec, "kind[:seed]" ("" injects nothing;
     * see src/core/fault_injection.hh).  The corruption is applied
     * once, at the first audit boundary — after that boundary's audit
     * has passed clean — so a subsequent violation is attributable to
     * the injector.
     */
    std::string faultPlan;
    /**
     * Timeline observability (src/obs/, all off by default and
     * side-effect-free when off).  `traceOutBase` non-empty turns on
     * simulated-time event tracing; the run writes Chrome trace-event
     * JSON to obsRunFilePath(traceOutBase, label, ".trace.json") —
     * per-point file names under a sweep.  defaultSimConfig()/armedSimConfig()
     * fill these from the CLI/environment via resolveObsSettings().
     */
    std::string traceOutBase;
    /** Benchmark refs per interval-stats epoch; 0 disables. */
    std::uint64_t statsIntervalRefs = 0;
    /** Interval JSONL base path (used when statsIntervalRefs > 0). */
    std::string intervalOutBase;
    /** Trace-ring capacity in events (overflow counts as dropped). */
    std::size_t traceRingCapacity = defaultTraceRingCapacity;
    /** Retired and ignored: there is one engine.  Kept for old callers. */
    bool genericDispatch = false;
    /**
     * CPU cores the built hierarchy should have (factory-level knob,
     * consumed by sweep::simulateSystem before construction — the
     * Simulator itself follows Hierarchy::coreCount()).  0 leaves the
     * hierarchy config's own CommonConfig::cores untouched;
     * defaultSimConfig()/armedSimConfig() fill it from --cores /
     * RAMPAGE_CORES.
     */
    unsigned cores = 0;
    /** Retired and ignored: there is one driver.  Kept for old callers. */
    bool forceMulticoreDriver = false;
};

/** Result of one simulation. */
struct SimResult
{
    /** Elapsed simulated time at the hierarchy's issue rate. */
    Tick elapsedPs = 0;
    /** CPU idle time waiting for transfers (switch-on-miss only). */
    Tick stallPs = 0;
    /** The run's event counts (re-priceable for blocking runs). */
    EventCounts counts;
    /** Scheduler statistics (switch-on-miss only). */
    SchedStats sched;
    /**
     * Frozen named-stats dump: every component's registered counters
     * plus run-level entries (sim.elapsed_ps, sim.seconds and — for
     * switch-on-miss runs — sim.stall_ps and the sched.* counters).
     * Self-contained: remains valid after the hierarchy is destroyed.
     */
    StatsSnapshot stats;
    std::string systemName;
    std::uint64_t issueHz = 0;
    /**
     * Timeline artefacts this run produced (empty when the feature was
     * off or the write failed): the Chrome trace-event JSON and the
     * per-epoch interval JSONL.  Sweep campaigns carry these across
     * the --isolate pipe so the parent can report every per-point file.
     */
    std::string traceFile;
    std::string intervalFile;

    /** Elapsed seconds, as the paper's tables report. */
    double seconds() const;
};

/** Feeds a workload through one hierarchy. */
class Simulator
{
  public:
    /**
     * @param hierarchy the system under test (not owned).
     * @param workload the trace streams (owned); exhausted streams
     *        are rewound and replayed.
     */
    Simulator(Hierarchy &hierarchy,
              std::vector<std::unique_ptr<TraceSource>> workload,
              const SimConfig &config);

    /**
     * Run to completion and report.  Trace sources are dealt
     * round-robin to the hierarchy's cores, and each core's Scheduler
     * slices its sources.  The least-advanced core (lowest id on
     * ties) runs the next chunk of up to 4096 references within its
     * quantum, or up to its next deferred page fault under
     * switch-on-miss, where the shared transfer bus serializes every
     * core's page moves.  A chunk runs as sub-batches of
     * Hierarchy::accessBatch that end early only at an interval-epoch
     * boundary and, under paranoid audits, after every reference;
     * tracing never shortens one, and none moves a chunk boundary.
     * Blocking-mode audits check the *globally priced* time — the
     * per-core clocks include bus-contention waits the event counts
     * deliberately do not price.
     *
     * A blocking single-core run whose sources are all
     * TraceSource::selfContained() generates the next chunk on one
     * helper thread while the current one is simulated, unless the
     * process called keepRunsSingleThreaded(); the helper is joined
     * before run() returns or throws, and the results are the same
     * as a synchronous run's.  After a run that threw, such sources
     * may stand one chunk further on.
     */
    SimResult run();

  private:
    /**
     * Per-chunk cooperative-stop seam: polls the thread's point
     * deadline (throws TimeoutError, src/core/deadline.hh) and
     * enforces SimConfig::watchdogRefBudget (throws InternalError).
     */
    void checkWatchdog() const;

    Hierarchy &hier;
    std::vector<std::unique_ptr<TraceSource>> sources;
    SimConfig cfg;
};

/**
 * Make every later Simulator::run() in this process fill its trace on
 * the calling thread, starting no helper.  SweepRunner's `--isolate`
 * child calls it right after fork(): the parent forked from a pool
 * worker, and starting a thread in the child of a multithreaded
 * process is outside what POSIX allows (ThreadSanitizer kills a child
 * that does).
 */
void keepRunsSingleThreaded();

} // namespace rampage

#endif // RAMPAGE_CORE_SIMULATOR_HH
