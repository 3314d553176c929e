#include "core/simulator.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/deadline.hh"
#include "core/fault_injection.hh"
#include "obs/interval_stats.hh"
#include "obs/trace_session.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

namespace
{

/**
 * References per chunk: large enough to amortize the per-chunk
 * virtual calls (one fill, one accessBatch) and loop bookkeeping,
 * small enough that the buffer stays cache-resident and the
 * watchdog/deadline polls keep reference-scale granularity.  Part of
 * the multicore model's definition: cores interleave at chunk
 * granularity.
 */
constexpr std::uint64_t batchRefs = 4096;

/**
 * Fill `buf` with exactly `n` references from `source`, rewinding and
 * replaying at end-of-stream.
 */
void
fillRefs(TraceSource &source, MemRef *buf, std::size_t n)
{
    std::size_t got = source.fill(buf, n);
    while (got < n) {
        // End-of-stream mid-buffer: rewind and replay.
        source.reset();
        std::size_t more = source.fill(buf + got, n - got);
        if (more == 0)
            throw InternalError("trace source '%s' empty after reset",
                                source.name().c_str());
        got += more;
    }
}

/** Cleared by keepRunsSingleThreaded(). */
std::atomic<bool> helpersAllowed{true};

/**
 * Whether a single-core blocking run over `sources` may fill ahead on
 * a helper thread: every source must be TraceSource::selfContained(),
 * and the process must not have called keepRunsSingleThreaded().
 */
bool
canFillAhead(const std::vector<std::unique_ptr<TraceSource>> &sources)
{
    return helpersAllowed.load(std::memory_order_relaxed) &&
           std::all_of(sources.begin(), sources.end(),
                       [](const auto &source) {
                           return source->selfContained();
                       });
}

/**
 * The reference chunks of a blocking run, passed through two slots.
 * Synchronously, take() fills slot 0 in place.  With lookahead, a
 * helper thread fills chunk k+1 into one slot while chunk k is
 * simulated from the other.  That needs the chunk sequence to be
 * known in advance, as it is in a single-core blocking run: slice i
 * is the next `quantum` references of source i mod S, cut into chunks
 * of at most batchRefs, so it depends on the sources, the quantum and
 * maxRefs alone.  Multicore runs pick their next source by simulated
 * time and fill synchronously (switch-on-miss runs keep per-source
 * buffers instead of a feed).  An exception from a helper-side fill
 * travels with its chunk and is rethrown by take(); the destructor
 * stops and joins the helper on every exit from run().
 */
class ChunkFeed
{
  public:
    ChunkFeed(std::vector<std::unique_ptr<TraceSource>> &sources,
              const SimConfig &cfg, bool lookahead)
        : srcs(sources)
    {
        slots[0].refs.resize(batchRefs);
        if (!lookahead)
            return;
        slots[1].refs.resize(batchRefs);
        helper = std::thread(&ChunkFeed::produce, this, cfg.quantumRefs,
                             cfg.maxRefs);
    }

    ~ChunkFeed()
    {
        if (!helper.joinable())
            return;
        {
            std::lock_guard<std::mutex> hold(lock);
            stopping = true;
        }
        changed.notify_all();
        helper.join();
    }

    ChunkFeed(const ChunkFeed &) = delete;
    ChunkFeed &operator=(const ChunkFeed &) = delete;

    /**
     * The next chunk, which must be `n` references of source `index`;
     * valid until the next take(), which hands its slot back for
     * refilling.
     */
    const MemRef *
    take(std::size_t index, std::size_t n)
    {
        if (!helper.joinable()) {
            fillRefs(*srcs[index], slots[0].refs.data(), n);
            return slots[0].refs.data();
        }
        {
            std::unique_lock<std::mutex> hold(lock);
            await(hold, [&] { return filled > taken; });
            ++taken;
        }
        changed.notify_one();
        const Slot &slot = slots[(taken - 1) % 2];
        if (slot.error)
            std::rethrow_exception(slot.error);
        RAMPAGE_ASSERT(slot.index == index && slot.n == n,
                       "chunk feed out of step with the scheduler");
        return slot.refs.data();
    }

  private:
    /**
     * Wait under `hold` until `ready()`, yielding the CPU a while
     * before sleeping.  The other side's next step is due within about
     * a chunk's time, and waking a sleeping thread tends to pull it
     * onto the waker's CPU, where the two threads take turns instead
     * of overlapping: on a 4-vCPU guest, waits that slept left
     * `baseline-1KB` at the synchronous rate in some runs.
     */
    template <typename Ready>
    void
    await(std::unique_lock<std::mutex> &hold, Ready ready)
    {
        for (int round = 0; round < yieldRounds && !ready(); ++round) {
            hold.unlock();
            std::this_thread::yield();
            hold.lock();
        }
        changed.wait(hold, ready);
    }

    /** Yields before a wait sleeps: about a chunk's time. */
    static constexpr int yieldRounds = 256;

    struct Slot
    {
        std::vector<MemRef> refs;
        std::size_t index = 0; ///< source the chunk came from
        std::size_t n = 0;     ///< references in the chunk
        std::exception_ptr error;
    };

    /**
     * The helper: fill every chunk of the run.  Chunk k goes into
     * slot k % 2 once chunk k - 1 is taken, so chunk k - 2, the
     * slot's last, is done with.
     */
    void
    produce(std::uint64_t quantum, std::uint64_t max_refs)
    {
        std::size_t index = 0;
        std::uint64_t slice_left = quantum;
        for (std::uint64_t done = 0, k = 0; done < max_refs; ++k) {
            {
                std::unique_lock<std::mutex> hold(lock);
                await(hold, [&] { return stopping || k <= taken; });
                if (stopping)
                    return;
            }
            Slot &slot = slots[k % 2];
            slot.index = index;
            slot.n = static_cast<std::size_t>(
                std::min({max_refs - done, slice_left, batchRefs}));
            bool failed = false;
            try {
                fillRefs(*srcs[index], slot.refs.data(), slot.n);
            } catch (...) {
                slot.error = std::current_exception();
                failed = true;
            }
            {
                std::lock_guard<std::mutex> hold(lock);
                ++filled;
            }
            changed.notify_one();
            if (failed)
                return;
            done += slot.n;
            slice_left -= slot.n;
            if (slice_left == 0) {
                index = (index + 1) % srcs.size();
                slice_left = quantum;
            }
        }
    }

    std::vector<std::unique_ptr<TraceSource>> &srcs;
    Slot slots[2];
    std::mutex lock;
    std::condition_variable changed;
    std::uint64_t filled = 0; ///< chunks the helper has published
    std::uint64_t taken = 0;  ///< chunks the simulator has taken
    bool stopping = false;
    std::thread helper; ///< last: started once the rest is built
};

/**
 * Per-run observability scope: builds the trace session and interval
 * writer a SimConfig asks for, hands the session to the hierarchy so
 * its emission sites see it, and guarantees Hierarchy::trace is
 * cleared on every exit path (including a thrown
 * TimeoutError/AuditError mid-run).
 */
class ObsScope
{
  public:
    ObsScope(const SimConfig &cfg, Hierarchy &hierarchy)
        : hier(hierarchy)
    {
        // One label per run, so its trace and interval files share
        // a stem even when it is drawn from the sequence counter.
        std::string label;
        if (!cfg.traceOutBase.empty() || cfg.statsIntervalRefs > 0)
            label = obsRunLabel();
        if (!cfg.traceOutBase.empty()) {
            traceFile = obsRunFilePath(cfg.traceOutBase, label,
                                       ".trace.json");
            session =
                std::make_unique<TraceSession>(cfg.traceRingCapacity);
        }
        if (cfg.statsIntervalRefs > 0) {
            std::string base = cfg.intervalOutBase.empty()
                                   ? std::string("rampage")
                                   : cfg.intervalOutBase;
            intervalFile =
                obsRunFilePath(base, label, ".intervals.jsonl");
            intervals = std::make_unique<IntervalStatsWriter>(
                &hier.statsRegistry(), intervalFile,
                cfg.statsIntervalRefs);
        }
        // Installed last: a constructor that throws never runs the
        // destructor that clears it.
        hier.trace = session.get();
    }

    ~ObsScope() { hier.trace = nullptr; }

    /** References until the next interval epoch (none when off). */
    std::uint64_t
    refsToEpoch(std::uint64_t refs_executed) const
    {
        return intervals ? intervals->nextSampleAt() - refs_executed
                         : ~std::uint64_t{0};
    }

    /** Advance the trace clock to the simulated now. */
    void
    setNow(Tick now)
    {
        if (session)
            session->setNow(now);
    }

    /** Sample an interval epoch when a boundary was crossed. */
    void
    maybeSample(std::uint64_t refs_executed, Tick now)
    {
        if (intervals)
            intervals->maybeSample(refs_executed, now);
    }

    /**
     * End-of-run bookkeeping: flush the final interval epoch, write
     * the trace file, and record the artefact paths plus the
     * sim.trace.* / sim.interval.* counters into the result.  Only
     * touches the result when a facility was on, so disabled runs
     * stay byte-identical.
     */
    void
    finish(SimResult &result, std::uint64_t refs_executed, Tick now)
    {
        if (intervals) {
            intervals->finish(refs_executed, now);
            result.stats.addCounter("sim.interval.epochs",
                                    "interval-stats epochs written",
                                    intervals->epochs());
            if (!intervals->failed())
                result.intervalFile = intervalFile;
        }
        if (session) {
            result.stats.addCounter("sim.trace.events",
                                    "timeline events emitted",
                                    session->emitted());
            result.stats.addCounter(
                "sim.trace.dropped",
                "timeline events dropped (ring full)",
                session->dropped());
            if (session->writeChromeTrace(traceFile))
                result.traceFile = traceFile;
        }
    }

  private:
    Hierarchy &hier;
    std::unique_ptr<TraceSession> session;
    std::unique_ptr<IntervalStatsWriter> intervals;
    std::string traceFile;
    std::string intervalFile;
};

} // namespace

void
keepRunsSingleThreaded()
{
    helpersAllowed.store(false, std::memory_order_relaxed);
}

double
SimResult::seconds() const
{
    return static_cast<double>(elapsedPs) / psPerSec;
}

Simulator::Simulator(Hierarchy &hierarchy,
                     std::vector<std::unique_ptr<TraceSource>> workload,
                     const SimConfig &config)
    : hier(hierarchy), sources(std::move(workload)), cfg(config)
{
    RAMPAGE_ASSERT(!sources.empty(), "simulator needs a workload");
    RAMPAGE_ASSERT(cfg.quantumRefs > 0, "quantum must be positive");
    parseFaultPlan(cfg.faultPlan); // reject bad specs before running
    if (cfg.watchdogRefBudget == 0)
        warnOnce("watchdog disabled (SimConfig::watchdogRefBudget is "
                 "0): a runaway point will hang instead of aborting; "
                 "defaultSimConfig()/armedSimConfig() arm it");
}

void
Simulator::checkWatchdog() const
{
    // The per-point deadline shares the watchdog's per-chunk seam:
    // both are cooperative "stop this point" checks, one on simulated
    // work, one on wall time.
    pollPointDeadline(hier.counts().refs);
    if (cfg.watchdogRefBudget == 0)
        return;
    std::uint64_t processed = hier.counts().refs;
    if (processed > cfg.watchdogRefBudget)
        throw InternalError(
            "watchdog: %llu hierarchy references processed against a "
            "budget of %llu; aborting a runaway point",
            static_cast<unsigned long long>(processed),
            static_cast<unsigned long long>(cfg.watchdogRefBudget));
}

SimResult
Simulator::run()
{
    const unsigned ncores = hier.coreCount();
    if (sources.size() < ncores)
        throw ConfigError(
            "multicore run needs at least one trace source per core "
            "(%u cores, %zu sources)",
            ncores, sources.size());

    Auditor auditor(cfg.auditLevel);
    FaultInjector injector(parseFaultPlan(cfg.faultPlan));
    ObsScope obs(cfg, hier);
    const bool som = cfg.switchOnMiss;

    // A chunk the switch-on-miss path cuts short at a fault leaves
    // unconsumed references behind; each source keeps a persistent
    // buffer drained strictly in order, so what a fault leaves over is
    // what that process runs next time it is scheduled.
    struct Buffered
    {
        std::vector<MemRef> refs;
        std::size_t pos = 0;
    };
    std::vector<Buffered> bufs(sources.size());

    struct CoreRun
    {
        std::vector<std::size_t> srcs;    ///< global source indices
        std::unique_ptr<Scheduler> sched; ///< slices srcs round-robin
        Tick now = 0;                     ///< this core's clock
    };
    std::vector<CoreRun> cores(ncores);
    // Sources round-robin across cores: source i runs on core i % N.
    for (std::size_t i = 0; i < sources.size(); ++i)
        cores[i % ncores].srcs.push_back(i);
    for (CoreRun &core : cores)
        core.sched =
            std::make_unique<Scheduler>(core.srcs.size(), cfg.quantumRefs);

    // Globally priced time: every cpuPs/deferPs increment, summed
    // across cores.  The blocking conservation identity
    // (elapsed == totalTimePs(counts, issueHz)) holds for this sum —
    // the per-core clocks additionally carry bus-contention waits the
    // event counts deliberately do not price.
    Tick priced = 0;
    // Shared transfer bus (the single Rambus channel): one core's
    // page transfer or miss traffic delays every other core's.
    Tick bus_free_at = 0;
    Tick bus_stall = 0;
    // The run frontier, the largest core clock so far: interval
    // epochs are stamped with it so simulated time never runs
    // backwards across cores.
    Tick frontier = 0;
    std::uint64_t audited_misses = hier.counts().l2Misses;
    std::uint64_t executed = 0;

    // One chunk through the hierarchy, as sub-batches of accessBatch
    // with its stop rule.  A sub-batch ends early only at the next
    // interval epoch and, under paranoid audits, after every
    // reference; chunk boundaries never move.
    auto step = [&](CoreRun &core, const MemRef *refs, std::size_t n) {
        // Switch-on-miss clocks leave a fault's transfer to the bus.
        auto clock = [&](const BatchOutcome &o) {
            return core.now + o.cpuPs + (som ? 0 : o.deferPs);
        };
        BatchOutcome out;
        while (out.consumed < n && !out.pageFault) {
            std::uint64_t len = std::min<std::uint64_t>(
                auditor.paranoid() ? 1 : n - out.consumed,
                obs.refsToEpoch(executed + out.consumed));
            obs.setNow(clock(out));
            BatchOutcome part =
                hier.accessBatch(refs + out.consumed,
                                 static_cast<std::size_t>(len), som);
            out.consumed += part.consumed;
            out.cpuPs += part.cpuPs;
            out.deferPs += part.deferPs;
            out.pageFault = part.pageFault;
            Tick at = clock(out);
            frontier = std::max(frontier, at);
            obs.maybeSample(executed + out.consumed, frontier);
            if (auditor.paranoid() &&
                hier.counts().l2Misses != audited_misses) {
                audited_misses = hier.counts().l2Misses;
                if (som)
                    auditor.auditSwitchOnMiss(hier, *core.sched, at,
                                              "SRAM miss");
                else
                    auditor.auditBlocking(hier, priced + (at - core.now),
                                          "L2/SRAM miss");
            }
        }
        return out;
    };

    // The context-switch trace at a slice or miss boundary.
    auto contextSwitch = [&](CoreRun &core, std::uint64_t arg) {
        if (!cfg.insertSwitchTrace)
            return;
        obs.setNow(core.now);
        Tick t = hier.runContextSwitchTrace();
        if (hier.trace)
            hier.trace->emit(TraceEventKind::ContextSwitch, t, arg,
                             osPid);
        core.now += t;
        priced += t;
    };

    // Audit a boundary first, then corrupt: the planned fault lands
    // on provably clean state, so the violation the next audit raises
    // is the injector's.
    auto inject = [&](CoreRun &core) {
        if (!injector.pending())
            return;
        if (som && injector.targetsScheduler())
            injector.applyScheduler(*core.sched, core.now);
        else
            injector.apply(hier);
    };

    if (som && cfg.insertSwitchTrace) {
        // Every core boots into its first process.
        for (unsigned c = 0; c < ncores; ++c) {
            hier.activateCore(static_cast<CoreId>(c));
            Tick t = hier.runContextSwitchTrace();
            cores[c].now += t;
            priced += t;
            frontier = std::max(frontier, cores[c].now);
        }
    }

    std::optional<ChunkFeed> feed;
    if (!som)
        feed.emplace(sources, cfg, ncores == 1 && canFillAhead(sources));

    while (executed < cfg.maxRefs) {
        checkWatchdog();
        // Deterministic interleave: the least-advanced core runs the
        // next chunk of work; the lowest core id breaks ties.
        unsigned k = 0;
        for (unsigned c = 1; c < ncores; ++c)
            if (cores[c].now < cores[k].now)
                k = c;
        CoreRun &core = cores[k];
        Scheduler &sched = *core.sched;
        hier.activateCore(static_cast<CoreId>(k));

        if (!som) {
            // Nothing blocks in these runs, so the scheduler is plain
            // round-robin: each slice opens with the switch trace.
            if (sched.refsUntilQuantum() == sched.quantum())
                contextSwitch(core, 0);
            std::uint64_t n = std::min(
                {cfg.maxRefs - executed, sched.refsUntilQuantum(),
                 batchRefs});
            const MemRef *refs = feed->take(core.srcs[sched.current()],
                                            static_cast<std::size_t>(n));
            Tick dram_before = hier.counts().dramPs;
            BatchOutcome out =
                step(core, refs, static_cast<std::size_t>(n));
            Tick spent = out.cpuPs + out.deferPs;
            core.now += spent;
            priced += spent;
            executed += n;

            // Bus occupancy: the chunk's DRAM time must start after
            // the bus frees; a busy bus stalls this core (wall-clock
            // only — priced time stays the conservation identity's).
            Tick dram_ps = hier.counts().dramPs - dram_before;
            if (ncores > 1 && dram_ps > 0) {
                Tick start_want = core.now - dram_ps;
                if (bus_free_at > start_want) {
                    Tick wait = bus_free_at - start_want;
                    core.now += wait;
                    bus_stall += wait;
                }
                bus_free_at = core.now;
            }

            if (sched.onRefs(n)) {
                sched.rotate(core.now);
                auditor.auditBlocking(hier, priced,
                                      "quantum boundary");
                inject(core);
            }
        } else {
            std::size_t src = core.srcs[sched.current()];
            Buffered &buf = bufs[src];
            if (buf.pos == buf.refs.size()) {
                buf.refs.resize(batchRefs);
                fillRefs(*sources[src], buf.refs.data(), batchRefs);
                buf.pos = 0;
            }
            std::uint64_t n = std::min(
                {cfg.maxRefs - executed, sched.refsUntilQuantum(),
                 static_cast<std::uint64_t>(buf.refs.size() -
                                            buf.pos)});
            BatchOutcome out = step(core, buf.refs.data() + buf.pos,
                                    static_cast<std::size_t>(n));
            buf.pos += out.consumed;
            core.now += out.cpuPs;
            priced += out.cpuPs;
            executed += out.consumed;
            bool quantum_expired = sched.onRefs(out.consumed);

            // A fault wins over an expiry on the same reference;
            // either way the scheduler pick resets the slice.
            if (out.pageFault || quantum_expired) {
                // Audit before the switch: the faulting process is
                // still the running one, so a corrupted run queue is
                // caught while it is visibly wrong.
                auditor.auditSwitchOnMiss(hier, sched, core.now,
                                          out.pageFault
                                              ? "miss boundary"
                                              : "quantum boundary");
                Tick done = 0;
                if (out.pageFault) {
                    // The handler has queued the transfer; the shared
                    // channel serializes every core's page moves
                    // (§2.4 models no pipelining of references), so
                    // it starts when the bus frees.
                    done = std::max(core.now, bus_free_at) +
                           out.deferPs;
                    bus_free_at = done;
                    priced += out.deferPs;
                }
                contextSwitch(core, executed - 1);
                SchedPick pick = out.pageFault
                                     ? sched.blockCurrent(core.now, done)
                                     : sched.rotate(core.now);
                obs.setNow(core.now);
                // A fault's switch carries the wait until the pick can
                // run; a slice expiry's carries none.
                if (hier.trace)
                    hier.trace->emit(TraceEventKind::ProcessSwitch,
                                     out.pageFault &&
                                             pick.resumeAt > core.now
                                         ? pick.resumeAt - core.now
                                         : 0,
                                     pick.index,
                                     static_cast<Pid>(pick.index));
                core.now = std::max(core.now, pick.resumeAt);
                inject(core);
            }
        }
        frontier = std::max(frontier, core.now);
    }

    // The run ends when the last core retires its work and any
    // transfer still on the bus completes.
    Tick end_now = som ? bus_free_at : 0;
    for (const CoreRun &core : cores)
        end_now = std::max(end_now, core.now);
    if (som) {
        for (CoreRun &core : cores)
            auditor.auditSwitchOnMiss(hier, *core.sched, end_now,
                                      "end of run");
    } else {
        auditor.auditBlocking(hier, priced, "end of run");
    }
    if (injector.pending())
        warnOnce("fault injection: '%s' was never applied (the run "
                 "ended before its first audit boundary)",
                 modelFaultName(injector.planned().kind));

    SimResult result;
    result.elapsedPs = end_now;
    result.counts = hier.counts();
    result.systemName = hier.name();
    result.issueHz = hier.commonConfig().issueHz;
    result.stats = hier.statsRegistry().snapshot();
    if (som) {
        // The schedulers are local to this run: snapshot them through
        // a throwaway registry so no dangling pointer outlives the
        // call.
        SchedStats total;
        StatsRegistry sched_reg;
        for (unsigned c = 0; c < ncores; ++c) {
            const SchedStats &s = cores[c].sched->stats();
            total.quantumSwitches += s.quantumSwitches;
            total.missSwitches += s.missSwitches;
            total.stalls += s.stalls;
            total.stallTime += s.stallTime;
            const std::string prefix =
                ncores == 1 ? "sched"
                            : "core" + std::to_string(c) + ".sched";
            cores[c].sched->registerStats(sched_reg, prefix);
        }
        result.sched = total;
        result.stallPs = total.stallTime;
        result.stats.append(sched_reg.snapshot());
    } else {
        result.stallPs = bus_stall;
    }
    result.stats.addCounter("sim.elapsed_ps",
                            "elapsed simulated picoseconds", end_now);
    if (som) {
        result.stats.addCounter(
            "sim.stall_ps",
            "CPU idle ps waiting for page transfers", result.stallPs);
    } else if (ncores > 1) {
        result.stats.addCounter(
            "sim.stall_ps",
            "core idle ps waiting for the shared transfer bus",
            bus_stall);
    }
    result.stats.addValue("sim.seconds", "elapsed simulated seconds",
                          result.seconds());
    if (auditor.enabled()) {
        result.stats.addCounter("audit.runs",
                                "model-integrity audit passes",
                                auditor.auditsRun());
        result.stats.addCounter("audit.checks",
                                "individual invariant checks run",
                                auditor.checksRun());
    }
    obs.finish(result, cfg.maxRefs, end_now);
    return result;
}

} // namespace rampage
