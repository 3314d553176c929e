/**
 * @file
 * Memory-hierarchy base: the machinery shared by the conventional
 * cache hierarchy and RAMpage — the split direct-mapped L1, the TLB,
 * the Direct Rambus channel, handler-trace interleaving and event
 * accounting.
 *
 * A hierarchy consumes references one at a time and reports, per
 * reference, how much CPU-inline time it cost and how much DRAM
 * transfer time a context-switch-on-miss scheduler could overlap.
 * Which references hit or miss is independent of the issue rate, so
 * one behavioural run can be re-priced across the paper's whole
 * 200 MHz - 4 GHz sweep (see src/core/events.hh).
 */

#ifndef RAMPAGE_CORE_HIERARCHY_HH
#define RAMPAGE_CORE_HIERARCHY_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/config.hh"
#include "core/core_frontend.hh"
#include "core/cost_model.hh"
#include "core/events.hh"
#include "core/memory_backend.hh"
#include "stats/registry.hh"
#include "tlb/tlb.hh"
#include "trace/handlers.hh"
#include "trace/record.hh"

namespace rampage
{

class AuditContext;
class FaultInjector;
class TraceSession;
struct AccessEngine;

/** Per-reference outcome. */
struct AccessOutcome
{
    /** Time the CPU is busy or blocked in-line for this reference. */
    Tick cpuPs = 0;
    /**
     * DRAM page-transfer time initiated by this reference that a
     * context-switch-on-miss scheduler could overlap with other work
     * (zero for conventional hierarchies, which block on every DRAM
     * transaction).
     */
    Tick deferPs = 0;
    /** The reference page-faulted out of the SRAM main memory. */
    bool pageFault = false;
};

/** Summed outcome of a contiguous batch of references. */
struct BatchOutcome
{
    /** References consumed (== n unless the batch stopped early). */
    std::size_t consumed = 0;
    /** Sum of the per-reference cpuPs, in order. */
    Tick cpuPs = 0;
    /** Sum of the per-reference deferPs (at most one nonzero). */
    Tick deferPs = 0;
    /**
     * The last consumed reference page-faulted with deferrable
     * transfer time (only set when the caller asked to stop there).
     */
    bool pageFault = false;
};

/** Abstract simulated memory hierarchy. */
class Hierarchy
{
  public:
    explicit Hierarchy(const CommonConfig &config);
    virtual ~Hierarchy() = default;

    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;

    /**
     * Process one benchmark-trace reference.  The sequencing is the
     * same for every hierarchy — TLB lookup, on a miss the
     * translation walk with its interleaved handler trace, fault
     * resolution, then the L1 + lower-level walk — so it lives once
     * in AccessEngine (src/core/access_engine.hh); subclasses supply
     * the policy hooks (translationBits, walkTranslation,
     * resolveFault, framePhysAddr) and implement this with a
     * statically-bound instantiation so the hooks devirtualize on
     * the hot path.
     */
    virtual AccessOutcome access(const MemRef &ref) = 0;

    /**
     * Process a contiguous batch of references, summing the per-ref
     * outcomes.  With `stop_on_deferred_fault` the batch stops after
     * (and includes) the first reference whose fault produced
     * deferrable transfer time, so a switch-on-miss scheduler can
     * react before the next reference runs.  Exactly equivalent to
     * calling access() `consumed` times (proven by
     * tests/test_dispatch_equivalence.cc).
     */
    virtual BatchOutcome accessBatch(const MemRef *refs, std::size_t n,
                                     bool stop_on_deferred_fault) = 0;

    /**
     * Interleave the ~400-reference context-switch trace (§4.6).
     * @return CPU time consumed.
     */
    virtual Tick runContextSwitchTrace() = 0;

    // --- the core/memory seam ---------------------------------------
    /** Configured CPU cores (one CoreFrontend each). */
    unsigned
    coreCount() const
    {
        return static_cast<unsigned>(frontends.size());
    }

    /**
     * Select the frontend subsequent access()/accessBatch()/handler
     * calls run against.  The Simulator switches this at every
     * scheduling decision (core 0 is active from construction).
     */
    void
    activateCore(CoreId core)
    {
        activeFe = frontends[core].get();
    }

    /** The frontend the access sequence currently runs against. */
    CoreFrontend &fe() { return *activeFe; }
    const CoreFrontend &fe() const { return *activeFe; }

    /** A specific core's frontend. */
    CoreFrontend &fe(CoreId core) { return *frontends[core]; }
    const CoreFrontend &fe(CoreId core) const
    {
        return *frontends[core];
    }

    /** The shared memory-side state behind every frontend. */
    MemoryBackend &memoryBackend() { return backend; }
    const MemoryBackend &memoryBackend() const { return backend; }

    /** Display name ("baseline", "2-way L2", "RAMpage", ...). */
    virtual std::string name() const = 0;

    /** Label for the third hierarchy level ("L2" or "SRAM MM"). */
    virtual std::string l2Name() const = 0;

    const EventCounts &counts() const { return evt; }
    const CommonConfig &commonConfig() const { return cfg; }
    /** The active core's components (single-core: the only core's). */
    const Tlb &tlb() const { return fe().tlbUnit; }
    const SetAssocCache &l1i() const { return fe().l1iCache; }
    const SetAssocCache &l1d() const { return fe().l1dCache; }
    /** The DRAM page directory (paging device / physical allocator). */
    const DramDirectory &directory() const { return backend.dir; }

    /**
     * The hierarchy's named-stats registry.  Every component registers
     * at construction; dump with dumpText()/dumpJson() or freeze with
     * snapshot() (SimResult carries a snapshot per run).
     */
    const StatsRegistry &statsRegistry() const { return statsReg; }

    /** Price this run's events at an issue rate (blocking runs). */
    TimeBreakdown breakdown(std::uint64_t issue_hz) const;

    /** Total simulated time at an issue rate (blocking runs). */
    Tick totalPs(std::uint64_t issue_hz) const;

    /**
     * Walk live model state and verify this hierarchy's invariants
     * into `ctx` (see src/core/audit.hh).  The base class audits the
     * shared components (L1s, TLB) and the event-count conservation
     * identities; overrides add the cross-component invariants that
     * need the level below (inclusion, translation backing, page
     * tables).  Must be side-effect-free: an audited run produces
     * byte-identical simulation output.
     */
    virtual void auditState(AuditContext &ctx) const;

    /**
     * The run's timeline session, or null when tracing is off.  The
     * Simulator sets it for the duration of a run and clears it on
     * every exit path; emission sites check it and call emit().
     */
    TraceSession *trace = nullptr;

  protected:
    /** Deterministic model-state corruption hooks (tests/CI only). */
    friend class FaultInjector;
    /** The statically-dispatched access bodies (access_engine.hh). */
    friend struct AccessEngine;
    /** Category a handler-trace reference is accounted under. */
    enum class OverheadKind
    {
        TlbMiss,
        PageFault,
        ContextSwitch,
    };

    /**
     * Lower-level access on an L1 miss: look up the L2 cache or SRAM
     * main memory at `paddr` and fill.  `writeback_addr` is the
     * block-aligned L1 victim needing write-back below (or noAddr).
     * @return cycles consumed (DRAM time accrues via addDramPs).
     */
    virtual Cycles fillFromBelow(Addr paddr, bool is_write) = 0;

    /** Handle a dirty L1 victim's write-back to the level below. */
    virtual Cycles writebackBelow(Addr victim_addr) = 0;

    /**
     * Translate an operating-system virtual address to its physical
     * address.  OS references bypass the TLB (MIPS kseg0 semantics):
     * under RAMpage they map directly into the pinned SRAM reserve,
     * conventionally into a fixed DRAM image.
     */
    virtual Addr osPhysAddr(Addr vaddr) const = 0;

    // --- access() policy hooks --------------------------------------
    /** Outcome of a translation walk on a TLB miss. */
    struct TranslationWalk
    {
        bool resolved = false; ///< the page is resident; frame is set
        std::uint64_t frame = 0;
    };

    /** log2 of the translation page size for a pid. */
    virtual unsigned translationBits(Pid pid) const = 0;

    /**
     * Walk the translation structure on a TLB miss, recording the
     * table words touched into `probes` (they parameterize the
     * interleaved TLB-miss handler trace).  Runs *before* the handler
     * trace; a walk that cannot resolve residency up front leaves
     * `resolved` false and the frame comes from resolveFault() after
     * the trace.
     */
    virtual TranslationWalk walkTranslation(Pid pid, std::uint64_t vpn,
                                            std::vector<Addr> &probes) = 0;

    /**
     * Produce the frame for an unresolved translation, *after* the
     * TLB-miss handler trace ran: the conventional directory allocates
     * the DRAM frame; RAMpage services the SRAM page fault (setting
     * `outcome`'s pageFault/deferPs).
     */
    virtual std::uint64_t resolveFault(Pid pid, std::uint64_t vpn,
                                       AccessOutcome &outcome) = 0;

    /**
     * Physical address of `offset` within a translated frame, with
     * any per-reference side effects (RAMpage touches the frame's
     * replacement state).
     */
    virtual Addr framePhysAddr(Pid pid, std::uint64_t frame,
                               Addr offset) = 0;

    /**
     * Invalidate every L1 block within [base, base+bytes), charging
     * one probe cycle per block per cache, and the L1 write-back
     * cost for each dirty data block flushed.
     * @return true when a dirty L1D block was flushed (the enclosing
     *         victim must be written to DRAM even if clean below).
     */
    bool invalidateL1Range(Addr base, std::uint64_t bytes,
                           Cycles &cycles_out);

    /** Accrue DRAM transaction time. */
    void
    addDramPs(Tick ps)
    {
        evt.dramPs += ps;
    }

    /**
     * Note one DRAM transaction for observability: records `bytes` in
     * the dram.tx_bytes histogram and traces it on the Dram channel.
     * Call alongside the dramReads/dramWrites accounting; timing is
     * still charged separately via addDramPs().
     */
    void noteDramTx(std::uint64_t bytes, bool is_write);

    /**
     * The selected DRAM timing model (§3.3), resolved once at
     * construction — dram() sits on the miss path.
     */
    const DramModel &dram() const { return backend.dram(); }

    /**
     * Price `count` back-to-back page-sized transactions: a pipelined
     * Rambus channel (§6.3) overlaps their access latencies; every
     * other configuration serializes them.
     */
    Tick dramBurstPs(std::uint64_t bytes, std::uint64_t count) const;

    /**
     * Invalidate one core's L1 blocks within [base, base+bytes).
     * The page-replacement path calls this only for cores whose
     * residency bit is set on the reassigned frame (coherence-lite);
     * invalidateL1Range() above is the every-core wrapper the
     * conventional hierarchy uses.
     */
    bool invalidateL1RangeFor(CoreFrontend &core, Addr base,
                              std::uint64_t bytes, Cycles &cycles_out);

    /**
     * Residency hook, called by the access engine right after a
     * translation is installed in the active core's TLB.  The base
     * class ignores it; RAMpage sets the requesting core's bit in the
     * frame's residency mask so page replacement knows which private
     * copies (TLB entries, L1 lines) an ownership change must
     * invalidate.
     */
    virtual void noteFrameResidency(std::uint64_t frame)
    {
        (void)frame;
    }

    CommonConfig cfg;
    Tick cycPs;          ///< cycle time at the configured issue rate
    MemoryBackend backend; ///< shared memory-side state (all cores)
    /** One frontend per configured core (§4.3 CPU model each). */
    std::vector<std::unique_ptr<CoreFrontend>> frontends;
    /** The frontend access()/handler calls run against (never null). */
    CoreFrontend *activeFe = nullptr;
    HandlerTraces handlers;
    EventCounts evt;
    StatsRegistry statsReg;    ///< named stats, filled at construction

    /** Write-back cycles for this hierarchy (12 conv., 9 RAMpage). */
    virtual Cycles l1WritebackCost() const = 0;

    static constexpr Addr noAddr = ~Addr{0};
};

} // namespace rampage

#endif // RAMPAGE_CORE_HIERARCHY_HH
