/**
 * @file
 * The RAMpage hierarchy (paper §2, §4.5): the lowest SRAM level is a
 * software-managed paged main memory (no tags, fully associative by
 * construction), DRAM is a paging device behind it, the TLB caches
 * virtual -> SRAM translations, and all management — TLB miss
 * walks, page-fault service, replacement — runs as interleaved
 * handler traces against the pinned operating-system reserve.
 *
 * The page-size policy lives entirely in the PageStore: uniform
 * pages reproduce the paper's §4.5 system, per-process page sizes
 * its §6.2/§6.3 "dynamic tuning" extension (the TLB requirement
 * matches MIPS: entries that translate pages of different sizes).
 * Either way there is exactly one fault path (servicePageFault):
 * handler trace, victim TLB/L1 flush, victim write-back, DRAM
 * stream.
 *
 * Optionally takes a context switch on a miss to DRAM (§4.6): the
 * fault's page transfer is reported as deferrable time so the
 * simulator can overlap it with another process's execution.
 */

#ifndef RAMPAGE_CORE_PAGED_HH
#define RAMPAGE_CORE_PAGED_HH

#include "core/hierarchy.hh"
#include "os/page_store.hh"

namespace rampage
{

/**
 * The RAMpage hierarchy (uniform or per-pid SRAM page sizes).
 * `final` so the AccessEngine instantiations below bind every policy
 * hook statically.
 */
class PagedHierarchy final : public Hierarchy
{
  public:
    explicit PagedHierarchy(const PagedConfig &config);

    std::string name() const override;
    std::string l2Name() const override { return "SRAM MM"; }

    /** Statically-dispatched hot path (see access_engine.hh). */
    AccessOutcome access(const MemRef &ref) override;
    BatchOutcome accessBatch(const MemRef *refs, std::size_t n,
                             bool stop_on_deferred_fault) override;
    Tick runContextSwitchTrace() override;

    const PageStore &pager() const { return store; }
    const PagedConfig &config() const { return pcfg; }

    /**
     * Base audit plus: the page store's self-audit (residency,
     * reserve, frame map), L1 inclusion in the SRAM main memory
     * (every valid L1 block inside a pinned or resident SRAM frame),
     * TLB entries backed by matching page-table mappings, every
     * resident page holding a DRAM home in the directory, and the
     * directory self-audit.
     */
    void auditState(AuditContext &ctx) const override;

  protected:
    friend class FaultInjector;
    friend struct AccessEngine;
    Cycles fillFromBelow(Addr paddr, bool is_write) override;
    Cycles writebackBelow(Addr victim_addr) override;
    Cycles l1WritebackCost() const override;

    // The address-formation hooks run on every reference; they are
    // inline so the statically-bound AccessEngine instantiation
    // flattens them into the hot loop.
    Addr
    osPhysAddr(Addr vaddr) const override
    {
        return store.osPhysAddr(vaddr);
    }

    unsigned
    translationBits(Pid pid) const override
    {
        return store.pageShift(pid);
    }

    Addr
    framePhysAddr(Pid /*pid*/, std::uint64_t frame,
                  Addr offset) override
    {
        store.touch(frame);
        return store.physAddr(frame, offset);
    }

    TranslationWalk walkTranslation(Pid pid, std::uint64_t vpn,
                                    std::vector<Addr> &probes) override;
    std::uint64_t resolveFault(Pid pid, std::uint64_t vpn,
                               AccessOutcome &outcome) override;

    /**
     * Coherence-lite: a translation install makes the active core a
     * holder of private copies (TLB entry, L1 lines) of the SRAM
     * frame — record its bit in the frame's residency mask so page
     * replacement invalidates exactly the right cores' copies.
     */
    void
    noteFrameResidency(std::uint64_t frame) override
    {
        backend.noteResidency(frame, fe().id);
    }

  private:
    /**
     * Service a page fault for (pid, vpn): run the fault handler
     * trace, flush each victim's TLB entry and L1 blocks, write dirty
     * victims back, and stream the new page from DRAM.  Uniform
     * faults evict at most one page and pair a dirty victim's write
     * with the fill read in one back-to-back burst; per-pid faults
     * may evict several smaller pages, priced separately.
     * @param defer_ps_out receives the overlappable transfer time.
     * @return the frame (per-pid: start frame) now holding the page.
     */
    std::uint64_t servicePageFault(Pid pid, std::uint64_t vpn,
                                   Tick &defer_ps_out);

    PagedConfig pcfg;
    PageStore store;
    /** The fault being serviced (reused: a warm fault allocates nothing). */
    PageFaultResult faultScratch;
};

} // namespace rampage

#endif // RAMPAGE_CORE_PAGED_HH
