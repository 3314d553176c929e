/**
 * @file
 * Synthesis of operating-system handler reference traces.
 *
 * The paper charges all software memory-management work by
 * *interleaving traces of handler code* through the simulated
 * hierarchy (§4.3: "misses modeled by interleaving a trace of page
 * lookup software"; §4.6: "approximately 400 references per context
 * switch ... based on a standard textbook algorithm").  This module
 * produces equivalent handler reference streams:
 *
 *  - TLB miss handler: a hashed inverted-page-table lookup
 *    (~40 references — instruction fetches through a short handler
 *    body plus probes of the supplied page-table entry addresses);
 *  - page-fault handler: victim selection, table update and transfer
 *    setup (~130 references — the paper's Atlas comparison puts the
 *    whole miss at "a few hundred to over 1,000 instructions"
 *    including the transfer);
 *  - context switch: state save/restore and scheduler queue work
 *    (~400 references, the paper's number).
 *
 * Callers supply the actual page-table entry addresses to probe, so
 * the handler's data traffic exercises the same physical structures
 * (the pinned inverted page table under RAMpage, an in-memory table
 * under the conventional hierarchy) as the real software would.
 *
 * The generators run on every TLB miss, so they allocate nothing: the
 * fixed instruction-fetch runs of the three bodies are built once at
 * construction, and each call appends straight into the caller's
 * scratch vector (whose capacity persists across calls).
 */

#ifndef RAMPAGE_TRACE_HANDLERS_HH
#define RAMPAGE_TRACE_HANDLERS_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace rampage
{

/** Virtual placement of the OS handler code and data. */
struct HandlerLayout
{
    /** Handler text segment base. */
    Addr codeBase = 0x0001'0000;
    /**
     * Scheduler / process-table data base: one 4 KB page above the
     * text so the whole fixed OS image stays compact (the pinned
     * reserve should track the paper's §4.5 accounting).
     */
    Addr dataBase = 0x0001'1000;
};

/** Reference counts for each synthesized handler (tunable). */
struct HandlerCosts
{
    /** Instructions in the TLB-miss lookup body. */
    unsigned tlbMissInstrs = 18;
    /** Instructions in the page-fault service body. */
    unsigned pageFaultInstrs = 56;
    /** Data references in the page-fault body (beyond probes). */
    unsigned pageFaultData = 10;
    /** Instructions in the context-switch body. */
    unsigned contextSwitchInstrs = 300;
    /** Data references in the context-switch body. */
    unsigned contextSwitchData = 100;
};

/**
 * Generator of handler reference streams.  All references carry
 * osPid; the OS code/data pages they touch are pinned in the SRAM
 * main memory under RAMpage and are ordinary cacheable pages under
 * the conventional hierarchy.
 */
class HandlerTraces
{
  public:
    explicit HandlerTraces(const HandlerLayout &layout = HandlerLayout{},
                           const HandlerCosts &costs = HandlerCosts{});

    /**
     * Append the TLB-miss handler body.
     * @param out receives the references.
     * @param probes page-table entry addresses the lookup touches
     *        (hash bucket head plus any chain links).
     */
    void tlbMiss(std::vector<MemRef> &out,
                 const std::vector<Addr> &probes);

    /**
     * Append the page-fault handler body.
     * @param probes page-table entries read/written (faulting entry,
     *        victim entry, free-frame bookkeeping).
     */
    void pageFault(std::vector<MemRef> &out,
                   const std::vector<Addr> &probes);

    /** Append the ~400-reference context-switch body (§4.6). */
    void contextSwitch(std::vector<MemRef> &out);

    const HandlerLayout &layout() const { return lay; }
    const HandlerCosts &costs() const { return cost; }

    /** Reference count of one context switch (for sizing checks). */
    std::size_t contextSwitchLength() const;

  private:
    HandlerLayout lay;
    HandlerCosts cost;
    /** Each body's sequential instruction fetches, built once. */
    std::vector<MemRef> tlbMissFetches;
    std::vector<MemRef> pageFaultFetches;
    std::vector<MemRef> contextSwitchFetches;
    std::uint64_t switchSeq = 0; ///< rotates process-table slots
};

} // namespace rampage

#endif // RAMPAGE_TRACE_HANDLERS_HH
