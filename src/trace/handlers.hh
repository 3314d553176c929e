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
 * construction, and each call hands the body's references one at a
 * time to a caller-supplied sink (the access engine prices each
 * through the L1 as it arrives), so no body is ever materialised.
 */

#ifndef RAMPAGE_TRACE_HANDLERS_HH
#define RAMPAGE_TRACE_HANDLERS_HH

#include <cstddef>
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

    // Each emitter calls `sink(const MemRef &)` once per reference
    // of its body, in trace order, and returns the body's length.

    /**
     * Emit the TLB-miss handler body.
     * @param probes page-table entry addresses the lookup touches
     *        (hash bucket head plus any chain links).
     */
    template <class Sink>
    std::size_t
    tlbMiss(const std::vector<Addr> &probes, Sink &&sink) const
    {
        return emitBody(tlbMissFetches, probes.size(),
                        [&](std::size_t k) { return probes[k]; }, 0.0,
                        sink);
    }

    /**
     * Emit the page-fault handler body.
     * @param probes page-table entries read/written (faulting entry,
     *        victim entry, free-frame bookkeeping).
     */
    template <class Sink>
    std::size_t
    pageFault(const std::vector<Addr> &probes, Sink &&sink) const
    {
        // The fault body touches the supplied table entries plus its
        // own bookkeeping data (free lists, statistics, transfer
        // descriptors), which sits above the 18 PCB slots
        // (18 * 0x100).
        const Addr bookkeeping = lay.dataBase + 0x1400;
        return emitBody(
            pageFaultFetches, probes.size() + cost.pageFaultData,
            [&](std::size_t k) {
                return k < probes.size()
                           ? probes[k]
                           : bookkeeping + 8 * (k - probes.size());
            },
            0.4, sink);
    }

    /** Emit the ~400-reference context-switch body (§4.6). */
    template <class Sink>
    std::size_t
    contextSwitch(Sink &&sink)
    {
        // Save one process-control block, restore another: the data
        // refs rotate through a few PCB slots so consecutive switches
        // touch different table entries, as a real ready queue would.
        const Addr pcb_out = lay.dataBase + 0x100 * (switchSeq % 18);
        const Addr pcb_in = lay.dataBase + 0x100 * ((switchSeq + 1) % 18);
        ++switchSeq;
        const std::size_t saves = cost.contextSwitchData / 2;
        return emitBody(contextSwitchFetches, cost.contextSwitchData,
                        [&](std::size_t k) {
                            return k < saves
                                       ? pcb_out + 8 * (k % 32)
                                       : pcb_in + 8 * ((k - saves) % 32);
                        },
                        0.5, sink);
    }

    const HandlerLayout &layout() const { return lay; }
    const HandlerCosts &costs() const { return cost; }

    /** Reference count of one context switch (for sizing checks). */
    std::size_t contextSwitchLength() const;

  private:
    /**
     * Emit a handler body: the precomputed `fetches`, with the
     * `n_data` addresses `data_at(0..n_data)` interleaved evenly and
     * the trailing `store_fraction` of them marked as stores
     * (handlers read state, compute, then write results back).
     * @return fetches.size() + n_data.
     */
    template <class DataAt, class Sink>
    static std::size_t
    emitBody(const std::vector<MemRef> &fetches, std::size_t n_data,
             DataAt data_at, double store_fraction, Sink &sink)
    {
        const std::size_t stores_from = n_data -
            static_cast<std::size_t>(static_cast<double>(n_data) *
                                     store_fraction);
        auto data_ref = [&](std::size_t k) {
            MemRef dref;
            dref.vaddr = data_at(k);
            dref.kind = k >= stores_from ? RefKind::Store : RefKind::Load;
            dref.pid = osPid;
            return dref;
        };
        const unsigned instrs = static_cast<unsigned>(fetches.size());
        const unsigned per_data =
            n_data > 0 ? (instrs / static_cast<unsigned>(n_data) + 1)
                       : instrs + 1;
        std::size_t next_data = 0;
        unsigned until_data = per_data;
        for (const MemRef &fetch : fetches) {
            sink(fetch);
            if (--until_data == 0) {
                until_data = per_data;
                if (next_data < n_data)
                    sink(data_ref(next_data++));
            }
        }
        // Any data refs not yet placed trail the body.
        for (; next_data < n_data; ++next_data)
            sink(data_ref(next_data));
        return fetches.size() + n_data;
    }

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
