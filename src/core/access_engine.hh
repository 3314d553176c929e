/**
 * @file
 * The per-reference access sequence, written once as a set of static
 * member templates over the hierarchy type.
 *
 * The sequencing — TLB lookup, translation walk with its interleaved
 * handler trace, fault resolution, then the L1 + lower-level walk — is
 * identical for every hierarchy; only the policy hooks
 * (translationBits, walkTranslation, resolveFault, framePhysAddr,
 * fillFromBelow, writebackBelow, osPhysAddr, l1WritebackCost) differ.
 * Each concrete hierarchy is `final` and instantiates the templates
 * with itself, so the compiler binds every hook statically, which is
 * what makes the simulator's inner loop cheap.
 */

#ifndef RAMPAGE_CORE_ACCESS_ENGINE_HH
#define RAMPAGE_CORE_ACCESS_ENGINE_HH

#include "core/hierarchy.hh"
#include "obs/trace_session.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace rampage
{

/**
 * Static-dispatch engine for the access sequence.  A friend of the
 * hierarchy classes: the bodies read and write their protected state
 * directly, exactly as the former Hierarchy member functions did.
 */
struct AccessEngine
{
    /** One benchmark-trace reference (Hierarchy::access contract). */
    template <class H>
    static AccessOutcome
    access(H &h, const MemRef &ref)
    {
        Cycles cyc_before =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        Tick dram_before = h.evt.dramPs;

        ++h.evt.refs;
        ++h.evt.traceRefs;

        AccessOutcome outcome;
        Addr paddr;
        if (ref.pid == osPid) {
            paddr = h.osPhysAddr(ref.vaddr);
        } else {
            CoreFrontend &fe = h.fe();
            unsigned page_bits = h.translationBits(ref.pid);
            std::uint64_t vpn = ref.vaddr >> page_bits;
            std::uint64_t frame;
            TlbLookup look = fe.tlbUnit.lookup(ref.pid, vpn);
            if (look.hit) {
                frame = look.frame;
            } else {
                // TLB miss: walk the translation structure and
                // interleave the handler trace (§4.3).  Under RAMpage
                // the walk hits the pinned reserve and never
                // references DRAM (§2.3) — unless the page itself has
                // faulted out of the SRAM main memory; conventionally
                // the probes are cacheable references into the page
                // table's DRAM image and the frame is produced after
                // the trace.
                ++h.evt.tlbMisses;
                fe.probeScratch.clear();
                Hierarchy::TranslationWalk walk =
                    h.walkTranslation(ref.pid, vpn, fe.probeScratch);
                fe.handlerScratch.clear();
                h.handlers.tlbMiss(fe.handlerScratch, fe.probeScratch);
                runHandlerRefs(h, fe.handlerScratch,
                               Hierarchy::OverheadKind::TlbMiss);

                if (walk.resolved)
                    frame = walk.frame;
                else
                    frame = h.resolveFault(ref.pid, vpn, outcome);
                fe.tlbUnit.insert(ref.pid, vpn, frame);
                // Coherence-lite: the translation just installed makes
                // this core a holder of private copies of the frame —
                // record its residency bit so page replacement can
                // find (and invalidate) them.
                h.noteFrameResidency(frame);
                RAMPAGE_TRACE_EVENT(TlbFill, 0, vpn, ref.pid);
            }
            paddr = h.framePhysAddr(ref.pid, frame,
                                    lowBits(ref.vaddr, page_bits));
        }

        cachedAccess(h, ref, paddr);

        Cycles cyc_after =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        Tick total = (cyc_after - cyc_before) * h.cycPs +
                     (h.evt.dramPs - dram_before);
        RAMPAGE_ASSERT(total >= outcome.deferPs,
                       "deferred time exceeds the access total");
        outcome.cpuPs = total - outcome.deferPs;
        return outcome;
    }

    /**
     * A contiguous run of references (Hierarchy::accessBatch
     * contract): per-reference outcomes are summed, and with
     * `stop_on_deferred_fault` the batch ends at (and includes) the
     * first reference that page-faults with overlappable transfer
     * time — the switch-on-miss scheduler must react to it before the
     * next reference runs.
     */
    template <class H>
    static BatchOutcome
    accessBatch(H &h, const MemRef *refs, std::size_t n,
                bool stop_on_deferred_fault)
    {
        BatchOutcome batch;
        for (std::size_t i = 0; i < n; ++i) {
            AccessOutcome out = access(h, refs[i]);
            ++batch.consumed;
            batch.cpuPs += out.cpuPs;
            batch.deferPs += out.deferPs;
            if (stop_on_deferred_fault && out.pageFault &&
                out.deferPs > 0) {
                batch.pageFault = true;
                break;
            }
        }
        return batch;
    }

    /**
     * The L1 + lower-level walk for a reference whose physical
     * address is known: charges issue time for fetches, probes L1,
     * and on a miss calls fillFromBelow() for the lower level.
     * @return cycles consumed (cycle-denominated only).
     */
    template <class H>
    static Cycles
    cachedAccess(H &h, const MemRef &ref, Addr paddr)
    {
        Cycles before =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;

        bool is_fetch = ref.isInstr();
        bool is_write = ref.isWrite();
        if (is_fetch) {
            // Instruction issue: the only cost of a fully-hitting
            // stream (§4.3: "where there are no misses, only
            // instruction fetches add to simulated run time").
            ++h.evt.instrFetches;
            h.evt.l1iCycles += h.cfg.l1HitCycles;
        }
        // TLB and L1 data hits are fully pipelined: zero time.  Stores
        // enjoy perfect write buffering (§4.3), so a hitting store is
        // also free; it merely dirties the L1 block.

        CoreFrontend &fe = h.fe();
        SetAssocCache &l1 = is_fetch ? fe.l1iCache : fe.l1dCache;
        CacheAccessResult res = l1.access(paddr, is_write && !is_fetch);
        if (!res.hit) {
            if (is_fetch)
                ++h.evt.l1iMisses;
            else
                ++h.evt.l1dMisses;

            // A dirty L1 victim is written back to the level below
            // before the fill (write-back, write-allocate L1).
            if (res.victimValid && res.victimDirty) {
                ++h.evt.l1Writebacks;
                h.evt.l2Cycles += h.l1WritebackCost();
                h.evt.l2Cycles += h.writebackBelow(res.victimAddr);
            }
            h.evt.l2Cycles +=
                h.fillFromBelow(paddr, is_write && !is_fetch);
        }
        return h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles -
               before;
    }

    /**
     * Run a handler reference stream through the hierarchy.  Handler
     * references never recurse into further handler work (OS pages
     * bypass the TLB and are always resident).
     * @return CPU time consumed.
     */
    template <class H>
    static Tick
    runHandlerRefs(H &h, const std::vector<MemRef> &refs,
                   Hierarchy::OverheadKind kind)
    {
        Cycles cyc_before =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        Tick dram_before = h.evt.dramPs;

        for (const MemRef &ref : refs) {
            RAMPAGE_ASSERT(ref.pid == osPid,
                           "handler trace must use osPid");
            ++h.evt.refs;
            ++h.evt.overheadRefs;
            switch (kind) {
              case Hierarchy::OverheadKind::TlbMiss:
                ++h.evt.tlbMissOverheadRefs;
                break;
              case Hierarchy::OverheadKind::PageFault:
                ++h.evt.faultOverheadRefs;
                break;
              case Hierarchy::OverheadKind::ContextSwitch:
                break;
            }
            cachedAccess(h, ref, h.osPhysAddr(ref.vaddr));
        }

        Cycles cyc_after =
            h.evt.l1iCycles + h.evt.l1dCycles + h.evt.l2Cycles;
        return (cyc_after - cyc_before) * h.cycPs +
               (h.evt.dramPs - dram_before);
    }

    /** The ~400-reference context-switch trace (§4.6). */
    template <class H>
    static Tick
    runContextSwitchTrace(H &h)
    {
        CoreFrontend &fe = h.fe();
        fe.handlerScratch.clear();
        h.handlers.contextSwitch(fe.handlerScratch);
        ++h.evt.contextSwitches;
        return runHandlerRefs(h, fe.handlerScratch,
                              Hierarchy::OverheadKind::ContextSwitch);
    }
};

} // namespace rampage

#endif // RAMPAGE_CORE_ACCESS_ENGINE_HH
