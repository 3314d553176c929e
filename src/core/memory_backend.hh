/**
 * @file
 * The memory-side half of the core/memory seam: everything every core
 * shares — the DRAM timing models, the DRAM page directory (the
 * paging device's allocator), the DRAM-transaction histogram and the
 * per-frame core-residency masks of the coherence-lite protocol.  The
 * shared-bus clock is the simulator's (Simulator::run), not state
 * here.
 *
 * Residency ("MESI-lite"): when a core installs a translation for an
 * SRAM frame, the backend sets that core's bit in the frame's mask —
 * from then on the core may hold private copies (a TLB entry, L1
 * lines) of the frame's data.  When page replacement reassigns the
 * frame to another page (an ownership change), exactly the cores in
 * the mask have their private copies invalidated, and the mask is
 * cleared.  The invariant that makes this sound — every live TLB
 * translation's frame carries the owning core's residency bit — is
 * audited as "coherence.residency" and provable via
 * ModelFault::StalePrivateCopy.  Full directory-based MESI stays a
 * follow-up; this is just enough protocol for correct sharing.
 */

#ifndef RAMPAGE_CORE_MEMORY_BACKEND_HH
#define RAMPAGE_CORE_MEMORY_BACKEND_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "dram/rambus.hh"
#include "dram/sdram.hh"
#include "os/dram_directory.hh"
#include "stats/registry.hh"
#include "util/types.hh"

namespace rampage
{

/** Shared memory-side state behind every CoreFrontend. */
struct MemoryBackend
{
    explicit MemoryBackend(const CommonConfig &cfg);

    DirectRambus rambusModel;
    Sdram sdramModel;
    const DramModel *dramSel; ///< cfg.dramKind, resolved once
    DramDirectory dir; ///< the DRAM paging device's page directory
    Log2Histogram dramTxHist; ///< DRAM transaction sizes (dram.tx_bytes)

    /** The selected DRAM timing model (§3.3). */
    const DramModel &dram() const { return *dramSel; }

    // --- coherence-lite per-frame core residency ---------------------
    /** Mark `core` as possibly holding private copies of `frame`. */
    void
    noteResidency(std::uint64_t frame, CoreId core)
    {
        if (frame >= residency.size())
            residency.resize(frame + 1, 0);
        residency[frame] |= std::uint64_t{1} << core;
    }

    /** The frame's core mask (bit c set: core c may hold copies). */
    std::uint64_t
    residencyMask(std::uint64_t frame) const
    {
        return frame < residency.size() ? residency[frame] : 0;
    }

    /** True when `core`'s residency bit for `frame` is set. */
    bool
    resident(std::uint64_t frame, CoreId core) const
    {
        return (residencyMask(frame) >> core) & 1;
    }

    /** Ownership change: no core holds copies of `frame` any more. */
    void
    clearResidency(std::uint64_t frame)
    {
        if (frame < residency.size())
            residency[frame] = 0;
    }

    /**
     * Corruption hook (fault injection): drop one core's residency
     * bit, leaving its private copies untracked — exactly the stale
     * private copy the "coherence.residency" audit must catch.
     * @return true when the bit was set.
     */
    bool
    clearResidencyBit(std::uint64_t frame, CoreId core)
    {
        if (!resident(frame, core))
            return false;
        residency[frame] &= ~(std::uint64_t{1} << core);
        return true;
    }

  private:
    /** Per-frame residency masks, grown lazily (index = SRAM frame). */
    std::vector<std::uint64_t> residency;
};

} // namespace rampage

#endif // RAMPAGE_CORE_MEMORY_BACKEND_HH
