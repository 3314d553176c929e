/**
 * @file
 * Frequency-separable event accounting.
 *
 * The paper's cost model makes simulated time a sum of (a) SRAM-level
 * work denominated in CPU cycles — which scales with the issue rate —
 * and (b) DRAM transfer time in absolute nanoseconds — which does not
 * (§4.3: "cache and SRAM main memory speed are scaled up but DRAM
 * speed is not").  EventCounts therefore records per-level *cycle*
 * totals plus a fixed DRAM picosecond total, letting one behavioural
 * run be re-priced at every issue rate of the Table 3 sweep.  (The
 * context-switch-on-miss variant is timing-coupled and must be
 * re-simulated per rate; see src/core/simulator.hh.)
 */

#ifndef RAMPAGE_CORE_EVENTS_HH
#define RAMPAGE_CORE_EVENTS_HH

#include <cstdint>

#include "stats/time_breakdown.hh"
#include "util/types.hh"

namespace rampage
{

class StatsRegistry;

/** Everything a behavioural run accumulates. */
struct EventCounts
{
    // --- cycle-denominated time, by level --------------------------
    Cycles l1iCycles = 0; ///< instruction issue + L1I inclusion probes
    Cycles l1dCycles = 0; ///< L1D inclusion probes
    Cycles l2Cycles = 0;  ///< L2/SRAM-MM accesses and L1 write-backs

    // --- absolute DRAM time -----------------------------------------
    Tick dramPs = 0; ///< all Direct Rambus transactions

    // --- informational counters --------------------------------------
    std::uint64_t refs = 0;          ///< all references processed
    std::uint64_t traceRefs = 0;     ///< benchmark-trace references
    std::uint64_t overheadRefs = 0;  ///< handler-trace references (Fig 4)
    std::uint64_t instrFetches = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1Writebacks = 0;
    std::uint64_t l2Accesses = 0;    ///< L2 or SRAM-MM accesses
    std::uint64_t l2Misses = 0;      ///< L2 misses / SRAM page faults
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbMissOverheadRefs = 0;  ///< handler refs: TLB walks
    std::uint64_t faultOverheadRefs = 0;    ///< handler refs: page faults
    std::uint64_t inclusionProbes = 0;
    std::uint64_t inclusionWritebacks = 0;  ///< dirty L1 blocks flushed
    std::uint64_t contextSwitches = 0;
    std::uint64_t victimCacheHits = 0;      ///< §3.2 ablation only

    /**
     * Register every counter under its run-level name: "sim.*" for the
     * reference/cycle accounting, "dram.reads"/"dram.writes"/
     * "dram.transfer_ps" for the channel traffic, plus the
     * "sim.overhead_ratio" formula (Fig. 4).  `this` must outlive the
     * registry's dumps.
     */
    void registerStats(StatsRegistry &reg) const;

    /**
     * Handler-reference overhead ratio (the paper's Figure 4):
     * additional TLB-miss and page-fault handling references divided
     * by the benchmark-trace references.
     */
    double overheadRatio() const;
};

} // namespace rampage

#endif // RAMPAGE_CORE_EVENTS_HH
