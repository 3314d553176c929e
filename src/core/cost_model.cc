#include "core/cost_model.hh"

#include "stats/registry.hh"
#include "util/units.hh"

namespace rampage
{

void
EventCounts::registerStats(StatsRegistry &reg) const
{
    reg.addCounter("sim.refs", "all references processed", &refs);
    reg.addCounter("sim.trace_refs", "benchmark-trace references",
                   &traceRefs);
    reg.addCounter("sim.overhead_refs", "handler-trace references",
                   &overheadRefs);
    reg.addCounter("sim.instr_fetches", "instruction fetches",
                   &instrFetches);
    reg.addCounter("sim.l1i_cycles", "cycles charged at the L1I level",
                   &l1iCycles);
    reg.addCounter("sim.l1d_cycles", "cycles charged at the L1D level",
                   &l1dCycles);
    reg.addCounter("sim.l2_cycles",
                   "cycles charged at the L2/SRAM-MM level", &l2Cycles);
    reg.addCounter("sim.l1i_misses", "L1I misses", &l1iMisses);
    reg.addCounter("sim.l1d_misses", "L1D misses", &l1dMisses);
    reg.addCounter("sim.l1_writebacks", "dirty L1 victim write-backs",
                   &l1Writebacks);
    reg.addCounter("sim.l2_accesses", "L2 or SRAM-MM accesses",
                   &l2Accesses);
    reg.addCounter("sim.l2_misses", "L2 misses / SRAM page faults",
                   &l2Misses);
    reg.addCounter("sim.tlb_misses", "TLB misses taken", &tlbMisses);
    reg.addCounter("sim.tlb_miss_overhead_refs",
                   "handler references spent on TLB walks",
                   &tlbMissOverheadRefs);
    reg.addCounter("sim.fault_overhead_refs",
                   "handler references spent on page faults",
                   &faultOverheadRefs);
    reg.addCounter("sim.inclusion_probes",
                   "L1 probes for inclusion maintenance",
                   &inclusionProbes);
    reg.addCounter("sim.inclusion_writebacks",
                   "dirty L1 blocks flushed for inclusion",
                   &inclusionWritebacks);
    reg.addCounter("sim.context_switches", "context-switch traces run",
                   &contextSwitches);
    reg.addCounter("sim.victim_cache_hits",
                   "L2 victim-cache hits (ablation)", &victimCacheHits);
    reg.addFormula("sim.overhead_ratio",
                   "handler refs / benchmark refs (Fig. 4)",
                   [this] { return overheadRatio(); });
    reg.addCounter("dram.reads", "DRAM read transactions", &dramReads);
    reg.addCounter("dram.writes", "DRAM write transactions",
                   &dramWrites);
    reg.addCounter("dram.transfer_ps",
                   "total DRAM transaction picoseconds", &dramPs);
}

double
EventCounts::overheadRatio() const
{
    if (traceRefs == 0)
        return 0.0;
    return static_cast<double>(tlbMissOverheadRefs + faultOverheadRefs) /
           static_cast<double>(traceRefs);
}

TimeBreakdown
priceEvents(const EventCounts &counts, std::uint64_t issue_hz,
            Tick extra_stall_ps)
{
    Tick cycle = cycleTimePs(issue_hz);
    TimeBreakdown breakdown;
    breakdown.add(TimeLevel::L1I, counts.l1iCycles * cycle);
    breakdown.add(TimeLevel::L1D, counts.l1dCycles * cycle);
    breakdown.add(TimeLevel::L2, counts.l2Cycles * cycle);
    breakdown.add(TimeLevel::Dram, counts.dramPs + extra_stall_ps);
    return breakdown;
}

Tick
totalTimePs(const EventCounts &counts, std::uint64_t issue_hz,
            Tick extra_stall_ps)
{
    return priceEvents(counts, issue_hz, extra_stall_ps).total();
}

} // namespace rampage
