#include "core/hierarchy.hh"

#include "obs/trace_session.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{

Tick
CommonConfig::cyclePs() const
{
    return cycleTimePs(issueHz);
}

Hierarchy::Hierarchy(const CommonConfig &config)
    : cfg(config),
      cycPs(config.cyclePs()),
      backend(config),
      handlers(config.handlerLayout, config.handlerCosts)
{
    if (cfg.cores < 1 || cfg.cores > maxCores) {
        throw ConfigError("cores must be in [1, " +
                          std::to_string(maxCores) + "], got " +
                          std::to_string(cfg.cores));
    }
    // One frontend per core.  With one core the stats keep their
    // historical unprefixed names ("l1i.hits", ...); with more, each
    // core's components register under "coreN." so per-core behaviour
    // stays separately observable.
    frontends.reserve(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        frontends.push_back(
            std::make_unique<CoreFrontend>(cfg, static_cast<CoreId>(c)));
        const std::string prefix =
            cfg.cores == 1 ? "" : "core" + std::to_string(c) + ".";
        frontends.back()->registerStats(statsReg, prefix);
    }
    activeFe = frontends.front().get();
    evt.registerStats(statsReg);
    statsReg.addHistogram("dram.tx_bytes", "DRAM transaction sizes",
                          &backend.dramTxHist);
    statsReg.addFormula("dram.peak_bandwidth",
                        "peak streaming bandwidth (bytes/s)",
                        [this] { return dram().peakBandwidth(); });
}

void
Hierarchy::noteDramTx(std::uint64_t bytes, bool is_write)
{
    backend.dramTxHist.add(bytes);
    RAMPAGE_DPRINTF(Dram, "%s tx %llu bytes",
                    is_write ? "write" : "read",
                    static_cast<unsigned long long>(bytes));
    if (trace)
        trace->emit(TraceEventKind::DramTx, 0, bytes,
                    static_cast<Pid>(is_write ? 1 : 0));
}

TimeBreakdown
Hierarchy::breakdown(std::uint64_t issue_hz) const
{
    return priceEvents(evt, issue_hz);
}

Tick
Hierarchy::totalPs(std::uint64_t issue_hz) const
{
    return breakdown(issue_hz).total();
}

bool
Hierarchy::invalidateL1Range(Addr base, std::uint64_t bytes,
                             Cycles &cycles_out)
{
    // Every core.  The conventional hierarchy's L2 inclusion flushes
    // are the only caller; RAMpage page replacement calls
    // invalidateL1RangeFor() per resident core instead.
    bool flushed_dirty = false;
    Cycles cycles = 0;
    for (auto &core : frontends) {
        Cycles core_cycles = 0;
        flushed_dirty |=
            invalidateL1RangeFor(*core, base, bytes, core_cycles);
        cycles += core_cycles;
    }
    cycles_out = cycles;
    return flushed_dirty;
}

bool
Hierarchy::invalidateL1RangeFor(CoreFrontend &core, Addr base,
                                std::uint64_t bytes, Cycles &cycles_out)
{
    bool flushed_dirty = false;
    Cycles cycles = 0;
    for (Addr block = base; block < base + bytes;
         block += cfg.l1BlockBytes) {
        // Both L1 caches are probed at hit time (§4.3: "the given hit
        // times are however used when replacements or maintaining
        // inclusion are simulated").
        evt.l1iCycles += cfg.l1HitCycles;
        evt.l1dCycles += cfg.l1HitCycles;
        evt.inclusionProbes += 2;
        core.l1iCache.invalidate(block);
        auto inv = core.l1dCache.invalidate(block);
        if (inv.present && inv.dirty) {
            // The L1 copy was newer: flush it into the departing
            // block so the DRAM write carries current data.
            ++evt.inclusionWritebacks;
            cycles += l1WritebackCost();
            flushed_dirty = true;
        }
    }
    evt.l2Cycles += cycles;
    cycles_out = cycles;
    return flushed_dirty;
}

Tick
Hierarchy::dramBurstPs(std::uint64_t bytes, std::uint64_t count) const
{
    if (cfg.dramKind == CommonConfig::DramKind::DirectRambus &&
        cfg.rambus.pipelineDepth > 1) {
        return backend.rambusModel.burstPs(bytes, count);
    }
    Tick total = 0;
    for (std::uint64_t i = 0; i < count; ++i)
        total += dram().readPs(bytes);
    return total;
}

void
Hierarchy::auditState(AuditContext &ctx) const
{
    const bool multi = frontends.size() > 1;
    std::uint64_t l1i_misses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t tlb_misses = 0;
    for (const auto &corep : frontends) {
        const CoreFrontend &core = *corep;
        const std::string prefix =
            multi ? "core" + std::to_string(core.id) + "." : "";
        core.l1iCache.auditState(ctx, prefix + "l1i");
        core.l1dCache.auditState(ctx, prefix + "l1d");
        core.tlbUnit.auditState(ctx);
        l1i_misses += core.l1iCache.stats().misses;
        l1d_misses += core.l1dCache.stats().misses;
        tlb_misses += core.tlbUnit.stats().misses;
    }

    // --- event-count conservation ------------------------------------
    // The evt counters are accumulated alongside the components'
    // private statistics (summed across cores; the shared counters
    // see every core's events).  Divergence means one path forgot (or
    // double-counted) an event, which silently mis-prices the run.
    ctx.check(evt.l1iMisses == l1i_misses && evt.l1dMisses == l1d_misses,
              "events.conservation",
              "L1 miss counts diverge: evt %llu/%llu vs caches "
              "%llu/%llu (i/d)",
              static_cast<unsigned long long>(evt.l1iMisses),
              static_cast<unsigned long long>(evt.l1dMisses),
              static_cast<unsigned long long>(l1i_misses),
              static_cast<unsigned long long>(l1d_misses));
    ctx.check(evt.tlbMisses == tlb_misses,
              "events.conservation",
              "evt.tlbMisses %llu != TLBs' own miss count %llu",
              static_cast<unsigned long long>(evt.tlbMisses),
              static_cast<unsigned long long>(tlb_misses));
    ctx.check(evt.l2Accesses == evt.l1iMisses + evt.l1dMisses,
              "events.conservation",
              "%llu %s accesses but %llu + %llu L1 misses",
              static_cast<unsigned long long>(evt.l2Accesses),
              l2Name().c_str(),
              static_cast<unsigned long long>(evt.l1iMisses),
              static_cast<unsigned long long>(evt.l1dMisses));
    ctx.check(evt.l2Misses <= evt.l2Accesses, "events.conservation",
              "%llu %s misses exceed %llu accesses",
              static_cast<unsigned long long>(evt.l2Misses),
              l2Name().c_str(),
              static_cast<unsigned long long>(evt.l2Accesses));
    ctx.check(evt.refs == evt.traceRefs + evt.overheadRefs,
              "events.conservation",
              "%llu refs != %llu trace + %llu overhead",
              static_cast<unsigned long long>(evt.refs),
              static_cast<unsigned long long>(evt.traceRefs),
              static_cast<unsigned long long>(evt.overheadRefs));
    ctx.check(evt.tlbMissOverheadRefs + evt.faultOverheadRefs <=
                  evt.overheadRefs,
              "events.conservation",
              "categorized handler refs (%llu TLB + %llu fault) "
              "exceed the %llu total",
              static_cast<unsigned long long>(evt.tlbMissOverheadRefs),
              static_cast<unsigned long long>(evt.faultOverheadRefs),
              static_cast<unsigned long long>(evt.overheadRefs));
    ctx.check(backend.dramTxHist.samples() ==
                  evt.dramReads + evt.dramWrites,
              "events.conservation",
              "%llu DRAM transactions in the histogram but %llu + "
              "%llu counted (reads + writes)",
              static_cast<unsigned long long>(
                  backend.dramTxHist.samples()),
              static_cast<unsigned long long>(evt.dramReads),
              static_cast<unsigned long long>(evt.dramWrites));
}

} // namespace rampage
