#include "core/core_frontend.hh"

#include "stats/registry.hh"

namespace rampage
{

namespace
{

CacheParams
l1Params(const CommonConfig &cfg, const char *name, std::uint64_t seed)
{
    CacheParams params;
    params.name = name;
    params.sizeBytes = cfg.l1SizeBytes;
    params.blockBytes = cfg.l1BlockBytes;
    params.assoc = cfg.l1Assoc;
    params.repl = ReplPolicy::LRU;
    params.seed = seed;
    return params;
}

/**
 * Per-core TLB parameters: core 0 keeps the configured seed (the
 * historical single-core stream); further cores offset it so their
 * random-replacement draws are disjoint but deterministic.
 */
TlbParams
coreTlbParams(const CommonConfig &cfg, CoreId core)
{
    TlbParams params = cfg.tlb;
    params.seed += core;
    return params;
}

} // namespace

CoreFrontend::CoreFrontend(const CommonConfig &cfg, CoreId core)
    : id(core),
      l1iCache(l1Params(cfg, "L1i",
                        101 + std::uint64_t{16} * core)),
      l1dCache(l1Params(cfg, "L1d",
                        102 + std::uint64_t{16} * core)),
      tlbUnit(coreTlbParams(cfg, core))
{
}

void
CoreFrontend::registerStats(StatsRegistry &reg,
                            const std::string &prefix)
{
    l1iCache.registerStats(reg, prefix + "l1i");
    l1dCache.registerStats(reg, prefix + "l1d");
    tlbUnit.registerStats(reg, prefix + "tlb");
}

} // namespace rampage
