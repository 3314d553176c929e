/**
 * @file
 * Ablation (paper §3.2): a victim cache behind the direct-mapped L2.
 * The paper lists Jouppi's victim cache as the cheap-hardware
 * alternative for reducing conflict misses; this bench measures how
 * much of the associativity gap (DM -> 2-way -> RAMpage) a small
 * victim buffer recovers.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/cost_model.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

static int
runBench()
{
    benchBanner(
        "Ablation - victim cache behind the direct-mapped L2 (Sec 3.2)",
        "a small fully-associative buffer of recently replaced blocks "
        "reduces conflict misses without slowing hits; RAMpage's "
        "standby list is its software analogue");
    benchScale();

    SimConfig sim = defaultSimConfig();
    constexpr std::uint64_t rate = 4'000'000'000ull;
    constexpr std::uint64_t size = 2048;

    std::vector<std::pair<std::string, HierarchyConfig>> systems = {
        {"baseline (DM)", baselineConfig(rate, size)}};
    for (unsigned entries : {4u, 16u}) {
        ConventionalConfig cfg = baselineConfig(rate, size);
        cfg.victimEntries = entries;
        systems.emplace_back(cellf("DM + %u-entry victim", entries), cfg);
    }
    systems.emplace_back("2-way L2", twoWayConfig(rate, size));
    systems.emplace_back("RAMpage", rampageConfig(rate, size));
    SweepRunner runner;
    for (const auto &[name, config] : systems)
        runner.add(name, [=] { return simulateSystem(config, sim); });
    std::vector<SimResult> results = runSweep(runner);

    TextTable table;
    table.setHeader({"system", "L2 misses", "DRAM reads", "victim hits",
                     "time(s)@4GHz"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResult &result = results[i];
        table.addRow({
            systems[i].first,
            cellf("%llu", static_cast<unsigned long long>(
                              result.counts.l2Misses)),
            cellf("%llu", static_cast<unsigned long long>(
                              result.counts.dramReads)),
            cellf("%llu", static_cast<unsigned long long>(
                              result.counts.victimCacheHits)),
            formatSeconds(result.elapsedPs),
        });
    }

    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
