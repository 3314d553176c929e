/**
 * @file
 * Ablation (paper §3.2): the full menu of associativity strategies —
 * direct-mapped, direct-mapped + victim cache, column-associative,
 * hardware 2-way, and RAMpage's full software associativity — at the
 * paper's comparison point.  This is the design-space table behind
 * the paper's framing: "conventional limited associativity
 * implemented in hardware ... is the standard against which RAMpage
 * is judged".
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
        "Ablation - associativity alternatives (Sec 3.2) at 1KB "
        "blocks/pages",
        "victim caches, column-associative caches and page placement "
        "are the cited cheap alternatives to full associativity; "
        "RAMpage gets full associativity in software");
    benchScale();

    SimConfig sim = defaultSimConfig();
    constexpr std::uint64_t rate = 4'000'000'000ull;
    constexpr std::uint64_t size = 1024;

    ConventionalConfig victim = baselineConfig(rate, size);
    victim.victimEntries = 8;
    ConventionalConfig column = baselineConfig(rate, size);
    column.l2Style = ConventionalConfig::L2Style::ColumnAssoc;
    const std::pair<const char *, HierarchyConfig> systems[] = {
        {"direct-mapped", baselineConfig(rate, size)},
        {"DM + 8-entry victim", victim},
        {"column-associative", column},
        {"2-way (random)", twoWayConfig(rate, size)},
        {"RAMpage (full, software)", rampageConfig(rate, size)},
    };
    SweepRunner runner;
    for (const auto &[name, config] : systems)
        runner.add(name, [=] { return simulateSystem(config, sim); });
    std::vector<SimResult> results = runSweep(runner);

    TextTable table;
    table.setHeader({"organisation", "L2 misses", "miss vs DM",
                     "time(s)@4GHz", "time vs DM"});
    const double dm_misses = static_cast<double>(results[0].counts.l2Misses);
    const double dm_time = static_cast<double>(results[0].elapsedPs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResult &result = results[i];
        const std::uint64_t misses = result.counts.l2Misses;
        table.addRow({
            systems[i].first,
            cellf("%llu", static_cast<unsigned long long>(misses)),
            cellf("%+.1f%%",
                  100.0 * (static_cast<double>(misses) - dm_misses) /
                      dm_misses),
            formatSeconds(result.elapsedPs),
            cellf("%+.1f%%",
                  100.0 * (static_cast<double>(result.elapsedPs) -
                           dm_time) /
                      dm_time),
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
