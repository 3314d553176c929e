/**
 * @file
 * Ablation (DESIGN.md §5): RAMpage page-replacement policy.  The
 * paper uses the clock algorithm (§4.5) and suggests the standby
 * page list — the software analogue of a victim cache (§3.2) — as a
 * refinement; this bench quantifies clock against FIFO, random, true
 * LRU and clock+standby at the paper's best page size.
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
        "Ablation - RAMpage page replacement policy (1KB pages)",
        "the paper uses clock (Sec 4.5) and proposes a standby page "
        "list as the victim-cache analogue (Sec 3.2); 'varying the "
        "complexity of the replacement strategy' is a claimed benefit "
        "of software management (Sec 6.4)");
    benchScale();

    const PageReplKind kinds[] = {PageReplKind::Clock, PageReplKind::Fifo,
                                  PageReplKind::Random, PageReplKind::Lru,
                                  PageReplKind::Standby};
    SimConfig sim = defaultSimConfig();
    SweepRunner runner;
    for (PageReplKind kind : kinds) {
        RampageConfig cfg = rampageConfig(1'000'000'000ull, 1024);
        cfg.pager.repl = kind;
        cfg.pager.standbyPages = 32;
        runner.add(pageReplKindName(kind),
                   [=] { return simulateSystem(cfg, sim); });
    }
    std::vector<SimResult> results = runSweep(runner);

    TextTable table;
    table.setHeader({"policy", "faults", "dirty-wb", "time(s)@1GHz",
                     "time(s)@4GHz", "vs clock @4GHz"});
    // kinds[0] is the paper's clock policy.
    const double clock_time = static_cast<double>(
        totalTimePs(results[0].counts, 4'000'000'000ull));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResult &result = results[i];
        Tick fast = totalTimePs(result.counts, 4'000'000'000ull);
        table.addRow({
            pageReplKindName(kinds[i]),
            cellf("%llu", static_cast<unsigned long long>(
                              result.counts.l2Misses)),
            cellf("%llu", static_cast<unsigned long long>(
                              result.counts.dramWrites)),
            formatSeconds(totalTimePs(result.counts, 1'000'000'000ull)),
            formatSeconds(fast),
            cellf("%+.2f%%",
                  100.0 * (static_cast<double>(fast) - clock_time) /
                      clock_time),
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
