/**
 * @file
 * Ablation (paper §5.5/§6.2): time-slice sensitivity.  The paper
 * suspects Figure 5's large-block advantage "is an artifact of the
 * context switch interval used in simulations" — a short slice
 * favours spatial over temporal locality.  This bench sweeps the
 * quantum and reports how the best block/page size moves.
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
        "Ablation - time-slice (quantum) sensitivity",
        "Sec 5.5: a short time slice favours larger blocks because "
        "they trade temporal for spatial locality; the optimal block "
        "size may depend on the context-switch interval");

    constexpr std::uint64_t rate = 4'000'000'000ull;
    const std::uint64_t quanta[] = {30'000, 120'000, 480'000};
    const char *const families[] = {"baseline", "rampage"};
    auto quantumLabel = [](std::uint64_t quantum) {
        return cellf("%lluK",
                     static_cast<unsigned long long>(quantum / 1000));
    };

    SweepRunner runner;
    for (std::uint64_t quantum : quanta) {
        SimConfig sim = defaultSimConfig();
        sim.quantumRefs = quantum;
        for (const char *family : families)
            for (std::uint64_t size : blockSizeSweep()) {
                HierarchyConfig config =
                    std::string(family) == "baseline"
                        ? HierarchyConfig(baselineConfig(rate, size))
                        : HierarchyConfig(rampageConfig(rate, size));
                runner.add(cellf("q%s/%s/", quantumLabel(quantum).c_str(),
                                 family) +
                               formatByteSize(size),
                           [=] { return simulateSystem(config, sim); });
            }
    }
    std::vector<SimResult> results = runSweep(runner);

    const std::vector<std::string> labels = blockSizeLabels();
    TextTable table;
    std::vector<std::string> header = {"quantum", "system"};
    header.insert(header.end(), labels.begin(), labels.end());
    header.push_back("best size");
    table.setHeader(header);

    auto next = results.begin();
    for (std::uint64_t quantum : quanta)
        for (const char *family : families) {
            std::vector<std::string> row = {quantumLabel(quantum), family};
            Tick best = ~Tick{0};
            std::string best_label;
            for (const std::string &label : labels) {
                Tick elapsed = (next++)->elapsedPs;
                row.push_back(formatSeconds(elapsed));
                if (elapsed < best) {
                    best = elapsed;
                    best_label = label;
                }
            }
            row.push_back(best_label);
            table.addRow(row);
        }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
