/**
 * @file
 * Regenerates the paper's **Figure 5**: RAMpage (context switches on
 * misses) versus the 2-way associative L2, as a relative measure —
 * "n means 1.n times slower than the best time for each CPU speed" —
 * per block/page size and issue rate.
 */

#include <algorithm>
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
        "Figure 5 - RAMpage (switch-on-miss) vs 2-way L2, relative "
        "slowdown vs best-per-rate",
        "the two systems are close; larger block sizes become "
        "favourable for the 2-way hierarchy as the CPU-DRAM gap grows "
        "(possibly an artifact of the fixed context-switch interval)");
    benchScale();

    auto two_way = runBlockingSweep("2way", 1'000'000'000ull);

    // The switch-on-miss runs are timing-coupled, so each is simulated
    // at its rate; the 2-way runs are priced from the behavioural sweep.
    SimConfig sim = defaultSimConfig(true);
    SweepRunner runner;
    for (std::uint64_t rate : issueRates())
        for (std::uint64_t size : blockSizeSweep()) {
            RampageConfig cfg = rampageConfig(rate, size, true);
            runner.add("switch/" + formatFrequency(rate) + "/" +
                           formatByteSize(size),
                       [=] { return simulateSystem(cfg, sim); });
        }
    std::vector<SimResult> switched = runSweep(runner);

    TextTable table;
    std::vector<std::string> header = {"issue rate", "system"};
    for (const std::string &label : blockSizeLabels())
        header.push_back(label);
    table.setHeader(header);

    auto next = switched.begin();
    for (std::uint64_t rate : issueRates()) {
        std::vector<Tick> switch_times;
        for (std::size_t i = 0; i < blockSizeSweep().size(); ++i)
            switch_times.push_back((next++)->elapsedPs);
        std::vector<Tick> two_way_times;
        for (const SimResult &result : two_way)
            two_way_times.push_back(totalTimePs(result.counts, rate));

        Tick best = ~Tick{0};
        for (Tick t : switch_times)
            best = std::min(best, t);
        for (Tick t : two_way_times)
            best = std::min(best, t);

        auto relative = [&](Tick t) {
            return cellf("%.3f", static_cast<double>(t) /
                                     static_cast<double>(best) -
                                 1.0);
        };
        std::vector<std::string> row = {formatFrequency(rate),
                                        "RAMpage+switch"};
        for (Tick t : switch_times)
            row.push_back(relative(t));
        table.addRow(row);
        row = {"", "2-way L2"};
        for (Tick t : two_way_times)
            row.push_back(relative(t));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("each cell is n where the system is 1.n times slower "
                "than the best time for that CPU speed (0 = the best "
                "configuration).\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
