/**
 * @file
 * Regenerates the paper's **Table 4**: run times for RAMpage with
 * context switches on misses, and the speedup over RAMpage without
 * them ("vs. no switch").
 *
 * Unlike every other table, these runs are timing-coupled — whether
 * a blocked process's page transfer has completed depends on absolute
 * time — so each (page size, issue rate) cell is simulated at that
 * rate rather than re-priced.
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
        "Table 4 - RAMpage with context switches on misses",
        "up to 16% faster (4GHz) than the best RAMpage without "
        "switches; as CPU speed increases, larger page sizes become "
        "more viable and the value of switching on a miss grows");
    benchScale();

    // One behavioural sweep prices the no-switch comparison at every
    // rate.
    auto no_switch = runBlockingSweep("rampage", 1'000'000'000ull);

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
    std::vector<std::string> header = {"issue rate", "metric"};
    for (const std::string &label : blockSizeLabels())
        header.push_back(label);
    table.setHeader(header);

    auto next = switched.begin();
    for (std::uint64_t rate : issueRates()) {
        std::vector<std::string> times = {formatFrequency(rate),
                                          "time(s)"};
        std::vector<std::string> speedups = {"", "vs. no switch"};
        Tick best_switch = ~Tick{0};
        Tick best_plain = bestTimePs(no_switch, rate);
        for (const SimResult &plain_run : no_switch) {
            Tick elapsed = (next++)->elapsedPs;
            times.push_back(formatSeconds(elapsed));
            Tick plain = totalTimePs(plain_run.counts, rate);
            speedups.push_back(cellf(
                "%.3f", static_cast<double>(plain) /
                            static_cast<double>(elapsed)));
            if (elapsed < best_switch)
                best_switch = elapsed;
        }
        table.addRow(times);
        table.addRow(speedups);
        double gain = 100.0 *
                      (static_cast<double>(best_plain) -
                       static_cast<double>(best_switch)) /
                      static_cast<double>(best_plain);
        table.addRow({"", cellf("best-vs-best gain: %+.1f%%", gain)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("'vs. no switch' is the paper's metric: the speedup of "
                "each cell over RAMpage *at the same page size* without "
                "switches on misses.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
