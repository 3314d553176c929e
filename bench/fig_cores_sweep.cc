/**
 * @file
 * Beyond the paper: a **cores x page size** sweep of the RAMpage
 * hierarchy.  The paper's runs are single-CPU; this bench scales the
 * same Table 3 configuration to 1, 2 and 4 cores sharing one Direct
 * Rambus channel and reports the throughput speedup per SRAM page
 * size, plus how much aggregate core time is lost waiting for the
 * shared channel.  Large pages fault less but each fault monopolises
 * the channel longer, so their speedup saturates earlier.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/sweep.hh"
#include "stats/table.hh"
#include "util/units.hh"

using namespace rampage;

namespace
{

constexpr unsigned coreCounts[] = {1, 2, 4};

/** One behavioural sweep over the page sizes at a fixed core count. */
std::vector<SimResult>
runCoresSweep(unsigned cores, std::uint64_t issue_hz)
{
    SimConfig sim = defaultSimConfig();
    sim.cores = cores;
    SweepRunner runner;
    for (std::uint64_t size : blockSizeSweep()) {
        std::string id = "cores" + std::to_string(cores) + "/" +
                         formatByteSize(size);
        RampageConfig config = rampageConfig(issue_hz, size);
        runner.add(id, [=] { return simulateSystem(config, sim); });
    }
    return runSweep(runner);
}

int
runBench()
{
    benchBanner(
        "Cores x page size - RAMpage on a shared Rambus channel",
        "beyond the paper: the single-CPU hierarchy split into "
        "per-core frontends over one shared memory backend; speedup "
        "per added core saturates earliest at large SRAM pages, whose "
        "long transfers serialize on the one channel");
    benchScale();

    constexpr std::uint64_t oneGhz = 1'000'000'000ull;
    TextTable table;
    std::vector<std::string> header = {"cores", "metric"};
    for (const std::string &label : blockSizeLabels())
        header.push_back(label);
    table.setHeader(header);

    std::vector<SimResult> single;
    for (unsigned cores : coreCounts) {
        std::vector<SimResult> row = runCoresSweep(cores, oneGhz);
        if (cores == 1)
            single = row;
        std::vector<std::string> times = {std::to_string(cores),
                                          "time(s)"};
        std::vector<std::string> speedups = {"", "vs. 1 core"};
        std::vector<std::string> stalls = {"", "bus stall %"};
        for (std::size_t i = 0; i < row.size(); ++i) {
            const SimResult &r = row[i];
            times.push_back(formatSeconds(r.elapsedPs));
            speedups.push_back(
                cellf("%.2fx", static_cast<double>(single[i].elapsedPs) /
                                   static_cast<double>(r.elapsedPs)));
            // Aggregate core time lost to the shared channel, as a
            // share of the cores' combined busy window.
            double busy = static_cast<double>(r.elapsedPs) * cores;
            stalls.push_back(
                cellf("%.2f", busy > 0
                                  ? 100.0 * static_cast<double>(r.stallPs) /
                                        busy
                                  : 0.0));
        }
        table.addRow(times);
        table.addRow(speedups);
        table.addRow(stalls);
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
