/**
 * @file
 * Ablation (paper §6.3 future work): pipelined Direct Rambus.  With
 * multiple references in flight, a dirty-victim write and the page
 * read overlap their access latencies, shaving up to 50 ns off every
 * dirty fault; the paper asks whether this makes smaller pages
 * viable.
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
        "Ablation - pipelined Direct Rambus (Sec 6.3 future work)",
        "\"the effect of pipelined memory references would be worth "
        "investigating, particularly to see if smaller block or page "
        "sizes become viable in this case\"");
    benchScale();

    SimConfig sim = defaultSimConfig();
    const unsigned depths[] = {1, 8};
    SweepRunner runner;
    for (unsigned depth : depths)
        for (std::uint64_t size : blockSizeSweep()) {
            RampageConfig cfg = rampageConfig(4'000'000'000ull, size);
            cfg.common.rambus.pipelineDepth = depth;
            runner.add(cellf("depth%u/", depth) + formatByteSize(size),
                       [=] { return simulateSystem(cfg, sim); });
        }
    std::vector<SimResult> results = runSweep(runner);

    TextTable table;
    std::vector<std::string> header = {"system"};
    for (const std::string &label : blockSizeLabels())
        header.push_back(label + " @4GHz");
    table.setHeader(header);

    auto next = results.begin();
    for (unsigned depth : depths) {
        std::vector<std::string> row = {
            depth == 1 ? "RAMpage (no pipelining)"
                       : "RAMpage (pipelined channel)"};
        for (std::size_t i = 0; i < blockSizeSweep().size(); ++i)
            row.push_back(formatSeconds((next++)->elapsedPs));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("pipelining overlaps the access latency of the "
                "dirty-victim write-back with the page read; gains "
                "concentrate where faults are frequent and pages "
                "small.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
