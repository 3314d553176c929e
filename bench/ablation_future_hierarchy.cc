/**
 * @file
 * Ablation (paper §6.3 "work in progress"): the more aggressive 1998
 * hierarchy — a 1 K-entry 2-way TLB and 64 KB 2-way L1 caches.  The
 * paper's preliminary finding: with this hierarchy "RAMpage does
 * become competitive under a wider range of conditions (for example,
 * faster than a 2-way associative L2 cache with a 128-byte SRAM
 * page)".
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/cost_model.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

namespace
{

CommonConfig
aggressiveCommon(std::uint64_t issue_hz)
{
    CommonConfig common = defaultCommon(issue_hz);
    common.tlb.entries = 1024;
    common.tlb.assoc = 2;
    common.l1SizeBytes = 64 * kib;
    common.l1Assoc = 2;
    return common;
}

} // namespace

static int
runBench()
{
    benchBanner(
        "Ablation - larger TLB (1K 2-way) + aggressive L1 (64KB 2-way)",
        "Sec 6.3: with the improved hierarchy RAMpage becomes "
        "competitive under a wider range of conditions, e.g. faster "
        "than a 2-way L2 even at a 128-byte SRAM page");
    benchScale();

    SimConfig sim = defaultSimConfig();
    constexpr std::uint64_t rate = 4'000'000'000ull;

    auto tagOf = [](bool aggressive) {
        return aggressive ? "1998-class" : "paper-base";
    };
    SweepRunner runner;
    for (bool aggressive : {false, true})
        for (std::uint64_t size : blockSizeSweep()) {
            ConventionalConfig two = twoWayConfig(rate, size);
            RampageConfig ram = rampageConfig(rate, size);
            if (aggressive) {
                two.common = aggressiveCommon(rate);
                ram.common = aggressiveCommon(rate);
            }
            std::string cell = std::string(tagOf(aggressive)) + "/" +
                               formatByteSize(size);
            runner.add("2way/" + cell,
                       [=] { return simulateSystem(two, sim); });
            runner.add("rampage/" + cell,
                       [=] { return simulateSystem(ram, sim); });
        }
    std::vector<SimResult> results = runSweep(runner);

    TextTable table;
    std::vector<std::string> header = {"hierarchy", "system"};
    for (const std::string &label : blockSizeLabels())
        header.push_back(label);
    table.setHeader(header);

    auto next = results.begin();
    for (bool aggressive : {false, true}) {
        std::vector<std::string> two_row = {tagOf(aggressive), "2-way L2"};
        std::vector<std::string> ram_row = {"", "RAMpage"};
        for (std::size_t i = 0; i < blockSizeSweep().size(); ++i) {
            two_row.push_back(formatSeconds((next++)->elapsedPs));
            ram_row.push_back(formatSeconds((next++)->elapsedPs));
        }
        table.addRow(two_row);
        table.addRow(ram_row);
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
