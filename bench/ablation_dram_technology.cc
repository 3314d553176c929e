/**
 * @file
 * Ablation (paper §3.3): DRAM technology under the same hierarchies —
 * non-pipelined Direct Rambus (the paper's device), the 128-bit/10 ns
 * SDRAM it calls "similar", and a dual-channel Rambus ("it is also
 * possible to have multiple Rambus channels to increase bandwidth,
 * though latency is not improved").
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
        "Ablation - DRAM technology (Sec 3.3): Rambus vs SDRAM vs "
        "2-channel Rambus",
        "non-pipelined Direct Rambus has similar characteristics to an "
        "SDRAM implementation; extra channels buy bandwidth, not "
        "latency");
    benchScale();

    SimConfig sim = defaultSimConfig();
    constexpr std::uint64_t rate = 4'000'000'000ull;

    struct Tech
    {
        const char *name;
        CommonConfig::DramKind kind;
        unsigned channels;
    };
    const Tech techs[] = {
        {"DirectRambus x1", CommonConfig::DramKind::DirectRambus, 1},
        {"SDRAM 128b/10ns", CommonConfig::DramKind::Sdram, 1},
        {"DirectRambus x2", CommonConfig::DramKind::DirectRambus, 2},
    };

    SweepRunner runner;
    for (const Tech &tech : techs)
        for (std::uint64_t size : blockSizeSweep()) {
            ConventionalConfig base = baselineConfig(rate, size);
            base.common.dramKind = tech.kind;
            base.common.rambus.channels = tech.channels;
            RampageConfig ram = rampageConfig(rate, size);
            ram.common.dramKind = tech.kind;
            ram.common.rambus.channels = tech.channels;
            std::string cell = std::string(tech.name) + "/" +
                               formatByteSize(size);
            runner.add("baseline/" + cell,
                       [=] { return simulateSystem(base, sim); });
            runner.add("rampage/" + cell,
                       [=] { return simulateSystem(ram, sim); });
        }
    std::vector<SimResult> results = runSweep(runner);

    TextTable table;
    std::vector<std::string> header = {"technology", "system"};
    for (const std::string &label : blockSizeLabels())
        header.push_back(label);
    table.setHeader(header);

    auto next = results.begin();
    for (const Tech &tech : techs) {
        std::vector<std::string> base_row = {tech.name, "baseline"};
        std::vector<std::string> ram_row = {"", "RAMpage"};
        for (std::size_t i = 0; i < blockSizeSweep().size(); ++i) {
            base_row.push_back(formatSeconds((next++)->elapsedPs));
            ram_row.push_back(formatSeconds((next++)->elapsedPs));
        }
        table.addRow(base_row);
        table.addRow(ram_row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("expected shape: SDRAM tracks single-channel Rambus "
                "closely; the second channel helps most where "
                "transfers are large (streaming time dominated).\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
