/**
 * @file
 * Ablation (paper §6.2/§6.3): per-process SRAM page sizes.  The paper
 * argues software management permits "choosing the SRAM page size on
 * the fly" and reports work in progress on "the value of a variable
 * SRAM page size; initial results show that variation can make a
 * difference in individual programs but that a single page size may
 * be optimal for most programs".
 *
 * Procedure: (1) probe each Table 2 program alone to pick its best
 * page size; (2) run the multiprogrammed workload under (a) each
 * fixed page size and (b) the variable pager giving every process its
 * own best size; compare.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "core/cost_model.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "trace/benchmarks.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

static int
runBench()
{
    benchBanner(
        "Ablation - variable (per-process) SRAM page size (Sec 6.2)",
        "\"variation can make a difference in individual programs but "
        "... a single page size may be optimal for most programs\"; "
        "the only hardware support needed is a MIPS-style "
        "variable-page TLB");
    benchScale();

    constexpr std::uint64_t rate = 4'000'000'000ull;
    ExperimentScale scale = experimentScale();
    std::uint64_t probe_refs = scale.refs / 24;
    const std::vector<std::uint64_t> sizes = blockSizeSweep();

    // Step 1: probe each program alone at every page size.
    SweepRunner probes;
    for (const ProgramProfile &profile : benchmarkRoster())
        for (std::uint64_t size : sizes) {
            std::string id =
                "probe/" + profile.name + "/" + formatByteSize(size);
            probes.add(id, [=] {
                auto hier = makeHierarchy(rampageConfig(rate, size));
                std::vector<std::unique_ptr<TraceSource>> workload;
                workload.push_back(
                    std::make_unique<SyntheticProgram>(profile, 0));
                SimConfig solo = armedSimConfig(probe_refs, probe_refs);
                solo.insertSwitchTrace = false;
                return Simulator(*hier, std::move(workload), solo).run();
            });
        }
    std::vector<SimResult> solo = runSweep(probes);

    // Each program's best size becomes its page size in the variable
    // pager (128 B base frames, 1 KB for any other pid).
    PagedConfig var_cfg;
    var_cfg.common = defaultCommon(rate);
    var_cfg.pager.pageBytes = 128;
    var_cfg.pager.defaultPageBytes = 1024;
    std::printf("per-program best page sizes (solo probes):\n  ");
    auto next = solo.begin();
    Pid pid = 0;
    for (const ProgramProfile &profile : benchmarkRoster()) {
        Tick best = ~Tick{0};
        std::uint64_t best_size = 1024;
        for (std::uint64_t size : sizes) {
            Tick elapsed = (next++)->elapsedPs;
            if (elapsed < best) {
                best = elapsed;
                best_size = size;
            }
        }
        var_cfg.pager.pageBytesByPid[pid++] = best_size;
        std::printf("%s=%s ", profile.name.c_str(),
                    formatByteSize(best_size).c_str());
    }
    std::printf("\n\n");

    // Step 2: the multiprogrammed workload at each fixed size and
    // under the variable pager.
    SimConfig sim = defaultSimConfig();
    SweepRunner runner;
    for (std::uint64_t size : sizes) {
        RampageConfig cfg = rampageConfig(rate, size);
        runner.add("fixed/" + formatByteSize(size),
                   [=] { return simulateSystem(cfg, sim); });
    }
    runner.add("variable/per-process-best",
               [=] { return simulateSystem(var_cfg, sim); });
    std::vector<SimResult> results = runSweep(runner);

    TextTable table;
    table.setHeader({"configuration", "faults", "time(s)@4GHz"});
    auto addRow = [&](const std::string &name, const SimResult &result) {
        table.addRow({name,
                      cellf("%llu", static_cast<unsigned long long>(
                                        result.counts.l2Misses)),
                      formatSeconds(result.elapsedPs)});
    };
    Tick best_fixed = ~Tick{0};
    std::string best_fixed_label;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        addRow("fixed " + formatByteSize(sizes[i]), results[i]);
        if (results[i].elapsedPs < best_fixed) {
            best_fixed = results[i].elapsedPs;
            best_fixed_label = formatByteSize(sizes[i]);
        }
    }
    const SimResult &var_result = results.back();
    addRow("variable (per-process best)", var_result);

    std::printf("%s\n", table.render().c_str());
    double delta = 100.0 *
                   (static_cast<double>(best_fixed) -
                    static_cast<double>(var_result.elapsedPs)) /
                   static_cast<double>(best_fixed);
    std::printf("variable vs best fixed (%s): %+.1f%%\n",
                best_fixed_label.c_str(), delta);
    return 0;
}

int
main(int argc, char **argv)
{
    return rampage::benchMain(argc, argv, runBench);
}
