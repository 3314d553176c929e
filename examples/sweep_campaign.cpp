/**
 * @file
 * Scenario: a long parameter sweep must survive a bad point and a
 * killed process.  This example runs a small baseline-vs-RAMpage
 * campaign through the fault-tolerant SweepRunner with two poisoned
 * points mixed in (an invalid configuration and a corrupted trace
 * file), prints the per-point outcome table, and checkpoints to a
 * manifest — run it twice and the completed points are skipped.
 *
 * Usage: sweep_campaign [checkpoint-path]
 *        (default checkpoint: ./sweep_campaign.checkpoint;
 *         delete the file to start the campaign over;
 *         RAMPAGE_JOBS=n runs the points on a worker pool — the
 *         outcome table and checkpoint set are the same either way)
 */

#include <cstdio>
#include <string>

#include "core/sweep.hh"
#include "stats/table.hh"
#include "trace/corrupter.hh"
#include "trace/file_format.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

namespace
{

/** Write a native trace, then clip its final record mid-way. */
std::string
makeCorruptTrace()
{
    std::string path = "sweep_campaign_corrupt.trace";
    {
        TraceWriter writer(path);
        MemRef ref;
        ref.pid = 1;
        for (int i = 0; i < 256; ++i) {
            ref.vaddr = 0x4000 + 32 * i;
            writer.write(ref);
        }
    }
    // 8-byte header + 256 packed 11-byte records, minus a partial tail.
    truncateTraceFile(path, 8 + 256 * 11 - 4);
    return path;
}

} // namespace

static int
runTool(int argc, char **argv)
{
    std::string checkpoint =
        argc > 1 ? argv[1] : "sweep_campaign.checkpoint";
    SimConfig sim = defaultSimConfig();

    std::printf("Fault-tolerant sweep campaign, checkpoint = %s\n"
                "(re-run to resume; delete the file to start over)\n\n",
                checkpoint.c_str());

    std::string corrupt = makeCorruptTrace();

    SweepRunner::Options opts;
    opts.checkpointPath = checkpoint;
    SweepRunner runner(opts);
    for (std::uint64_t rate : {200'000'000ull, 1'000'000'000ull}) {
        runner.add("baseline/" + formatFrequency(rate), [=] {
            return simulateSystem(baselineConfig(rate, 1024), sim);
        });
        runner.add("rampage/" + formatFrequency(rate), [=] {
            return simulateSystem(rampageConfig(rate, 1024), sim);
        });
    }
    // Two deliberately poisoned points: the campaign must survive both.
    runner.add("poison/l2-block-16B", [=] {
        return simulateSystem(
            baselineConfig(1'000'000'000ull, 16), sim);
    });
    runner.add("poison/corrupt-trace", [=]() -> SimResult {
        TraceReadOptions strict;
        strict.strict = true;
        readTraceFile(corrupt, 1, strict);
        return SimResult{};
    });

    SweepReport report = runner.run();

    TextTable table;
    table.setHeader({"point", "status", "wall(s)", "time(s)", "error"});
    for (const PointOutcome &outcome : report.outcomes) {
        std::string time = outcome.haveResult
            ? formatSeconds(outcome.result.elapsedPs)
            : "-";
        std::string error = outcome.status == PointStatus::Failed
            ? std::string(errorCategoryName(outcome.errorCategory)) +
                  ": " + outcome.error
            : "-";
        if (error.size() > 48)
            error = error.substr(0, 45) + "...";
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.2f", outcome.wallSeconds);
        table.addRow({outcome.id, pointStatusName(outcome.status), wall,
                      time, error});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf("\n%zu ok, %zu failed, %zu skipped via checkpoint\n",
                report.okCount(), report.failedCount(),
                report.skippedCount());
    std::remove(corrupt.c_str());
    return report.okCount() + report.skippedCount() > 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
