/**
 * @file
 * Scenario: a long parameter sweep must survive a bad point.  This
 * example runs a small baseline-vs-RAMpage campaign through the
 * fault-tolerant SweepRunner with two poisoned points mixed in (an
 * invalid configuration and a corrupted trace file) and prints the
 * per-point outcome table: the healthy points carry their simulated
 * time, the poisoned ones their error category.
 *
 * Usage: sweep_campaign
 *        (RAMPAGE_JOBS=n runs the points on a worker pool and
 *         RAMPAGE_ISOLATE=1 forks each into a child; the table is the
 *         same either way)
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
runTool(int argc, char **)
{
    if (argc > 1)
        throw ConfigError("usage: sweep_campaign (takes no arguments)");
    SimConfig sim = defaultSimConfig();

    std::printf("Fault-tolerant sweep campaign\n\n");

    std::string corrupt = makeCorruptTrace();

    SweepRunner runner;
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
    table.setHeader({"point", "status", "time(s)", "error"});
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
        table.addRow(
            {outcome.id, pointStatusName(outcome.status), time, error});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf("\n%zu ok, %zu failed\n", report.okCount(),
                report.failedCount());
    std::remove(corrupt.c_str());
    return report.okCount() > 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return rampage::cliMain([&] { return runTool(argc, argv); });
}
