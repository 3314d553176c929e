/**
 * @file
 * Shared scaffolding for the experiment benches: every binary under
 * bench/ regenerates one table or figure from the paper, printing the
 * same rows/series the paper reports plus a short header restating
 * what the paper found, so runs can be compared shape-for-shape (see
 * EXPERIMENTS.md).
 */

#ifndef RAMPAGE_BENCH_COMMON_HH
#define RAMPAGE_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "stats/table.hh"
#include "util/json.hh"

namespace rampage
{

/**
 * CLI entry point shared by every bench: parses the common flags,
 * runs `body` under cliMain() (typed errors map to fatal/panic, a
 * failed audit to its violations and exit status 2), and — when
 * --json was given — writes the machine-readable report on success.
 *
 * The flags are one table in bench_common.cc, which also prints the
 * usage line.  A flag with a variable in brackets is the CLI spelling
 * of that knob (util/knob.hh): its value is validated under the
 * flag's name, then wins over the variable.
 *
 * Flags:
 *   --json <path>          write results + full stats dumps as JSON
 *   --audit <level>        model-integrity audits: off | boundaries |
 *                          paranoid [RAMPAGE_AUDIT]
 *   --inject-fault <spec>  corrupt model state ("kind[:seed]", see
 *                          src/core/fault_injection.hh) to prove the
 *                          audits fire — an audited run then exits with
 *                          status 2 and prints every violation
 *                          [RAMPAGE_INJECT_FAULT]
 *   --jobs <n>             SweepRunner worker threads running the
 *                          bench's simulations (default 1)
 *                          [RAMPAGE_JOBS]
 *   --cores <n>            CPU cores per simulated hierarchy (default:
 *                          the hierarchy config's own setting, i.e. 1)
 *                          [RAMPAGE_CORES]
 *   --point-deadline <s>   per-simulation wall-clock deadline
 *                          [RAMPAGE_DEADLINE]
 *   --isolate              fork each simulation [RAMPAGE_ISOLATE=1]
 *   --trace-out <base>     write a Chrome-trace JSON timeline per
 *                          simulation run, named <base>.<point>.trace.json
 *                          [RAMPAGE_TRACE_OUT]
 *   --stats-interval <n>   sample the stats registry every n benchmark
 *                          references into <base>.<point>.intervals.jsonl
 *                          [RAMPAGE_STATS_INTERVAL]
 *   --stats-filter <glob>  restrict the per-result "stats" dumps in the
 *                          JSON report to entries matching the glob
 *                          ('*' and '?'), e.g. 'dram.*'
 *
 * The human-readable table on stdout is unchanged byte-for-byte; all
 * telemetry goes to stderr or the JSON file.
 */
int benchMain(int argc, char **argv, const std::function<int()> &body);

/**
 * Record an arbitrary derived row (a table/figure cell) into the
 * bench's JSON report ("rows" array).  No-op unless --json was given.
 */
void benchRecordRow(JsonValue row);

/** Print the standard bench banner. */
void benchBanner(const std::string &title, const std::string &paper_says);

/** Print the scale the run used (refs, quantum, rates). */
void benchScale();

/** "128B"-style labels for the block/page sweep. */
std::vector<std::string> blockSizeLabels();

/**
 * The one way a bench runs simulations: every point added to
 * `runner` (one simulation each) runs on the SweepRunner worker pool
 * (--jobs, --isolate, --point-deadline) and the results come back in
 * add() order.  With --json each is recorded under its point id in
 * the report's "results" array: label, system, issue_hz, elapsed_ps,
 * seconds, any timeline file names and the full stats snapshot — all
 * simulated, never host time, so a report is byte-identical across
 * runs and job counts.  A bench has no per-point fault tolerance: the
 * first failing point is rethrown exactly as a serial run would raise
 * it, for cliMain's post-mortem.
 */
std::vector<SimResult> runSweep(SweepRunner &runner);

/**
 * Run one behavioural (blocking) simulation per block size for a
 * system family through runSweep().  `family` is "baseline", "2way"
 * or "rampage".
 */
std::vector<SimResult> runBlockingSweep(const std::string &family,
                                        std::uint64_t issue_hz);

/** Minimum elapsed time across a row of results priced at a rate. */
Tick bestTimePs(const std::vector<SimResult> &results,
                std::uint64_t issue_hz);

} // namespace rampage

#endif // RAMPAGE_BENCH_COMMON_HH
