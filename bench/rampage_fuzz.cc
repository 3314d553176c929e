/**
 * @file
 * The differential fuzzing harness CLI (src/check/).
 *
 * Modes (mutually exclusive):
 *   --fuzz                     run a fuzzing campaign (the default)
 *   --fuzz-replay <file>       re-run one JSON repro's property suite
 *   --fuzz-replay-dir <dir>    re-run every *.json repro under <dir>
 *   --fuzz-coverage            detector-coverage meta-check: every
 *                              injectable model fault must be caught
 *                              by the audits or by the oracle
 *
 * Campaign flags:
 *   --fuzz-seed <n>            Rng seed (default 1)
 *   --fuzz-points <n>          points to fuzz (0 = until budget)
 *   --fuzz-budget-seconds <s>  wall-clock budget (0 = none; when both
 *                              budget and points are 0, 25 points)
 *   --fuzz-corpus <dir>        replay committed repros first
 *   --fuzz-out <dir>           where shrunk repros are written
 *                              (default results/fuzz)
 *   --inject-fault <spec>      inject "kind[:seed]" into every
 *                              generated point (seeded-bug drills)
 *   --verbose                  per-point progress lines
 *
 * Exit status: 0 when every check passed, 1 on findings (a failing
 * property, a still-failing repro, an uncovered fault kind).
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/fuzz_driver.hh"
#include "util/error.hh"
#include "util/units.hh"

using namespace rampage;

namespace
{

double
parseSeconds(const std::string &text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        !std::isfinite(value) || value < 0)
        throw ConfigError("%s: invalid seconds '%s'", flag,
                          text.c_str());
    return value;
}

int
runCampaign(const FuzzOptions &options)
{
    FuzzCampaignResult result = runFuzzCampaign(options);
    std::printf("fuzz: %llu point(s), %llu candidate config(s) drawn "
                "(%llu rejected by validation), %llu hostile "
                "probe(s)\n",
                static_cast<unsigned long long>(result.pointsRun),
                static_cast<unsigned long long>(
                    result.gen.candidates),
                static_cast<unsigned long long>(result.gen.rejected),
                static_cast<unsigned long long>(
                    result.hostileProbes));
    for (const std::string &finding : result.findings)
        std::printf("fuzz: FINDING: %s\n", finding.c_str());
    for (const std::string &path : result.reproPaths)
        std::printf("fuzz: repro written: %s\n", path.c_str());
    std::printf("fuzz: %s\n", result.ok() ? "PASS" : "FAIL");
    return result.ok() ? 0 : 1;
}

int
runCoverage()
{
    std::vector<CoverageOutcome> outcomes = runDetectorCoverage(true);
    int uncovered = 0;
    for (const CoverageOutcome &outcome : outcomes) {
        if (!outcome.caught()) {
            ++uncovered;
            std::printf("coverage: UNCAUGHT fault kind '%s': %s\n",
                        modelFaultName(outcome.kind),
                        outcome.detail.c_str());
        }
    }
    std::printf("coverage: %zu fault kind(s), %d uncaught: %s\n",
                outcomes.size(), uncovered,
                uncovered == 0 ? "PASS" : "FAIL");
    return uncovered == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return cliMain([argc, argv] {
        FuzzOptions options;
        std::string replay_file;
        std::string replay_dir;
        bool coverage = false;

        auto need_value = [&](int &i, const char *flag) {
            if (i + 1 >= argc)
                throw ConfigError("%s requires a value", flag);
            return std::string(argv[++i]);
        };

        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--fuzz") {
                // campaign mode (the default); nothing to record
            } else if (arg == "--fuzz-seed") {
                options.seed = parseCount(need_value(i, "--fuzz-seed"),
                                          "--fuzz-seed");
            } else if (arg == "--fuzz-points") {
                options.points = parseCount(
                    need_value(i, "--fuzz-points"), "--fuzz-points");
            } else if (arg == "--fuzz-budget-seconds") {
                options.budgetSeconds = parseSeconds(
                    need_value(i, "--fuzz-budget-seconds"),
                    "--fuzz-budget-seconds");
            } else if (arg == "--fuzz-corpus") {
                options.corpusDir = need_value(i, "--fuzz-corpus");
            } else if (arg == "--fuzz-out") {
                options.outDir = need_value(i, "--fuzz-out");
            } else if (arg == "--inject-fault") {
                options.faultSpec = need_value(i, "--inject-fault");
            } else if (arg == "--fuzz-replay") {
                replay_file = need_value(i, "--fuzz-replay");
            } else if (arg == "--fuzz-replay-dir") {
                replay_dir = need_value(i, "--fuzz-replay-dir");
            } else if (arg == "--fuzz-coverage") {
                coverage = true;
            } else if (arg == "--verbose") {
                options.verbose = true;
            } else {
                throw ConfigError("unknown flag '%s' (see the file "
                                  "comment in bench/rampage_fuzz.cc)",
                                  arg.c_str());
            }
        }

        if (coverage)
            return runCoverage();
        if (!replay_file.empty())
            return replayRepro(replay_file, true);
        if (!replay_dir.empty())
            return replayReproDir(replay_dir, true) == 0 ? 0 : 1;
        return runCampaign(options);
    });
}
