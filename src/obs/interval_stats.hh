/**
 * @file
 * Interval statistics: epoch-based sampling of a StatsRegistry into a
 * JSON-lines time series.
 *
 * With --stats-interval=<refs> the Simulator asks the writer to
 * sample every N benchmark references.  Each epoch line carries the
 * *delta* since the previous sample for counters and histograms
 * (bucketwise), and the current absolute value for formulas (a ratio's
 * delta is meaningless) — so summing a counter's deltas over all
 * epochs reproduces the final snapshot exactly, which the obs CI
 * check enforces.  Histogram deltas carry count/sum/mean plus
 * p50/p95/p99 log2-bucket estimates (see stats/histogram.hh).
 *
 * Crash-safety is per line: every epoch is one write()+flush of a
 * complete JSON object, so a run killed mid-campaign (--isolate
 * children included) leaves a valid JSONL prefix rather than a torn
 * file.  Write failures degrade to warnOnce naming the file
 * (ErrorCategory::Io convention) — telemetry loss must never fail the
 * simulation.
 */

#ifndef RAMPAGE_OBS_INTERVAL_STATS_HH
#define RAMPAGE_OBS_INTERVAL_STATS_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "stats/registry.hh"

namespace rampage
{

/** Streams per-epoch StatsRegistry delta snapshots as JSON lines. */
class IntervalStatsWriter
{
  public:
    /**
     * @param registry  live registry to sample (must outlive writer)
     * @param path      JSONL output path (opened lazily)
     * @param interval_refs  benchmark references per epoch (> 0)
     */
    IntervalStatsWriter(const StatsRegistry *registry, std::string path,
                        std::uint64_t interval_refs);
    ~IntervalStatsWriter();

    IntervalStatsWriter(const IntervalStatsWriter &) = delete;
    IntervalStatsWriter &operator=(const IntervalStatsWriter &) = delete;

    /**
     * Called after each access batch, which the Simulator ends at
     * every boundary; samples an epoch when one is reached.
     */
    void
    maybeSample(std::uint64_t refs_executed, std::uint64_t now_ps)
    {
        if (refs_executed >= nextBoundary)
            sample(refs_executed, now_ps);
    }

    /**
     * Flush the final (possibly partial) epoch and close the file.
     * After this, the per-epoch counter deltas sum to the registry's
     * final values.
     */
    void finish(std::uint64_t refs_executed, std::uint64_t now_ps);

    /** Benchmark-reference count the next epoch is due at. */
    std::uint64_t nextSampleAt() const { return nextBoundary; }

    /** Epoch lines written so far. */
    std::uint64_t epochs() const { return epochCount; }

    /** True once any write has failed (file abandoned). */
    bool failed() const { return writeFailed; }

    /** The output path (for SimResult bookkeeping). */
    const std::string &path() const { return outPath; }

  private:
    void sample(std::uint64_t refs_executed, std::uint64_t now_ps);
    void writeLine(std::uint64_t refs_executed, std::uint64_t now_ps,
                   const StatsSnapshot &current);
    void warnFailure(const char *what);

    const StatsRegistry *reg;
    std::string outPath;
    std::uint64_t intervalRefs;
    std::uint64_t nextBoundary;
    std::uint64_t lastSampledRefs = 0;
    std::uint64_t epochCount = 0;
    StatsSnapshot previous;
    std::FILE *out = nullptr;
    bool writeFailed = false;
};

} // namespace rampage

#endif // RAMPAGE_OBS_INTERVAL_STATS_HH
