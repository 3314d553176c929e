/**
 * @file
 * Simple statistics containers: a power-of-two-bucketed histogram and a
 * running scalar summary (count/min/max/mean).  Used to characterise
 * DRAM transaction sizes, handler lengths and synthetic-trace locality.
 */

#ifndef RAMPAGE_STATS_HISTOGRAM_HH
#define RAMPAGE_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rampage
{

/**
 * Histogram over log2-sized buckets: bucket i counts samples in
 * [2^i, 2^(i+1)), with bucket 0 also holding sample value 0.
 */
class Log2Histogram
{
  public:
    /** Record one sample. */
    void add(std::uint64_t value, std::uint64_t weight = 1);

    /** Total number of samples recorded (sum of weights). */
    std::uint64_t samples() const { return totalSamples; }

    /** Sum of all sample values (weighted). */
    std::uint64_t sum() const { return totalSum; }

    /** Weighted mean of samples; 0 when empty. */
    double mean() const;

    /** Count in the bucket containing `value`. */
    std::uint64_t bucketFor(std::uint64_t value) const;

    /**
     * Upper bound of the bucket at which the cumulative sample count
     * first reaches `fraction` (0 < fraction <= 1) of all samples —
     * i.e. an upper estimate of that percentile given log2 bucketing.
     * Returns 0 for an empty histogram; fraction is clamped to (0, 1].
     */
    std::uint64_t percentileUpperBound(double fraction) const;

    /** Number of allocated buckets. */
    std::size_t bucketCount() const { return buckets.size(); }

    /** Raw bucket counts, index = floor(log2(value)) (0 for value 0). */
    const std::vector<std::uint64_t> &rawBuckets() const { return buckets; }

    /** Render as "lo-hi: count" lines for reports. */
    std::string render() const;

    /** Discard all samples. */
    void reset();

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t totalSamples = 0;
    std::uint64_t totalSum = 0;
};

/**
 * Percentile upper bound over raw log2 bucket counts, for callers
 * holding frozen buckets rather than a live histogram (StatsSnapshot
 * entries, interval deltas).  Same estimate as
 * Log2Histogram::percentileUpperBound: the top of the bucket where the
 * cumulative count first reaches `fraction` of all samples.  Returns 0
 * when the buckets are empty.
 */
std::uint64_t
log2BucketsPercentile(const std::vector<std::uint64_t> &buckets,
                      double fraction);

} // namespace rampage

#endif // RAMPAGE_STATS_HISTOGRAM_HH
