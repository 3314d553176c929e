#include "stats/histogram.hh"

#include <algorithm>
#include <cstdio>

#include "util/bitops.hh"

namespace rampage
{

namespace
{

std::size_t
bucketIndex(std::uint64_t value)
{
    return value == 0 ? 0 : floorLog2(value);
}

} // namespace

void
Log2Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    std::size_t idx = bucketIndex(value);
    if (idx >= buckets.size())
        buckets.resize(idx + 1, 0);
    buckets[idx] += weight;
    totalSamples += weight;
    totalSum += value * weight;
}

double
Log2Histogram::mean() const
{
    if (totalSamples == 0)
        return 0.0;
    return static_cast<double>(totalSum) /
           static_cast<double>(totalSamples);
}

std::uint64_t
Log2Histogram::bucketFor(std::uint64_t value) const
{
    std::size_t idx = bucketIndex(value);
    return idx < buckets.size() ? buckets[idx] : 0;
}

std::uint64_t
Log2Histogram::percentileUpperBound(double fraction) const
{
    return log2BucketsPercentile(buckets, fraction);
}

std::uint64_t
log2BucketsPercentile(const std::vector<std::uint64_t> &buckets,
                      double fraction)
{
    std::uint64_t total = 0;
    for (std::uint64_t count : buckets)
        total += count;
    if (total == 0)
        return 0;
    fraction = std::min(1.0, std::max(fraction, 0.0));
    // Round up: the 50th percentile of {1,1} is still inside bucket 0.
    std::uint64_t target = static_cast<std::uint64_t>(
        fraction * static_cast<double>(total));
    if (target == 0)
        target = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cumulative += buckets[i];
        if (cumulative >= target)
            return i == 0 ? 1 : (std::uint64_t{1} << (i + 1)) - 1;
    }
    return (std::uint64_t{1} << buckets.size()) - 1;
}

std::string
Log2Histogram::render() const
{
    std::string out;
    char line[96];
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        std::uint64_t lo = i == 0 ? 0 : (std::uint64_t{1} << i);
        std::uint64_t hi = (std::uint64_t{1} << (i + 1)) - 1;
        std::snprintf(line, sizeof(line), "%12llu - %12llu: %llu\n",
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(hi),
                      static_cast<unsigned long long>(buckets[i]));
        out += line;
    }
    return out;
}

void
Log2Histogram::reset()
{
    buckets.clear();
    totalSamples = 0;
    totalSum = 0;
}

} // namespace rampage
