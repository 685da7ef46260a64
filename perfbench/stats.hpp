/**
 * @file
 * Sample statistics of the serving benchmark: nearest-rank percentiles
 * and the "highest percentile with at least ten samples beyond it" tail
 * that every latency metric reports. Header-only and free of library
 * dependencies so the self-test can exercise it in isolation.
 */
#ifndef GCOD_PERFBENCH_STATS_HPP
#define GCOD_PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** Samples beyond the tail percentile (the choosing-metrics rule). */
constexpr size_t kTailBeyond = 10;

/**
 * Smallest sample count that yields a tail at or above the median: the
 * tail's rank n - 10 must not fall below the median's rank ceil(n / 2).
 */
constexpr size_t kMinLatencySamples = 2 * kTailBeyond;

/**
 * Nearest-rank percentile of an ascending sample set: the smallest
 * sample with at least p% of the samples at or below it. Always returns
 * a measured sample, never an interpolation.
 */
inline double
nearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        throw std::invalid_argument("percentile of an empty sample set");
    double clamped = std::min(100.0, std::max(0.0, p));
    size_t n = sorted.size();
    auto rank = size_t(std::ceil(clamped / 100.0 * double(n)));
    rank = std::min(n, std::max<size_t>(1, rank));
    return sorted[rank - 1];
}

/** A latency summary: median, tail and the sample counts behind them. */
struct Summary
{
    size_t n = 0;
    double p50 = 0.0;
    /** Value of the tail percentile. */
    double tail = 0.0;
    /** Which percentile the tail is (100 * rank / n). */
    double tailPercentile = 0.0;
    /** Samples ranked above the tail (always kTailBeyond). */
    size_t beyond = 0;
    double mean = 0.0;
};

/**
 * Median plus the highest nearest-rank percentile that leaves
 * kTailBeyond samples ranked beyond it. Throws when the set is too small
 * for that tail to sit at or above the median.
 */
inline Summary
summarize(std::vector<double> samples)
{
    if (samples.size() < kMinLatencySamples)
        throw std::invalid_argument(
            "need at least " + std::to_string(kMinLatencySamples) +
            " samples for a tail with " + std::to_string(kTailBeyond) +
            " beyond it, got " + std::to_string(samples.size()));
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.n = samples.size();
    s.p50 = nearestRank(samples, 50.0);
    size_t rank = s.n - kTailBeyond;
    s.tail = samples[rank - 1];
    s.tailPercentile = 100.0 * double(rank) / double(s.n);
    s.beyond = s.n - rank;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    s.mean = sum / double(s.n);
    return s;
}

/** Median of a non-empty set (nearest rank). */
inline double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return nearestRank(samples, 50.0);
}

} // namespace perfbench

#endif // GCOD_PERFBENCH_STATS_HPP
