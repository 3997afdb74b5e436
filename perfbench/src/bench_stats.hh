/**
 * @file
 * Summary statistics the benchmark reports for every timing series.
 *
 * A timing is reported as its median and its tail: the highest
 * percentile that still has at least kTailBeyond samples above it, so a
 * tail is never a single outlier. The tail carries the sample count it
 * was taken from.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <cstddef>
#include <vector>

#include "util/psketch.hh"

namespace perfbench {

/** Samples that must lie beyond a reported tail percentile. */
constexpr size_t kTailBeyond = 10;

/** A tail value with the percentile it sits at and the sample count. */
struct TailStat
{
    double value = 0.0;
    /** Nearest-rank percentile of @c value (0 when n == 0). */
    double percentile = 0.0;
    size_t n = 0;
    /** False when n <= kTailBeyond: no percentile has enough samples
     *  beyond it, and @c value falls back to the median. */
    bool qualified = false;
};

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> samples);

/**
 * The sample with n / 10 (rounded down) samples above it: the 90th
 * percentile from ten samples up, the largest below ten; 0 when empty.
 * The benchmark's rate over repeats, and (as lowerDecile) its set-up
 * time: a shared host only ever slows a repeat down, for seconds at a
 * time, so the fast end of the repeats tracks the program while their
 * median also tracks the neighbours.
 */
double upperDecile(std::vector<double> samples);

/** The sample with n / 10 (rounded down) samples below it; 0 when
 *  empty. The fast end of a series of times (see upperDecile). */
double lowerDecile(std::vector<double> samples);

/**
 * The highest nearest-rank percentile with at least kTailBeyond samples
 * beyond it: the sorted sample at index n - kTailBeyond - 1, which is
 * percentile 100 * (n - kTailBeyond) / n.
 */
TailStat tail(std::vector<double> samples);

/** median() of the values folded into @p sketch (sketch accuracy). */
double median(const pes::PercentileSketch &sketch);

/** tail() of the values folded into @p sketch (sketch accuracy), for
 *  series too long to keep every sample. */
TailStat tail(const pes::PercentileSketch &sketch);

/** Sum of @p samples. */
double sum(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
