/**
 * @file
 * Lightweight statistics helpers used by metrics aggregation and benches.
 */

#ifndef PES_UTIL_STATS_HH
#define PES_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace pes {

/**
 * Streaming mean/variance/min/max (Welford's algorithm).
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Number of observations so far. */
    size_t count() const { return n_; }
    /** Arithmetic mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Unbiased sample variance (0 with fewer than two samples). */
    double variance() const;
    /** Sample standard deviation. */
    double stddev() const;
    /** Minimum (0 when empty). */
    double min() const { return n_ ? min_ : 0.0; }
    /** Maximum (0 when empty). */
    double max() const { return n_ ? max_ : 0.0; }
    /** Sum of all observations. */
    double sum() const { return sum_; }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Collects raw samples for exact percentile queries. Intended for the modest
 * sample counts of this project (thousands, not billions).
 */
class SampleSet
{
  public:
    /** Add one observation. */
    void add(double x) { xs_.push_back(x); sorted_ = false; }
    /** Drop every sample, keeping the buffer's capacity. */
    void clear() { xs_.clear(); sorted_ = false; }

    /** Number of samples. */
    size_t count() const { return xs_.size(); }
    /** Mean of samples (0 when empty). */
    double mean() const;
    /**
     * Linear-interpolated percentile, @p p in [0, 100].
     * Returns 0 when empty.
     */
    double percentile(double p) const;
    /** Shorthand for percentile(50). */
    double median() const { return percentile(50.0); }
    /** All samples in insertion order. */
    const std::vector<double> &samples() const { return xs_; }

  private:
    mutable std::vector<double> xs_;
    mutable bool sorted_ = false;
};

/**
 * Fixed-bin histogram over [lo, hi). Out-of-range samples clamp into the
 * first/last bin so no sample is silently dropped.
 */
class Histogram
{
  public:
    /** Create @p bins equal-width bins spanning [lo, hi). Requires lo < hi. */
    Histogram(double lo, double hi, size_t bins);

    /** Add one observation. */
    void add(double x);

    /** Count in bin @p i. */
    size_t binCount(size_t i) const { return counts_[i]; }
    /** Inclusive lower edge of bin @p i. */
    double binLo(size_t i) const;
    /** Number of bins. */
    size_t bins() const { return counts_.size(); }
    /** Total number of samples. */
    size_t total() const { return total_; }

  private:
    double lo_;
    double hi_;
    std::vector<size_t> counts_;
    size_t total_ = 0;
};

/** Geometric mean of a vector of positive values (0 if empty). */
double geomean(const std::vector<double> &xs);

} // namespace pes

#endif // PES_UTIL_STATS_HH
