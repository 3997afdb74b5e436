#include "bench_stats.hh"

#include <algorithm>
#include <numeric>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const size_t n = samples.size();
    const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    if (n % 2 == 1)
        return *mid;
    const double upper = *mid;
    const double lower = *std::max_element(samples.begin(), mid);
    return (lower + upper) / 2.0;
}

double
upperDecile(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const size_t n = samples.size();
    const auto at =
        samples.begin() + static_cast<std::ptrdiff_t>(n - 1 - n / 10);
    std::nth_element(samples.begin(), at, samples.end());
    return *at;
}

double
lowerDecile(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const auto at =
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 10);
    std::nth_element(samples.begin(), at, samples.end());
    return *at;
}

TailStat
tail(std::vector<double> samples)
{
    TailStat t;
    t.n = samples.size();
    if (t.n <= kTailBeyond) {
        t.value = median(std::move(samples));
        t.percentile = t.n > 0 ? 50.0 : 0.0;
        return t;
    }
    std::sort(samples.begin(), samples.end());
    const size_t index = t.n - kTailBeyond - 1;
    t.value = samples[index];
    t.percentile = 100.0 * static_cast<double>(index + 1) /
        static_cast<double>(t.n);
    t.qualified = true;
    return t;
}

double
median(const pes::PercentileSketch &sketch)
{
    return sketch.quantile(0.5);
}

TailStat
tail(const pes::PercentileSketch &sketch)
{
    TailStat t;
    t.n = sketch.count();
    if (t.n <= kTailBeyond) {
        t.value = sketch.quantile(0.5);
        t.percentile = t.n > 0 ? 50.0 : 0.0;
        return t;
    }
    // The sketch ranks from 0 to n - 1; aim at index n - kTailBeyond - 1.
    const double last = static_cast<double>(t.n - 1);
    t.value = sketch.quantile((last - static_cast<double>(kTailBeyond)) /
                              last);
    t.percentile = 100.0 * static_cast<double>(t.n - kTailBeyond) /
        static_cast<double>(t.n);
    t.qualified = true;
    return t;
}

double
sum(const std::vector<double> &samples)
{
    return std::accumulate(samples.begin(), samples.end(), 0.0);
}

} // namespace perfbench
