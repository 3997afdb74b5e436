#include "runner/metrics_aggregator.hh"

#include <algorithm>
#include <cmath>

namespace pes {

void
MetricsAggregator::add(const std::string &device, const std::string &app,
                       const std::string &scheduler,
                       const SessionStats &stats)
{
    CellAccum &acc = cells_[CellKey{device, app, scheduler}];
    acc.sessions += 1;
    acc.events += stats.events;
    acc.violations += stats.violations;
    acc.energy.add(stats.totalEnergyMj);
    acc.busyEnergy.add(stats.busyEnergyMj);
    acc.idleEnergy.add(stats.idleEnergyMj);
    acc.overheadEnergy.add(stats.overheadEnergyMj);
    acc.wasteEnergy.add(stats.wasteEnergyMj);
    acc.duration.add(stats.durationMs);
    acc.queueLength.add(stats.avgQueueLength);
    acc.maxLatencyMs = std::max(acc.maxLatencyMs, stats.maxLatencyMs);
    acc.latencyEventSum += stats.meanLatencyMs * stats.events;
    acc.sessionMeanLatency.add(stats.meanLatencyMs);
    acc.sessionP95Latency.add(stats.p95LatencyMs);
    acc.eventLatency.merge(stats.latencySketch);
    acc.predictionsMade += stats.predictionsMade;
    acc.predictionsCorrect += stats.predictionsCorrect;
    acc.mispredictions += stats.mispredictions;
    acc.mispredictWasteMs += stats.mispredictWasteMs;
    acc.fallbacks += stats.fellBackToReactive ? 1 : 0;
}

void
MetricsAggregator::addEventLatencySketch(const std::string &device,
                                         const std::string &app,
                                         const std::string &scheduler,
                                         const PercentileSketch &sketch)
{
    cells_[CellKey{device, app, scheduler}].eventLatency.merge(sketch);
}

int
MetricsAggregator::sessions() const
{
    int total = 0;
    for (const auto &[key, acc] : cells_)
        total += acc.sessions;
    return total;
}

long
MetricsAggregator::events() const
{
    long total = 0;
    for (const auto &[key, acc] : cells_)
        total += acc.events;
    return total;
}

CellSummary
MetricsAggregator::summarize(const CellKey &key, const CellAccum &acc) const
{
    CellSummary c;
    c.device = key.device;
    c.app = key.app;
    c.scheduler = key.scheduler;
    c.sessions = acc.sessions;
    c.events = acc.events;
    c.violations = acc.violations;
    c.violationRate = acc.events
        ? static_cast<double>(acc.violations) /
          static_cast<double>(acc.events)
        : 0.0;
    c.meanEnergyMj = acc.energy.mean();
    c.stddevEnergyMj = acc.energy.stddev();
    c.minEnergyMj = acc.energy.min();
    c.maxEnergyMj = acc.energy.max();
    c.meanBusyEnergyMj = acc.busyEnergy.mean();
    c.meanIdleEnergyMj = acc.idleEnergy.mean();
    c.meanOverheadEnergyMj = acc.overheadEnergy.mean();
    c.meanWasteEnergyMj = acc.wasteEnergy.mean();
    c.meanDurationMs = acc.duration.mean();
    c.maxLatencyMs = acc.maxLatencyMs;
    c.avgQueueLength = acc.queueLength.mean();
    c.meanLatencyMs = acc.events
        ? acc.latencyEventSum / static_cast<double>(acc.events)
        : 0.0;
    c.p50LatencyMs = acc.eventLatency.quantile(0.50);
    c.p95LatencyMs = acc.eventLatency.quantile(0.95);
    c.p99LatencyMs = acc.eventLatency.quantile(0.99);
    c.p50SessionLatencyMs = acc.sessionMeanLatency.quantile(0.50);
    c.p95SessionLatencyMs = acc.sessionP95Latency.quantile(0.95);
    c.predictionAccuracy = acc.predictionsMade
        ? static_cast<double>(acc.predictionsCorrect) /
          static_cast<double>(acc.predictionsMade)
        : 0.0;
    if (acc.sessions > 0) {
        c.mispredictsPerSession =
            static_cast<double>(acc.mispredictions) / acc.sessions;
        c.mispredictWasteMsPerSession = acc.mispredictWasteMs / acc.sessions;
        c.fallbackRate = static_cast<double>(acc.fallbacks) / acc.sessions;
    }
    return c;
}

std::vector<CellSummary>
MetricsAggregator::cells() const
{
    std::vector<CellSummary> out;
    out.reserve(cells_.size());
    for (const auto &[key, acc] : cells_)
        out.push_back(summarize(key, acc));
    return out;
}

CellSummary
MetricsAggregator::cell(const std::string &device, const std::string &app,
                        const std::string &scheduler) const
{
    const auto it = cells_.find(CellKey{device, app, scheduler});
    if (it == cells_.end())
        return CellSummary{};
    return summarize(it->first, it->second);
}

} // namespace pes
