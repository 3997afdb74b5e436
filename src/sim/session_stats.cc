#include "sim/session_stats.hh"

#include <algorithm>

namespace pes {

SessionStats
SessionStats::reduce(const SimResult &result)
{
    SessionAccumulator acc;
    for (const EventRecord &e : result.events)
        acc.add(e);
    return acc.finish(result);
}

void
SessionAccumulator::clear()
{
    violations_ = 0;
    latencySum_ = 0.0;
    maxLatency_ = 0.0;
    latencies_.clear();
}

void
SessionAccumulator::add(const EventRecord &event)
{
    const double lat = event.latency();
    violations_ += event.violated() ? 1 : 0;
    latencySum_ += lat;
    maxLatency_ = std::max(maxLatency_, lat);
    latencies_.add(lat);
}

SessionStats
SessionAccumulator::finish(const SimResult &session)
{
    SessionStats s;
    s.events = static_cast<int>(latencies_.count());
    s.violations = violations_;
    s.maxLatencyMs = maxLatency_;
    if (s.events > 0) {
        s.meanLatencyMs = latencySum_ / s.events;
        for (double lat : latencies_.samples())
            s.latencySketch.add(lat);
        s.p95LatencyMs = latencies_.percentile(95.0);
    }
    s.totalEnergyMj = session.totalEnergy;
    s.busyEnergyMj = session.busyEnergy;
    s.idleEnergyMj = session.idleEnergy;
    s.overheadEnergyMj = session.overheadEnergy;
    s.wasteEnergyMj = session.wasteEnergy;
    s.durationMs = session.duration;
    s.predictionsMade = session.predictionsMade;
    s.predictionsCorrect = session.predictionsCorrect;
    s.mispredictions = session.mispredictions;
    s.mispredictWasteMs = session.mispredictWasteMs;
    s.avgQueueLength = session.avgQueueLength;
    s.fellBackToReactive = session.fellBackToReactive;
    return s;
}

} // namespace pes
