#include "sim/classifier.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pes {

const char *
eventCategoryName(EventCategory category)
{
    switch (category) {
      case EventCategory::TypeI:
        return "Type I";
      case EventCategory::TypeII:
        return "Type II";
      case EventCategory::TypeIII:
        return "Type III";
      case EventCategory::TypeIV:
        return "Type IV";
    }
    panic("eventCategoryName: invalid category");
}

int
CategoryDistribution::total() const
{
    int sum = 0;
    for (int c : counts)
        sum += c;
    return sum;
}

double
CategoryDistribution::fraction(EventCategory category) const
{
    const int sum = total();
    if (sum == 0)
        return 0.0;
    return static_cast<double>(
               counts[static_cast<size_t>(category)]) /
        static_cast<double>(sum);
}

void
CategoryDistribution::merge(const CategoryDistribution &other)
{
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
}

EventClassifier::EventClassifier(const AcmpPlatform &platform,
                                 const PowerModel &power)
    : platform_(&platform), power_(&power), latencyModel_(platform)
{
}

bool
EventClassifier::isolatedMeets(const TraceEvent &event,
                               int config_index) const
{
    const TimeMs latency = latencyModel_.latencyAt(event.totalWork(),
                                                   config_index);
    const TimeMs displayed = vsync_.nextVsyncAt(event.arrival + latency);
    return displayed - event.arrival <= event.qosTarget() + 1e-9;
}

int
EventClassifier::minimalIsolatedConfig(const TraceEvent &event) const
{
    int best = -1;
    EnergyMj best_energy = 0.0;
    for (int j = 0; j < platform_->numConfigs(); ++j) {
        if (!isolatedMeets(event, j))
            continue;
        const EnergyMj energy = energyOf(
            power_->busyPowerAt(j),
            latencyModel_.latencyAt(event.totalWork(), j));
        if (best == -1 || energy < best_energy) {
            best = j;
            best_energy = energy;
        }
    }
    return best;
}

EventCategory
EventClassifier::classify(const TraceEvent &event,
                          const EventRecord &record) const
{
    const int minimal = minimalIsolatedConfig(event);
    if (record.violated())
        return minimal == -1 ? EventCategory::TypeI : EventCategory::TypeII;

    if (minimal == -1) {
        // Met QoS although no isolated configuration could have: only
        // possible with pre-arrival work; benign from the reactive
        // scheduler's perspective.
        return EventCategory::TypeIV;
    }

    // Met the deadline: did it need more energy than the isolated
    // minimum (interference forced over-provisioning)?
    const EnergyMj minimal_energy = energyOf(
        power_->busyPowerAt(minimal),
        latencyModel_.latencyAt(event.totalWork(), minimal));
    if (record.busyEnergy > minimal_energy * 1.05 + 1e-9)
        return EventCategory::TypeIII;
    return EventCategory::TypeIV;
}

CategoryDistribution
EventClassifier::classifyRun(const InteractionTrace &trace,
                             const SimResult &result) const
{
    panic_if(trace.events.size() != result.events.size(),
             "classifyRun: trace/result size mismatch");
    CategoryDistribution dist;
    for (size_t i = 0; i < trace.events.size(); ++i) {
        const EventCategory cat =
            classify(trace.events[i], result.events[i]);
        ++dist.counts[static_cast<size_t>(cat)];
    }
    return dist;
}

} // namespace pes
