#include "core/governors.hh"

#include <algorithm>

namespace pes {

std::optional<WorkItem>
SamplingGovernor::nextWork(SimulatorApi &api)
{
    const auto front = api.pendingQueue().front();
    if (!front)
        return std::nullopt;
    WorkItem item;
    item.kind = WorkItem::Kind::Real;
    item.traceIndex = front->traceIndex;
    item.config = api.currentConfig();
    return item;
}

double
SamplingGovernor::capacityOf(SimulatorApi &api, const AcmpConfig &cfg)
{
    return 1.0 / api.latencyModel().cycleCoeff(cfg);
}

AcmpConfig
SamplingGovernor::configForCapacity(SimulatorApi &api, double desired)
{
    const AcmpPlatform &platform = api.platform();
    if (capacityPlatform_ != &platform) {
        sortedCapacities_.clear();
        sortedCapacities_.reserve(
            static_cast<size_t>(platform.numConfigs()));
        for (int j = 0; j < platform.numConfigs(); ++j) {
            sortedCapacities_.emplace_back(
                capacityOf(api, platform.configAt(j)), j);
        }
        std::sort(sortedCapacities_.begin(), sortedCapacities_.end());
        capacityPlatform_ = &platform;
    }
    // A config qualifies when cap + 1e-9 >= desired; that predicate is
    // monotone in capacity, so the first qualifying entry of the sorted
    // table is the scan's winner (minimum capacity, then minimum index).
    const auto it = std::lower_bound(
        sortedCapacities_.begin(), sortedCapacities_.end(), desired,
        [](const std::pair<double, int> &entry, double want) {
            return entry.first + 1e-9 < want;
        });
    if (it == sortedCapacities_.end())
        return platform.maxConfig();
    return platform.configAt(it->second);
}

InteractiveGovernor::InteractiveGovernor()
    : InteractiveGovernor(Params{})
{
}

InteractiveGovernor::InteractiveGovernor(Params params)
    : params_(params)
{
}

std::optional<AcmpConfig>
InteractiveGovernor::onSampleTick(SimulatorApi &api,
                                  const ExecutionStatus &status)
{
    const double load = status.utilization;
    if (load >= params_.goHispeedLoad) {
        lastHighLoad_ = api.now();
        return api.platform().maxConfig();  // hispeed_freq
    }
    // Hold the current speed for min_sample_time after high load.
    if (api.now() - lastHighLoad_ < params_.minSampleTimeMs)
        return std::nullopt;
    // Scale capacity so that utilization lands at target_load.
    const double current = capacityOf(api, status.config);
    const double desired = current * load / params_.targetLoad;
    return configForCapacity(api, desired);
}

bool
InteractiveGovernor::idleTicksAreNoOps(SimulatorApi &api)
{
    // At load 0 a tick below hispeed and past the hold asks for
    // configForCapacity(0): a no-op once the platform sits there.
    return params_.goHispeedLoad > 0.0 &&
        api.now() - lastHighLoad_ >= params_.minSampleTimeMs &&
        api.currentConfig() == configForCapacity(api, 0.0);
}

OndemandGovernor::OndemandGovernor()
    : OndemandGovernor(Params{})
{
}

OndemandGovernor::OndemandGovernor(Params params)
    : params_(params)
{
}

std::optional<AcmpConfig>
OndemandGovernor::onSampleTick(SimulatorApi &api,
                               const ExecutionStatus &status)
{
    const double load = status.utilization;
    if (load > params_.upThreshold)
        return api.platform().maxConfig();
    const double current = capacityOf(api, status.config);
    const double desired = current * load / params_.upThreshold;
    return configForCapacity(api, desired);
}

bool
OndemandGovernor::idleTicksAreNoOps(SimulatorApi &api)
{
    // At load 0 (never above a non-negative up-threshold) a tick asks
    // for configForCapacity(0): a no-op once the platform sits there.
    return params_.upThreshold >= 0.0 &&
        api.currentConfig() == configForCapacity(api, 0.0);
}

} // namespace pes
