#include "core/ebs_policy.hh"

#include <algorithm>
#include <cmath>

namespace pes {

namespace {

/** Conservative default workloads per interaction before any data. */
Workload
defaultWorkload(Interaction interaction)
{
    switch (interaction) {
      case Interaction::Load:
        return {300.0, 3500.0};
      case Interaction::Tap:
        return {5.0, 120.0};
      case Interaction::Move:
        return {1.0, 20.0};
    }
    return {5.0, 100.0};
}

} // namespace

EbsPolicy::EbsPolicy(const AcmpPlatform &platform, const PowerModel &power)
    : model_(platform), power_(&power), estimator_(model_)
{
}

void
EbsPolicy::recordMeasurement(uint64_t class_key, DomEventType type,
                             const AcmpConfig &config, TimeMs exec_ms)
{
    estimator_.record(class_key, config, exec_ms);
    const auto estimate = estimator_.estimate(class_key);
    if (estimate) {
        Prior &prior =
            priors_[static_cast<size_t>(interactionOf(type))];
        prior.tmem.add(estimate->tmemMs);
        prior.ndep.add(estimate->ndep);
    }
}

bool
EbsPolicy::hasEstimate(uint64_t class_key) const
{
    return estimator_.hasEstimate(class_key);
}

Workload
EbsPolicy::estimateWorkload(uint64_t class_key, DomEventType type) const
{
    const auto estimate = estimator_.estimate(class_key);
    if (estimate)
        return *estimate;

    const Interaction interaction = interactionOf(type);
    const Prior &prior = priors_[static_cast<size_t>(interaction)];

    // One measurement: split the observed latency into memory/compute
    // with the interaction prior's memory fraction (or a nominal 15%).
    const auto first = estimator_.firstMeasurement(class_key);
    if (first) {
        const auto [k, t] = *first;
        double mem_frac = 0.15;
        if (prior.tmem.count() > 0) {
            const Workload p{prior.tmem.mean(), prior.ndep.mean()};
            const TimeMs prior_total = p.tmemMs + k * p.ndep;
            if (prior_total > 1e-9)
                mem_frac = std::clamp(p.tmemMs / prior_total, 0.0, 0.9);
        }
        Workload one_point;
        one_point.tmemMs = mem_frac * t;
        one_point.ndep = (1.0 - mem_frac) * t / k;
        return one_point;
    }

    if (prior.tmem.count() > 0)
        return {prior.tmem.mean(), prior.ndep.mean()};
    return defaultWorkload(interaction);
}

AcmpConfig
EbsPolicy::chooseConfig(uint64_t class_key, DomEventType type,
                        TimeMs budget_ms) const
{
    // Measurement protocol (Sec. 5.3): an unknown event class runs at the
    // highest configuration (deadline-safe probe). The second encounter
    // schedules from the one-point estimate; since the energy-minimal
    // choice is virtually always a different operating point, the second
    // measurement lands at a different cycle coefficient and Eqn. 1
    // becomes identifiable. ensureDistinctCoefficient() guards the
    // degenerate case.
    const int count = estimator_.measurementCount(class_key);
    if (count == 0)
        return estimator_.probeConfig(class_key);
    AcmpConfig choice =
        chooseConfigFor(estimateWorkload(class_key, type), budget_ms);
    if (count == 1 && !estimator_.hasEstimate(class_key)) {
        const auto first = estimator_.firstMeasurement(class_key);
        const double k_choice = model_.cycleCoeff(choice);
        if (first && std::abs(first->first - k_choice) < 1e-12) {
            // Same coefficient as the probe: step one frequency down
            // (or up at the ladder floor) to make Eqn. 1 solvable.
            const ClusterSpec &spec =
                model_.platform().cluster(choice.core);
            choice.freq = choice.freq - spec.fstep >= spec.fmin
                ? choice.freq - spec.fstep
                : choice.freq + spec.fstep;
        }
    }
    return choice;
}

AcmpConfig
EbsPolicy::chooseConfigFor(const Workload &work, TimeMs budget_ms) const
{
    const AcmpPlatform &platform = model_.platform();
    int best = -1;
    EnergyMj best_energy = 0.0;
    for (int j = 0; j < platform.numConfigs(); ++j) {
        const TimeMs latency = model_.latencyAt(work, j);
        if (latency > budget_ms)
            continue;
        const EnergyMj energy =
            energyOf(power_->busyPowerAt(j), latency);
        if (best == -1 || energy < best_energy) {
            best = j;
            best_energy = energy;
        }
    }
    if (best == -1)
        return platform.maxConfig();
    return platform.configAt(best);
}

} // namespace pes
