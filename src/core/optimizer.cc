#include "core/optimizer.hh"

#include <algorithm>
#include <cmath>

namespace pes {

GlobalOptimizer::GlobalOptimizer(const DvfsLatencyModel &model,
                                 const PowerModel &power,
                                 const VsyncClock &vsync)
    : model_(&model), power_(&power), vsync_(&vsync)
{
    const AcmpPlatform &platform = model_->platform();
    const size_t c = static_cast<size_t>(platform.numConfigs());
    std::vector<std::vector<TimeMs>> &switch_cost = problem_.switchCost;
    switch_cost.assign(c, std::vector<TimeMs>(c, 0.0));
    for (size_t a = 0; a < c; ++a) {
        for (size_t b = 0; b < c; ++b) {
            switch_cost[a][b] = platform.switchCost(
                platform.configAt(static_cast<int>(a)),
                platform.configAt(static_cast<int>(b)));
        }
    }
}

void
GlobalOptimizer::fill(ScheduleProblem &problem, TimeMs now,
                      const AcmpConfig &current_config,
                      const std::vector<PlanEventSpec> &events) const
{
    const AcmpPlatform &platform = model_->platform();
    const size_t c = static_cast<size_t>(platform.numConfigs());
    problem.initialConfig = platform.configIndex(current_config);
    problem.events.resize(events.size());

    const TimeMs period = vsync_->periodMs();
    TimeMs prev_deadline = 0.0;
    for (size_t i = 0; i < events.size(); ++i) {
        const PlanEventSpec &spec = events[i];
        ScheduleEvent &ev = problem.events[i];
        ev.latency.resize(c);
        ev.energy.resize(c);
        for (size_t j = 0; j < c; ++j) {
            const TimeMs latency =
                model_->latencyAt(spec.work, static_cast<int>(j));
            ev.latency[j] = latency;
            ev.energy[j] = energyOf(
                power_->busyPowerAt(static_cast<int>(j)), latency);
        }
        if (spec.arrival) {
            // Outstanding: display-floor of arrival + QoS.
            const TimeMs display_deadline =
                std::floor((*spec.arrival + spec.qosTarget) / period) *
                period;
            ev.deadline = display_deadline - now;
        } else if (spec.expectedArrival) {
            // Predicted with an inter-arrival model: the frame must be
            // displayable by (expected trigger + QoS). Never looser than
            // preserving chain order, never tighter than the
            // conservative bound.
            const TimeMs display_deadline =
                std::floor((*spec.expectedArrival + spec.qosTarget) /
                           period) * period;
            ev.deadline = std::max(display_deadline - now,
                                   std::max(prev_deadline, 0.0) +
                                       spec.qosTarget);
        } else {
            // Predicted: conservative chaining (may trigger immediately).
            ev.deadline = std::max(prev_deadline, 0.0) + spec.qosTarget;
        }
        prev_deadline = ev.deadline;
    }
}

ScheduleProblem
GlobalOptimizer::buildProblem(TimeMs now, const AcmpConfig &current_config,
                              const std::vector<PlanEventSpec> &events)
    const
{
    ScheduleProblem problem;
    problem.switchCost = problem_.switchCost;
    fill(problem, now, current_config, events);
    return problem;
}

ScheduleSolution
GlobalOptimizer::solve(const ScheduleProblem &problem) const
{
    return solver_.solve(problem);
}

ScheduleSolution
GlobalOptimizer::planSchedule(TimeMs now, const AcmpConfig &current_config,
                              const std::vector<PlanEventSpec> &events)
{
    fill(problem_, now, current_config, events);
    return solve(problem_);
}

} // namespace pes
