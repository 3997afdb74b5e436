/**
 * @file
 * The PES energy/QoS optimizer (paper Sec. 5.3).
 *
 * Translates a window of events — outstanding plus predicted — into the
 * Eqn. 2-5 scheduling problem (per-configuration latency from the Eqn.-1
 * estimate, per-configuration energy from the power table, chained
 * deadlines) and solves it with the specialized solver. An answer is
 * exact (the minimum-energy schedule of the lexicographic objective)
 * when its ScheduleSolution::thinnedPrunes is 0. PES windows stay under
 * the solver's frontier cap; long whole-trace Oracle chains can outgrow
 * it and thin. Deadline construction:
 *
 *   outstanding event: the last VSync at or before (arrival + QoS),
 *                      relative to the chain start "now";
 *   predicted event:   conservatively chained — it may arrive immediately
 *                      after its predecessor, so its deadline is
 *                      max(predecessor deadline, 0) + its QoS target.
 */

#ifndef PES_CORE_OPTIMIZER_HH
#define PES_CORE_OPTIMIZER_HH

#include <optional>
#include <vector>

#include "hw/dvfs_model.hh"
#include "hw/power_model.hh"
#include "solver/schedule_problem.hh"
#include "web/vsync.hh"

namespace pes {

/** One event of the optimization window. */
struct PlanEventSpec
{
    /** Estimated (or, for the oracle, true) workload. */
    Workload work;
    /** QoS target of the event. */
    TimeMs qosTarget = 300.0;
    /** Arrival time for outstanding events; unset for predicted ones. */
    std::optional<TimeMs> arrival;
    /**
     * Expected trigger time of a predicted event (from the scheduler's
     * inter-arrival model). When unset, the deadline falls back to the
     * conservative "may trigger immediately" chaining.
     */
    std::optional<TimeMs> expectedArrival;
};

/**
 * Builds and solves the global scheduling problem. planSchedule() fills
 * a problem the optimizer keeps, so one optimizer serves one thread, as
 * a DomAnalyzer does.
 */
class GlobalOptimizer
{
  public:
    /** The platform's switch-cost matrix is built here, once. */
    GlobalOptimizer(const DvfsLatencyModel &model, const PowerModel &power,
                    const VsyncClock &vsync);

    /**
     * Build the Eqn. 2-5 problem for a chain starting at @p now on
     * @p current_config (switch costs included), as a new copy.
     */
    ScheduleProblem buildProblem(TimeMs now,
                                 const AcmpConfig &current_config,
                                 const std::vector<PlanEventSpec> &events)
        const;

    /** Solve with the Pareto DP; see ParetoDpSolver for the objective. */
    ScheduleSolution solve(const ScheduleProblem &problem) const;

    /**
     * solve(buildProblem(...)), answer for answer, without the copy: the
     * kept problem's switch matrix stays and its event rows are
     * overwritten in place.
     */
    ScheduleSolution
    planSchedule(TimeMs now, const AcmpConfig &current_config,
                 const std::vector<PlanEventSpec> &events);

  private:
    /** Write the initial configuration and one row per event of
     *  @p events into @p problem; its switch matrix is left as is. */
    void fill(ScheduleProblem &problem, TimeMs now,
              const AcmpConfig &current_config,
              const std::vector<PlanEventSpec> &events) const;

    const DvfsLatencyModel *model_;
    const PowerModel *power_;
    const VsyncClock *vsync_;
    /** What planSchedule() solves: the platform's C x C switch costs,
     *  built once, and the last plan's event rows. */
    ScheduleProblem problem_;
    ParetoDpSolver solver_;
};

} // namespace pes

#endif // PES_CORE_OPTIMIZER_HH
