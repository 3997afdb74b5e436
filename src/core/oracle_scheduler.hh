/**
 * @file
 * Oracle scheduler (paper Sec. 6.1).
 *
 * Has a priori knowledge of the entire event sequence — types, targets,
 * arrival times and true workloads — which is exactly what
 * SimulatorApi::fullTrace() exposes (to this driver only). It solves the
 * global Eqn. 2-5 problem once over the whole trace with true deadlines
 * (arrival + QoS, VSync-floored) and executes every event back-to-back
 * from t = 0 as "speculation" that always commits: an infinite prediction
 * degree with perfect accuracy. When that solve's
 * ScheduleSolution::thinnedPrunes is 0, the plan is the minimum-energy
 * schedule that meets every deadline. A long whole-trace chain can
 * outgrow the solver's frontier cap and thin (31 of the 180 chains of a
 * seed-1 sweep of 18 apps x 10 users do), and then the plan may use more
 * energy than the optimum. A feasible plan incurs zero QoS violations.
 */

#ifndef PES_CORE_ORACLE_SCHEDULER_HH
#define PES_CORE_ORACLE_SCHEDULER_HH

#include <unordered_map>
#include <vector>

#include "sim/scheduler_driver.hh"
#include "sim/simulator_api.hh"

namespace pes {

/**
 * The oracle driver.
 */
class OracleScheduler : public SchedulerDriver
{
  public:
    std::string name() const override { return "Oracle"; }

    // begin() rebuilds every member from the trace, so a pooled oracle
    // needs no explicit scrubbing between sessions.
    bool resetFresh() override { return true; }

    void begin(SimulatorApi &api) override;
    void onArrival(SimulatorApi &api, int trace_index) override;
    std::optional<WorkItem> nextWork(SimulatorApi &api) override;
    void onWorkFinished(SimulatorApi &api,
                        const CompletedWork &work) override;

    /** Planned configuration per event (diagnostics). */
    const std::vector<int> &plannedConfigs() const { return configs_; }

  private:
    std::vector<int> configs_;
    int nextToDispatch_ = 0;
    /** Finished frames by position. */
    std::unordered_map<int, uint64_t> framesByPosition_;
    /** Position of the in-flight item; -1 when idle. */
    int inflightPosition_ = -1;
    bool inflightAdopted_ = false;
};

} // namespace pes

#endif // PES_CORE_ORACLE_SCHEDULER_HH
