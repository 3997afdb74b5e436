/**
 * @file
 * Extending the library: writing a custom scheduler.
 *
 * The RuntimeSimulator accepts any SchedulerDriver. This example
 * implements "RaceToIdle" — a deliberately simple policy that runs every
 * event at the highest configuration the moment it arrives (race to
 * sleep) — and pits it against the built-in schedulers on the standard
 * evaluation. It is a ~30-line scheduler: a good template for research
 * on new policies.
 *
 * Run: ./build/examples/custom_scheduler
 */

#include <iostream>
#include <memory>
#include <vector>

#include "core/device_context.hh"
#include "sim/metrics.hh"
#include "sim/scheduler_driver.hh"
#include "sim/simulator_api.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pes;

namespace {

/**
 * Race-to-idle: maximum performance for every event, no QoS awareness,
 * no speculation. Energy-suboptimal but a latency upper bound among
 * reactive policies.
 */
class RaceToIdleScheduler : public SchedulerDriver
{
  public:
    std::string name() const override { return "RaceToIdle"; }

    std::optional<WorkItem>
    nextWork(SimulatorApi &api) override
    {
        const auto front = api.pendingQueue().front();
        if (!front)
            return std::nullopt;
        WorkItem item;
        item.kind = WorkItem::Kind::Real;
        item.traceIndex = front->traceIndex;
        item.config = api.platform().maxConfig();
        return item;
    }
};

} // namespace

int
main()
{
    setQuiet(true);
    DeviceContext device;
    device.model();

    // The paper's evaluation protocol: each app's evaluation traces, in
    // order, on one driver per (app, scheduler).
    ResultSet rs;
    for (const char *app : {"cnn", "ebay", "twitter"}) {
        const AppProfile &p = appByName(app);
        const auto traces = device.generator().evaluationSet(
            p, TraceGenerator::kEvalTracesPerApp);
        std::vector<std::unique_ptr<SchedulerDriver>> drivers;
        drivers.push_back(std::make_unique<RaceToIdleScheduler>());
        for (SchedulerKind kind :
             {SchedulerKind::Interactive, SchedulerKind::Ebs,
              SchedulerKind::Pes})
            drivers.push_back(device.makeDriver(kind));
        for (const auto &driver : drivers) {
            for (const InteractionTrace &trace : traces)
                rs.add(device.replay(p, trace, *driver));
        }
    }

    const auto apps = rs.apps();
    Table table({"scheduler", "norm_energy_pct", "qos_violation_pct",
                 "mean_latency_ms"});
    for (const char *name :
         {"RaceToIdle", "Interactive", "EBS", "PES"}) {
        const GroupSummary s = rs.summarizeScheduler(name);
        table.beginRow()
            .cell(std::string(name))
            .cell(rs.meanNormalizedEnergy(apps, name, "RaceToIdle") *
                      100.0, 1)
            .cell(s.violationRate * 100.0, 1)
            .cell(s.meanLatency, 1);
    }
    table.print(std::cout);

    std::cout <<
        "\nRaceToIdle is the latency floor among reactive policies but "
        "pays for it in\nenergy; PES beats it on both axes by starting "
        "work before events arrive.\n"
        "To write your own policy, subclass SchedulerDriver (see "
        "sim/scheduler_driver.hh):\n"
        "  - nextWork() picks the next work item when the main thread "
        "goes idle;\n"
        "  - onArrival()/onWorkFinished() observe events;\n"
        "  - onSampleTick() supports governor-style policies;\n"
        "  - the speculation verbs on SimulatorApi enable proactive "
        "policies.\n";
    return 0;
}
