/**
 * @file
 * Reproduces paper Fig. 13: Pareto analysis of all scheduling schemes —
 * normalized energy vs QoS violation, aggregated over the 12 seen
 * applications, including the Ondemand governor. PES must
 * Pareto-dominate every other non-oracle scheme.
 */

#include "bench/bench_common.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 13 - Pareto analysis (energy vs QoS violation)",
                "PES paper Fig. 13 (Sec. 6.4), aggregated over the 12 "
                "seen apps.");

    DeviceContext device;

    const std::vector<SchedulerKind> kinds{
        SchedulerKind::Interactive, SchedulerKind::Ondemand,
        SchedulerKind::Ebs, SchedulerKind::Pes, SchedulerKind::Oracle};

    const auto profiles = seenApps();
    const ResultSet rs =
        runComplete(evaluationFleet(device, profiles, kinds)).results;
    const auto apps = namesOf(profiles);

    Table table({"scheduler", "norm_energy_pct", "qos_violation_pct"});
    struct Point
    {
        std::string name;
        double energy;
        double violation;
    };
    std::vector<Point> points;
    for (const char *name :
         {"Interactive", "Ondemand", "EBS", "PES", "Oracle"}) {
        const double energy =
            rs.meanNormalizedEnergy(apps, name, "Interactive") * 100.0;
        const double violation =
            rs.summarizeScheduler(name).violationRate * 100.0;
        points.push_back({name, energy, violation});
        table.beginRow().cell(std::string(name)).cell(energy, 1)
            .cell(violation, 1);
    }
    emitTable(table, "fig13_pareto.csv");

    // Dominance check: no non-oracle scheme may beat PES on both axes.
    const Point &pes = points[3];
    bool dominated = false;
    for (size_t i = 0; i + 2 < points.size(); ++i) {
        if (points[i].energy < pes.energy &&
            points[i].violation < pes.violation) {
            dominated = true;
        }
    }
    std::cout << (dominated
                      ? "WARNING: PES is dominated by a baseline.\n"
                      : "PES Pareto-dominates all non-oracle schemes "
                        "(paper's headline claim).\n");
    return 0;
}
