/**
 * @file
 * Reproduces paper Fig. 12: per-application QoS violation rates of
 * Interactive / EBS / PES (Oracle is zero by construction and therefore
 * omitted in the paper's figure; we print it as a sanity column).
 */

#include "bench/bench_common.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 12 - QoS violation rate (%)",
                "PES paper Fig. 12 (Sec. 6.4). Lower is better; Oracle "
                "must be 0.");

    DeviceContext device;

    const std::vector<SchedulerKind> kinds{
        SchedulerKind::Interactive, SchedulerKind::Ebs,
        SchedulerKind::Pes, SchedulerKind::Oracle};

    const std::string device_name = device.platform().name();

    Table table({"app", "set", "Interactive", "EBS", "PES", "Oracle"});
    double seen_pes = 0.0, seen_ebs = 0.0, seen_inter = 0.0;
    for (const bool seen : {true, false}) {
        const auto profiles = seen ? seenApps() : unseenApps();
        FleetConfig config = evaluationFleet(device, profiles, kinds);
        config.collectResults = false;
        const MetricsAggregator metrics =
            runComplete(std::move(config)).metrics;
        double pes_sum = 0, ebs_sum = 0, inter_sum = 0, oracle_sum = 0;
        for (const AppProfile &p : profiles) {
            const double inter =
                metrics.cell(device_name, p.name, "Interactive")
                    .violationRate;
            const double ebs =
                metrics.cell(device_name, p.name, "EBS").violationRate;
            const double pes =
                metrics.cell(device_name, p.name, "PES").violationRate;
            const double oracle =
                metrics.cell(device_name, p.name, "Oracle").violationRate;
            inter_sum += inter;
            ebs_sum += ebs;
            pes_sum += pes;
            oracle_sum += oracle;
            table.beginRow()
                .cell(p.name)
                .cell(std::string(seen ? "seen" : "unseen"))
                .cell(inter * 100.0, 1)
                .cell(ebs * 100.0, 1)
                .cell(pes * 100.0, 1)
                .cell(oracle * 100.0, 1);
        }
        const double n = static_cast<double>(profiles.size());
        table.beginRow()
            .cell(std::string(seen ? "avg.seen" : "avg.unseen"))
            .cell(std::string(seen ? "seen" : "unseen"))
            .cell(inter_sum / n * 100.0, 1)
            .cell(ebs_sum / n * 100.0, 1)
            .cell(pes_sum / n * 100.0, 1)
            .cell(oracle_sum / n * 100.0, 1);
        if (seen) {
            seen_pes = pes_sum / n;
            seen_ebs = ebs_sum / n;
            seen_inter = inter_sum / n;
        }
    }

    emitTable(table, "fig12_qos_violation.csv");
    std::cout << "Paper reference (seen): Interactive ~24.8%, EBS "
                 "~24.4%, PES ~7.5%.\n"
              << "Measured reduction of QoS violation: "
              << formatPercent(seen_inter > 0
                                   ? 1.0 - seen_pes / seen_inter : 0.0)
              << " vs Interactive, "
              << formatPercent(seen_ebs > 0 ? 1.0 - seen_pes / seen_ebs
                                            : 0.0)
              << " vs EBS.\n";
    return 0;
}
