/**
 * @file
 * Reproduces paper Fig. 14: sensitivity of PES to the prediction
 * confidence threshold (30%..100%), normalized to EBS. The paper finds
 * the benefit flat from 70% down (mispredict penalties offset the larger
 * window) and degrading toward 100% (prediction effectively disabled).
 */

#include "bench/bench_common.hh"
#include "core/pes_scheduler.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 14 - Confidence-threshold sensitivity",
                "PES paper Fig. 14 (Sec. 6.5); normalized to EBS.");

    DeviceContext device;

    // Subset of seen apps keeps the sweep brisk while spanning behaviour
    // (bursty, shoppy, newsy, searchy).
    std::vector<AppProfile> profiles;
    for (const char *name :
         {"cnn", "ebay", "twitter", "google", "espn", "sina"})
        profiles.push_back(appByName(name));

    // EBS baselines per app, over a widened trace sample (the paper's
    // three traces per app leave the threshold sweep noisy).
    constexpr int kTraces = 6;
    FleetConfig ebs_fleet =
        evaluationFleet(device, profiles, {SchedulerKind::Ebs});
    ebs_fleet.users = kTraces;
    const ResultSet ebs_rs = runComplete(std::move(ebs_fleet)).results;

    Table table({"confidence_threshold_pct", "norm_energy_vs_ebs_pct",
                 "qos_violation_reduction_vs_ebs_pct",
                 "mean_prediction_degree"});
    for (const double threshold :
         {0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00}) {
        ResultSet rs;
        double degree_sum = 0.0;
        long degree_n = 0;
        for (const AppProfile &p : profiles) {
            PesScheduler::Config config;
            config.predictor.confidenceThreshold = threshold;
            PesScheduler pes(device.model(), config);
            for (const auto &trace :
                 device.generator().evaluationSet(p, kTraces))
                rs.add(device.replay(p, trace, pes));
        }
        for (const SimResult &r : rs.results()) {
            for (int d : r.predictionDegrees) {
                degree_sum += d;
                ++degree_n;
            }
        }

        double energy_ratio = 0.0;
        double violation_reduction = 0.0;
        for (const AppProfile &p : profiles) {
            const double pes_e = rs.summarize(p.name, "PES").meanEnergy;
            const double ebs_e =
                ebs_rs.summarize(p.name, "EBS").meanEnergy;
            energy_ratio += ebs_e > 0 ? pes_e / ebs_e : 1.0;
            const double pes_v =
                rs.summarize(p.name, "PES").violationRate;
            const double ebs_v =
                ebs_rs.summarize(p.name, "EBS").violationRate;
            violation_reduction += ebs_v > 0
                ? (ebs_v - pes_v) / ebs_v : 0.0;
        }
        const double n = static_cast<double>(profiles.size());
        table.beginRow()
            .cell(threshold * 100.0, 0)
            .cell(energy_ratio / n * 100.0, 1)
            .cell(violation_reduction / n * 100.0, 1)
            .cell(degree_n ? degree_sum / degree_n : 0.0, 2);
    }

    emitTable(table, "fig14_sensitivity.csv");
    std::cout <<
        "Paper shape: flat benefit from ~70% threshold downward, "
        "shrinking window (and benefit) toward 100%.\n"
        "The paper picks 70% (prediction degree ~5).\n";
    return 0;
}
