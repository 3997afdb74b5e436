/**
 * @file
 * End-to-end integration tests: the full pipeline (DOM synthesis ->
 * trace generation -> predictor training -> replay under every
 * scheduler) and the cross-scheduler invariants the paper's evaluation
 * rests on.
 */

#include <gtest/gtest.h>

#include "core/device_context.hh"
#include "core/pes_scheduler.hh"
#include "core/predictor_training.hh"
#include "runner/fleet_runner.hh"
#include "sim/classifier.hh"
#include "util/logging.hh"

namespace pes {
namespace {

/** Shared device: train once for the whole test binary. */
DeviceContext &
trainedDevice()
{
    static DeviceContext device;
    setQuiet(true);
    device.model();  // trains on the first call only
    return device;
}

/** The Sec.-6.1 evaluation of @p apps under @p schedulers (a fleet). */
ResultSet
evaluate(DeviceContext &device, const std::string &apps,
         const std::string &schedulers)
{
    return runComplete(evaluationFleet(device, parseAppList(apps),
                                       parseSchedulerList(schedulers)))
        .results;
}

TEST(Integration, TrainedPredictorAccuracyBands)
{
    // Paper Fig. 8: ~91% on seen apps, ~89% on unseen, with apps ranging
    // roughly 80..97%. Verified on a subset for test speed.
    DeviceContext &device = trainedDevice();
    const LogisticModel &model = device.model();
    double sum = 0.0;
    int n = 0;
    for (const char *name : {"cnn", "ebay", "espn", "tmall", "yahoo"}) {
        const AppProfile &profile = appByName(name);
        const WebApp &app = device.generator().appFor(profile);
        for (const auto &trace :
             device.generator().evaluationSet(profile, 2)) {
            const PredictorEval eval =
                evaluatePredictor(model, app, trace);
            sum += eval.accuracy();
            ++n;
        }
    }
    const double mean = sum / n;
    EXPECT_GT(mean, 0.82);
    EXPECT_LT(mean, 1.0);
}

TEST(Integration, DomAnalysisAblationCostsAccuracy)
{
    // Sec. 6.5: without DOM analysis the predictor cannot roll the
    // hypothetical state through predicted events (no SemanticTree), so
    // the *runtime* (multi-step) prediction accuracy drops.
    DeviceContext &device = trainedDevice();
    PesScheduler::Config without;
    without.predictor.useDomAnalysis = false;
    without.nameOverride = "PES-noDOM";

    const std::string apps = "cnn,ebay,twitter,google";
    ResultSet rs = evaluate(device, apps, "pes");
    for (const AppProfile &profile : parseAppList(apps)) {
        PesScheduler without_driver(device.model(), without);
        for (const InteractionTrace &trace : device.generator().evaluationSet(
                 profile, TraceGenerator::kEvalTracesPerApp))
            rs.add(device.replay(profile, trace, without_driver));
    }
    const double acc_with =
        rs.summarizeScheduler("PES").predictionAccuracy;
    const double acc_without =
        rs.summarizeScheduler("PES-noDOM").predictionAccuracy;
    EXPECT_GT(acc_with, acc_without);
}

TEST(Integration, QueueLengthsStaySmall)
{
    // Sec. 4.2: "the average event queue length is below 2" — humans
    // generate interactions slowly. Holds on aggregate (the burstiest
    // app can exceed it on individual traces).
    const ResultSet rs =
        evaluate(trainedDevice(), "cnn,twitter,google", "ebs");
    EXPECT_LT(rs.summarizeScheduler("EBS").avgQueueLength, 2.0);
    for (const SimResult &r : rs.results())
        EXPECT_LT(r.avgQueueLength, 3.0) << r.appName;
}

TEST(Integration, EventTypeDistributionUnderEbs)
{
    // Fig. 3's structure: all four categories appear; Type IV dominates;
    // a meaningful share of events is non-benign.
    DeviceContext &device = trainedDevice();
    EventClassifier classifier(device.platform(), device.power());
    CategoryDistribution dist;
    for (const char *name : {"cnn", "youtube", "twitter", "google"}) {
        const AppProfile &profile = appByName(name);
        const auto driver = device.makeDriver(SchedulerKind::Ebs);
        for (const auto &trace :
             device.generator().evaluationSet(profile, 2)) {
            const SimResult r = device.replay(profile, trace, *driver);
            dist.merge(classifier.classifyRun(trace, r));
        }
    }
    EXPECT_GT(dist.fraction(EventCategory::TypeIV), 0.5);
    const double non_benign = 1.0 - dist.fraction(EventCategory::TypeIV);
    EXPECT_GT(non_benign, 0.05);
    EXPECT_GT(dist.counts[static_cast<size_t>(EventCategory::TypeI)] +
                  dist.counts[static_cast<size_t>(EventCategory::TypeII)],
              0);
}

TEST(Integration, ParetoDominanceOfPes)
{
    // Fig. 13: PES must Pareto-dominate EBS (less energy, fewer
    // violations) and beat the governors on both axes.
    const ResultSet rs = evaluate(trainedDevice(), "cnn,ebay,twitter,google",
                                  "interactive,ondemand,ebs,pes");
    const auto apps = rs.apps();
    const double pes_energy =
        rs.meanNormalizedEnergy(apps, "PES", "Interactive");
    const double ebs_energy =
        rs.meanNormalizedEnergy(apps, "EBS", "Interactive");
    const double pes_viol = rs.summarizeScheduler("PES").violationRate;
    const double ebs_viol = rs.summarizeScheduler("EBS").violationRate;
    const double interactive_viol =
        rs.summarizeScheduler("Interactive").violationRate;

    EXPECT_LT(pes_energy, ebs_energy);
    EXPECT_LT(pes_viol, ebs_viol);
    EXPECT_LT(pes_viol, interactive_viol);
}

TEST(Integration, PaperClaimsHoldInEveryCellOfAFleet)
{
    // The paper's qualitative claims, per (app, scheduler) cell of one
    // fixed fleet: every paper app x 3 users, seed 1, all five
    // schedulers. Oracle meets every QoS target and spends no more than
    // PES (Sec. 6.1's upper bound on savings), EBS spends no more than
    // Interactive, PES violates no more often than EBS or Interactive
    // (Fig. 12), PES predicts at least 80% of its events right (the Fig. 8
    // band; fig08's lowest app reads 81.4%), and every cell's energy closes.
    // Averaged over the apps, energy orders Interactive > EBS > PES >
    // Oracle (Fig. 11's shape) and PES's prediction accuracy is at least
    // 90% (0.964 here, the lowest cell 0.821).
    DeviceContext &device = trainedDevice();
    FleetConfig config;
    config.devices = {device.platform()};
    config.apps = appRegistry();
    config.schedulers =
        parseSchedulerList("interactive,ondemand,ebs,pes,oracle");
    config.users = 3;
    config.threads = 4;
    config.baseSeed = 1;
    config.pretrainedModel = &device.model();
    config.pretrainedModelDevice = device.platform().name();
    const MetricsAggregator metrics = runComplete(config).metrics;
    ASSERT_EQ(metrics.cells().size(), config.apps.size() * 5);

    const std::string soc = device.platform().name();
    double interactive_energy = 0.0;
    double ebs_energy = 0.0;
    double pes_energy = 0.0;
    double oracle_energy = 0.0;
    double pes_accuracy = 0.0;
    for (const AppProfile &app : config.apps) {
        SCOPED_TRACE(app.name);
        const CellSummary oracle = metrics.cell(soc, app.name, "Oracle");
        const CellSummary pes = metrics.cell(soc, app.name, "PES");
        const CellSummary ebs = metrics.cell(soc, app.name, "EBS");
        const CellSummary interactive =
            metrics.cell(soc, app.name, "Interactive");
        EXPECT_EQ(oracle.violations, 0);
        EXPECT_LE(oracle.meanEnergyMj, pes.meanEnergyMj);
        EXPECT_LE(ebs.meanEnergyMj, interactive.meanEnergyMj);
        EXPECT_LE(pes.violationRate, ebs.violationRate);
        EXPECT_LE(pes.violationRate, interactive.violationRate);
        EXPECT_GE(pes.predictionAccuracy, 0.80);
        pes_accuracy += pes.predictionAccuracy;
        interactive_energy += interactive.meanEnergyMj;
        ebs_energy += ebs.meanEnergyMj;
        pes_energy += pes.meanEnergyMj;
        oracle_energy += oracle.meanEnergyMj;
    }
    // Sums over the same apps order as their means do.
    EXPECT_GT(interactive_energy, ebs_energy);
    EXPECT_GT(ebs_energy, pes_energy);
    EXPECT_GT(pes_energy, oracle_energy);
    EXPECT_GE(pes_accuracy / config.apps.size(), 0.90);
    for (const CellSummary &cell : metrics.cells()) {
        SCOPED_TRACE(cell.app + " / " + cell.scheduler);
        EXPECT_EQ(cell.sessions, config.users);
        const double parts = cell.meanBusyEnergyMj + cell.meanIdleEnergyMj +
            cell.meanOverheadEnergyMj + cell.meanWasteEnergyMj;
        EXPECT_NEAR(parts, cell.meanEnergyMj, 1e-9 * cell.meanEnergyMj);
    }
}

TEST(Integration, MispredictWasteIsSmallAmortized)
{
    // Sec. 6.3: waste amortizes to a few ms per event and a small
    // fraction of total energy.
    const ResultSet rs = evaluate(trainedDevice(), "cnn,ebay,google", "pes");
    for (const SimResult &r : rs.results()) {
        const double waste_fraction =
            r.totalEnergy > 0.0 ? r.wasteEnergy / r.totalEnergy : 0.0;
        EXPECT_LT(waste_fraction, 0.15) << r.appName;
    }
}

TEST(Integration, DeterministicEndToEnd)
{
    // Same seeds, fresh harness -> identical results (the property every
    // figure bench relies on).
    setQuiet(true);
    DeviceContext a, b;
    const AppProfile &profile = appByName("bbc");
    const auto trace_a = a.generator().evaluationSet(profile, 1).front();
    const auto trace_b = b.generator().evaluationSet(profile, 1).front();
    ASSERT_EQ(trace_a.serialize(), trace_b.serialize());

    a.model();
    b.model();
    const SimResult ra =
        a.replay(profile, trace_a, *a.makeDriver(SchedulerKind::Pes));
    const SimResult rb =
        b.replay(profile, trace_b, *b.makeDriver(SchedulerKind::Pes));
    EXPECT_DOUBLE_EQ(ra.totalEnergy, rb.totalEnergy);
    EXPECT_EQ(ra.predictionsMade, rb.predictionsMade);
    ASSERT_EQ(ra.events.size(), rb.events.size());
    for (size_t i = 0; i < ra.events.size(); ++i)
        EXPECT_DOUBLE_EQ(ra.events[i].displayed, rb.events[i].displayed);
}

TEST(Integration, TegraParkerPortability)
{
    // Sec. 6.5 "other devices": the same machinery produces savings on
    // the TX2 model as well.
    setQuiet(true);
    DeviceContext device(AcmpPlatform::tegraParker());
    const ResultSet rs = evaluate(device, "cnn,ebay", "interactive,pes");
    EXPECT_LT(rs.meanNormalizedEnergy(rs.apps(), "PES", "Interactive"),
              1.0);
}

} // namespace
} // namespace pes
