/**
 * @file
 * Tests for the core library: EBS policy, governors, event predictor,
 * global optimizer, pending frame buffer, and the PES/Oracle drivers'
 * observable behaviour on controlled workloads.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/device_context.hh"
#include "core/ebs_policy.hh"
#include "core/ebs_scheduler.hh"
#include "core/governors.hh"
#include "core/optimizer.hh"
#include "core/oracle_scheduler.hh"
#include "core/pes_scheduler.hh"
#include "core/pfb.hh"
#include "core/predictor.hh"
#include "core/predictor_training.hh"
#include "runner/fleet_runner.hh"
#include "trace/dom_builder.hh"
#include "util/logging.hh"

namespace pes {
namespace {

class CoreFixture : public ::testing::Test
{
  protected:
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    PowerModel power{soc};
    DvfsLatencyModel model{soc};
};

// ------------------------------------------------------------ EbsPolicy

TEST_F(CoreFixture, EbsChoiceMatchesBruteForce)
{
    EbsPolicy policy(soc, power);
    const Workload work{5.0, 120.0};
    for (TimeMs budget : {50.0, 120.0, 300.0, 1000.0, 5000.0}) {
        const AcmpConfig choice = policy.chooseConfigFor(work, budget);
        // Brute force the minimum-energy feasible configuration.
        int best = -1;
        EnergyMj best_energy = 0.0;
        for (int j = 0; j < soc.numConfigs(); ++j) {
            const TimeMs lat = model.latencyAt(work, j);
            if (lat > budget)
                continue;
            const EnergyMj e = energyOf(power.busyPowerAt(j), lat);
            if (best == -1 || e < best_energy) {
                best = j;
                best_energy = e;
            }
        }
        const AcmpConfig expected =
            best == -1 ? soc.maxConfig() : soc.configAt(best);
        EXPECT_EQ(choice, expected) << "budget " << budget;
    }
}

TEST_F(CoreFixture, EbsLooseBudgetPicksLittleCore)
{
    EbsPolicy policy(soc, power);
    const AcmpConfig choice =
        policy.chooseConfigFor({5.0, 120.0}, 10000.0);
    EXPECT_EQ(choice.core, CoreType::Little);
}

TEST_F(CoreFixture, EbsImpossibleBudgetFallsBackToMax)
{
    EbsPolicy policy(soc, power);
    EXPECT_EQ(policy.chooseConfigFor({50.0, 1000.0}, 1.0),
              soc.maxConfig());
}

TEST_F(CoreFixture, EbsProbesUnknownClassAtMax)
{
    EbsPolicy policy(soc, power);
    EXPECT_EQ(policy.chooseConfig(42, DomEventType::Click, 300.0),
              soc.maxConfig());
}

TEST_F(CoreFixture, EbsOnePointEstimateAfterFirstMeasurement)
{
    EbsPolicy policy(soc, power);
    const Workload truth{5.0, 120.0};
    policy.recordMeasurement(42, DomEventType::Click, soc.maxConfig(),
                             model.latency(truth, soc.maxConfig()));
    const Workload est = policy.estimateWorkload(42, DomEventType::Click);
    // One-point estimate reproduces the measured latency at the probe.
    EXPECT_NEAR(model.latency(est, soc.maxConfig()),
                model.latency(truth, soc.maxConfig()), 1e-6);
    // And the second-encounter choice is no longer the blind max probe.
    const AcmpConfig second =
        policy.chooseConfig(42, DomEventType::Click, 5000.0);
    EXPECT_NE(second, soc.maxConfig());
}

TEST_F(CoreFixture, EbsTwoPointEstimateIsExact)
{
    EbsPolicy policy(soc, power);
    const Workload truth{5.0, 120.0};
    policy.recordMeasurement(7, DomEventType::Click, soc.maxConfig(),
                             model.latency(truth, soc.maxConfig()));
    policy.recordMeasurement(7, DomEventType::Click,
                             {CoreType::Big, 1000.0},
                             model.latency(truth, {CoreType::Big, 1000.0}));
    ASSERT_TRUE(policy.hasEstimate(7));
    const Workload est = policy.estimateWorkload(7, DomEventType::Click);
    EXPECT_NEAR(est.tmemMs, truth.tmemMs, 1e-6);
    EXPECT_NEAR(est.ndep, truth.ndep, 1e-6);
}

TEST_F(CoreFixture, EbsPriorsKickInForUnseenClasses)
{
    EbsPolicy policy(soc, power);
    const Workload truth{5.0, 120.0};
    // Teach the policy one tap class fully.
    policy.recordMeasurement(1, DomEventType::Click, soc.maxConfig(),
                             model.latency(truth, soc.maxConfig()));
    policy.recordMeasurement(1, DomEventType::Click,
                             {CoreType::Big, 1000.0},
                             model.latency(truth, {CoreType::Big, 1000.0}));
    // A different tap class inherits the interaction prior.
    const Workload prior = policy.estimateWorkload(999,
                                                   DomEventType::Click);
    EXPECT_NEAR(prior.ndep, truth.ndep, 1.0);
}

TEST_F(CoreFixture, ChooseConfigTakesAConfigThatExactlyFillsTheBudget)
{
    EbsPolicy policy(soc, power);
    const Workload work{0.0, 100.0};
    // Budget exactly equal to some config's latency: the policy takes
    // it (the paper's EBS has no latency margin).
    const AcmpConfig cfg{CoreType::Big, 1000.0};
    EXPECT_EQ(policy.chooseConfigFor(work, model.latency(work, cfg)), cfg);
}

// ------------------------------------------------------------ Optimizer

TEST_F(CoreFixture, OptimizerMeetsOutstandingDeadlines)
{
    const VsyncClock vsync;
    GlobalOptimizer optimizer(model, power, vsync);

    std::vector<PlanEventSpec> specs(3);
    specs[0].work = {5.0, 90.0};
    specs[0].qosTarget = 300.0;
    specs[0].arrival = 1000.0;
    specs[1].work = {5.0, 90.0};
    specs[1].qosTarget = 300.0;
    specs[1].arrival = 1100.0;
    specs[2].work = {0.5, 10.0};
    specs[2].qosTarget = 33.0;
    specs[2].arrival = 1200.0;

    const ScheduleSolution sol =
        optimizer.planSchedule(1000.0, soc.minConfig(), specs);
    ASSERT_TRUE(sol.feasible);
    // Finish times (relative to now=1000) stay within each deadline.
    EXPECT_LE(sol.finishTime[0], 300.0 + 1e-9);
    EXPECT_LE(sol.finishTime[2], 1200.0 + 33.0 - 1000.0 + 1e-9);
}

TEST_F(CoreFixture, OptimizerChainsPredictedDeadlines)
{
    const VsyncClock vsync;
    GlobalOptimizer optimizer(model, power, vsync);
    std::vector<PlanEventSpec> specs(2);
    specs[0].work = {5.0, 90.0};
    specs[0].qosTarget = 300.0;   // predicted, no arrival
    specs[1].work = {5.0, 90.0};
    specs[1].qosTarget = 300.0;
    const ScheduleProblem problem =
        optimizer.buildProblem(0.0, soc.minConfig(), specs);
    EXPECT_NEAR(problem.events[0].deadline, 300.0, 1e-9);
    EXPECT_NEAR(problem.events[1].deadline, 600.0, 1e-9);
}

TEST_F(CoreFixture, OptimizerExpectedArrivalRelaxesDeadline)
{
    const VsyncClock vsync;
    GlobalOptimizer optimizer(model, power, vsync);
    std::vector<PlanEventSpec> specs(1);
    specs[0].work = {5.0, 90.0};
    specs[0].qosTarget = 300.0;
    specs[0].expectedArrival = 5000.0;
    const ScheduleProblem problem =
        optimizer.buildProblem(0.0, soc.minConfig(), specs);
    EXPECT_GT(problem.events[0].deadline, 5000.0);
}

TEST_F(CoreFixture, OptimizerDeeperChainGetsCheaperConfigs)
{
    // A chain of identical taps: later slots have larger cumulative
    // budgets, so their configurations are no more power-hungry.
    const VsyncClock vsync;
    GlobalOptimizer optimizer(model, power, vsync);
    std::vector<PlanEventSpec> specs(4);
    for (auto &s : specs) {
        s.work = {5.0, 120.0};
        s.qosTarget = 300.0;
    }
    const ScheduleSolution sol =
        optimizer.planSchedule(0.0, soc.minConfig(), specs);
    ASSERT_TRUE(sol.feasible);
    EXPECT_GE(power.busyPowerAt(sol.configOf.front()),
              power.busyPowerAt(sol.configOf.back()) - 1e-9);
}

TEST_F(CoreFixture, OptimizerKeptProblemCarriesNothingOver)
{
    // planSchedule overwrites one kept problem in place. Windows that
    // shrink and grow, from different start configurations, on one
    // optimizer must each plan exactly as a freshly built problem.
    const VsyncClock vsync;
    GlobalOptimizer optimizer(model, power, vsync);
    const size_t sizes[] = {8, 2, 5, 1};
    for (size_t w = 0; w < 4; ++w) {
        std::vector<PlanEventSpec> specs(sizes[w]);
        for (size_t i = 0; i < specs.size(); ++i) {
            PlanEventSpec &spec = specs[i];
            spec.work = {1.0 + 2.0 * static_cast<double>(w + i),
                         40.0 + 35.0 * static_cast<double>((w * 3 + i) % 5)};
            spec.qosTarget = i % 3 == 2 ? 33.0 : 300.0;
            if (i == 0)
                spec.arrival = 1000.0 + 17.0 * static_cast<double>(w);
            else if (i % 2 == 1)
                spec.expectedArrival = 1400.0 + 250.0 * static_cast<double>(i);
        }
        const TimeMs now = 1010.0 + 17.0 * static_cast<double>(w);
        const AcmpConfig start =
            soc.configAt(static_cast<int>(w) * 5 % soc.numConfigs());
        const ScheduleSolution want =
            optimizer.solve(optimizer.buildProblem(now, start, specs));
        const ScheduleSolution got =
            optimizer.planSchedule(now, start, specs);
        const std::string where = "window " + std::to_string(w);
        EXPECT_EQ(got.feasible, want.feasible) << where;
        EXPECT_EQ(got.configOf, want.configOf) << where;
        EXPECT_EQ(got.totalEnergy, want.totalEnergy) << where;
        EXPECT_EQ(got.totalTardiness, want.totalTardiness) << where;
        EXPECT_EQ(got.finishTime, want.finishTime) << where;
        EXPECT_EQ(got.thinnedPrunes, want.thinnedPrunes) << where;
        EXPECT_EQ(got.configOf.size(), specs.size()) << where;
    }
}

// ------------------------------------------------------------ PFB

TEST(Pfb, FifoCommitOrder)
{
    PendingFrameBuffer pfb;
    pfb.push({1, 0, {}, 10.0, 5.0, 0});
    pfb.push({2, 1, {}, 20.0, 5.0, 0});
    EXPECT_EQ(pfb.size(), 2);
    EXPECT_EQ(pfb.head()->position, 0);
    EXPECT_EQ(pfb.pop()->position, 0);
    EXPECT_EQ(pfb.pop()->position, 1);
    EXPECT_FALSE(pfb.pop().has_value());
}

TEST(Pfb, DrainReturnsEverything)
{
    PendingFrameBuffer pfb;
    pfb.push({1, 3, {}, 0.0, 0.0, 0});
    pfb.push({2, 4, {}, 0.0, 0.0, 0});
    const auto drained = pfb.drain();
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_TRUE(pfb.empty());
}

TEST(Pfb, RejectsOutOfOrderPositions)
{
    PendingFrameBuffer pfb;
    pfb.push({1, 5, {}, 0.0, 0.0, 0});
    EXPECT_DEATH(pfb.push({2, 4, {}, 0.0, 0.0, 0}), "increasing");
}

// ------------------------------------------------------------ Predictor

class PredictorFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // A model that strongly predicts Load when links are visible and
        // Click otherwise.
        model.weight(static_cast<int>(DomEventType::Load), 1) = 20.0;
        model.weight(static_cast<int>(DomEventType::Load),
                     kNumFeatures) = -4.0;
        model.weight(static_cast<int>(DomEventType::Click),
                     kNumFeatures) = 1.5;
    }

    LogisticModel model;
    WebApp app = AppDomBuilder(appByName("cnn")).build();
};

TEST_F(PredictorFixture, PredictsFromLnesOnly)
{
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;
    window.observe(DomEventType::Click, 100, 100);

    EventPredictor predictor(model);
    const auto next = predictor.predictNext(
        analyzer, session.snapshotState(), window);
    ASSERT_TRUE(next.has_value());
    // The chosen target must be in the current LNES.
    const auto lnes = analyzer.likelyNextEvents(session.snapshotState());
    const bool in_lnes = std::any_of(
        lnes.begin(), lnes.end(), [&](const CandidateEvent &c) {
            return c.node == next->node && c.type == next->type;
        });
    EXPECT_TRUE(in_lnes);
}

TEST_F(PredictorFixture, ConfidenceThresholdBoundsDegree)
{
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;
    window.observe(DomEventType::Click, 100, 100);

    EventPredictor::Config strict;
    strict.confidenceThreshold = 0.995;
    EventPredictor::Config loose;
    loose.confidenceThreshold = 0.30;
    EventPredictor::Config paper;  // 0.70

    const auto none = EventPredictor(model, strict)
        .predictSequence(analyzer, session.snapshotState(), window);
    const auto some = EventPredictor(model, paper)
        .predictSequence(analyzer, session.snapshotState(), window);
    const auto more = EventPredictor(model, loose)
        .predictSequence(analyzer, session.snapshotState(), window);
    EXPECT_LE(none.size(), some.size());
    EXPECT_LE(some.size(), more.size());
}

TEST_F(PredictorFixture, CumulativeConfidenceRespectsThreshold)
{
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;
    window.observe(DomEventType::Click, 100, 100);

    EventPredictor predictor(model);  // threshold 0.70
    const auto seq = predictor.predictSequence(
        analyzer, session.snapshotState(), window);
    double cumulative = 1.0;
    for (const PredictedEvent &p : seq) {
        cumulative *= p.confidence;
        EXPECT_GE(p.confidence, 0.0);
        EXPECT_LE(p.confidence, 1.0);
    }
    EXPECT_GE(cumulative, 0.70 - 1e-9);
}

TEST_F(PredictorFixture, MaxDegreeCap)
{
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;
    window.observe(DomEventType::Click, 100, 100);

    EventPredictor::Config config;
    config.confidenceThreshold = 0.0;  // never stop on confidence
    config.maxDegree = 3;
    const auto seq = EventPredictor(model, config)
        .predictSequence(analyzer, session.snapshotState(), window);
    EXPECT_LE(seq.size(), 3u);
}

// -------------------------------------------------- End-to-end drivers

class DriverFixture : public ::testing::Test
{
  protected:
    static DeviceContext &
    trainedDevice()
    {
        static DeviceContext device;
        setQuiet(true);
        device.model();  // trains on the first call only
        return device;
    }

    /** The Sec.-6.1 evaluation of @p apps under @p schedulers (a fleet). */
    static ResultSet
    evaluate(const std::string &apps, const std::string &schedulers,
             int users = TraceGenerator::kEvalTracesPerApp)
    {
        FleetConfig config =
            evaluationFleet(trainedDevice(), parseAppList(apps),
                            parseSchedulerList(schedulers));
        config.users = users;
        return runComplete(std::move(config)).results;
    }
};

TEST_F(DriverFixture, OracleHasZeroViolations)
{
    const ResultSet rs = evaluate("cnn,twitter", "oracle", 2);
    ASSERT_EQ(rs.results().size(), 4u);
    for (const SimResult &r : rs.results())
        EXPECT_NEAR(r.violationRate(), 0.0, 1e-12) << r.appName;
}

TEST_F(DriverFixture, SchedulerEnergyOrdering)
{
    // Oracle <= PES <= Interactive and EBS <= Interactive on aggregate.
    const ResultSet rs = evaluate("cnn,ebay", "interactive,ebs,pes,oracle");
    const auto apps = rs.apps();
    const double ebs = rs.meanNormalizedEnergy(apps, "EBS", "Interactive");
    const double pes = rs.meanNormalizedEnergy(apps, "PES", "Interactive");
    const double oracle =
        rs.meanNormalizedEnergy(apps, "Oracle", "Interactive");
    EXPECT_LT(ebs, 1.0);
    EXPECT_LT(pes, ebs);
    EXPECT_LT(oracle, pes);
}

TEST_F(DriverFixture, PesReducesViolationsVersusEbs)
{
    const ResultSet rs = evaluate("cnn,google,twitter", "ebs,pes");
    EXPECT_LT(rs.summarizeScheduler("PES").violationRate,
              rs.summarizeScheduler("EBS").violationRate);
}

TEST_F(DriverFixture, PesPredictionAccuracyInPaperBand)
{
    const ResultSet rs = evaluate("cnn,ebay,twitter", "pes");
    const double acc = rs.summarizeScheduler("PES").predictionAccuracy;
    EXPECT_GT(acc, 0.80);
    EXPECT_LE(acc, 1.0);
}

TEST_F(DriverFixture, PesSpeculatesMostEvents)
{
    const ResultSet rs = evaluate("twitter", "pes");
    int speculative = 0;
    int total = 0;
    for (const SimResult &r : rs.results()) {
        for (const EventRecord &e : r.events) {
            ++total;
            speculative += e.servedSpeculatively ? 1 : 0;
        }
    }
    EXPECT_GT(static_cast<double>(speculative) / total, 0.4);
}

TEST_F(DriverFixture, PfbTraceShowsSawtooth)
{
    // Fig. 9: frames pushed then committed one by one.
    const ResultSet rs = evaluate("ebay", "pes");
    bool saw_growth = false;
    bool saw_drain = false;
    for (const SimResult &r : rs.results()) {
        for (size_t i = 1; i < r.pfbTrace.size(); ++i) {
            if (r.pfbTrace[i].pfbSize > r.pfbTrace[i - 1].pfbSize)
                saw_growth = true;
            if (r.pfbTrace[i].pfbSize < r.pfbTrace[i - 1].pfbSize)
                saw_drain = true;
        }
    }
    EXPECT_TRUE(saw_growth);
    EXPECT_TRUE(saw_drain);
}

TEST_F(DriverFixture, GovernorsAreQosAgnosticallyDifferent)
{
    // Interactive ramps faster than Ondemand: fewer violations, more
    // energy (aggregate over two bursty apps).
    const ResultSet rs = evaluate("cnn,twitter", "interactive,ondemand");
    EXPECT_LE(rs.summarizeScheduler("Interactive").violationRate,
              rs.summarizeScheduler("Ondemand").violationRate + 1e-9);
    EXPECT_GE(rs.summarizeScheduler("Interactive").meanEnergy,
              rs.summarizeScheduler("Ondemand").meanEnergy);
}

TEST_F(DriverFixture, PesFallsBackAfterConsecutiveMispredicts)
{
    // With an adversarial (untrained, zero) model and strict matching,
    // speculation keeps missing; the control unit must disable it.
    DeviceContext &device = trainedDevice();
    LogisticModel zero_model;
    PesScheduler::Config config;
    config.matchPolicy = MatchPolicy::Strict;
    PesScheduler pes(zero_model, config);
    const AppProfile &profile = appByName("google");
    const auto trace = device.generator().evaluationSet(profile, 1).front();
    const SimResult r = device.replay(profile, trace, pes);
    EXPECT_TRUE(r.fellBackToReactive || r.mispredictions == 0);
    // All events still get served.
    for (const EventRecord &e : r.events)
        EXPECT_GT(e.displayed, 0.0);
}

TEST_F(DriverFixture, PesStampsItsMatchPolicyOnSpeculativeWork)
{
    // The simulator resolves a speculative frame's workload under the
    // rule on its work item, so PES must carry its own rule there.
    struct Recorder : PesScheduler
    {
        using PesScheduler::PesScheduler;
        std::optional<WorkItem> nextWork(SimulatorApi &api) override
        {
            auto work = PesScheduler::nextWork(api);
            if (work && work->kind == WorkItem::Kind::Speculative)
                stamps.push_back(work->matchPolicy);
            return work;
        }
        std::vector<MatchPolicy> stamps;
    };
    DeviceContext &device = trainedDevice();
    PesScheduler::Config config;
    config.matchPolicy = MatchPolicy::Strict;
    Recorder pes(device.model(), config);
    const AppProfile &profile = appByName("amazon");
    device.replay(profile, device.generator().generate(profile, 9000), pes);
    ASSERT_FALSE(pes.stamps.empty());
    for (const MatchPolicy stamp : pes.stamps)
        EXPECT_EQ(stamp, MatchPolicy::Strict);
}

TEST_F(DriverFixture, PesProbesEachClassAtMaxOnItsFirstArrival)
{
    // Measurement protocol (Sec. 5.3): an event class PES has never
    // measured runs at the deadline-safe probe configuration, whatever
    // the optimizer would choose for its window. PES leaves a window of
    // only such classes unsolved on the strength of this rule.
    struct Recorder : PesScheduler
    {
        using PesScheduler::PesScheduler;
        std::optional<WorkItem> nextWork(SimulatorApi &api) override
        {
            auto work = PesScheduler::nextWork(api);
            if (work && work->kind == WorkItem::Kind::Real)
                real.push_back(*work);
            return work;
        }
        std::vector<WorkItem> real;
    };
    DeviceContext &device = trainedDevice();
    const AcmpPlatform &soc = device.platform();
    const int max_config = soc.configIndex(soc.maxConfig());
    int probes = 0;
    for (const AppProfile &profile : appRegistry()) {
        for (uint64_t seed = 9000; seed < 9010; ++seed) {
            SCOPED_TRACE(profile.name + " seed " + std::to_string(seed));
            const InteractionTrace trace =
                device.generator().generate(profile, seed);
            Recorder pes(device.model());  // fresh: nothing measured
            device.replay(profile, trace, pes);
            std::unordered_map<uint64_t, int> first_arrival;
            for (int i = 0; i < static_cast<int>(trace.events.size()); ++i)
                first_arrival.emplace(trace.events[i].classKey, i);
            for (const WorkItem &work : pes.real) {
                const uint64_t key = trace.events[work.traceIndex].classKey;
                if (first_arrival.at(key) != work.traceIndex)
                    continue;
                ++probes;
                EXPECT_EQ(soc.configIndex(work.config), max_config)
                    << "event " << work.traceIndex;
            }
        }
    }
    EXPECT_GT(probes, 0);
}

TEST_F(DriverFixture, NetworkRequestsSuppressedDuringSpeculation)
{
    // Speculated submits are commit-gated; count them on a form app.
    const ResultSet rs = evaluate("amazon", "pes");
    int suppressed = 0;
    for (const SimResult &r : rs.results())
        suppressed += r.suppressedNetworkRequests;
    // Amazon traces contain submits only occasionally; the counter must
    // at least be consistent (non-negative and bounded by events).
    EXPECT_GE(suppressed, 0);
}

TEST_F(DriverFixture, DisabledPredictionEqualsReactiveBehavior)
{
    // enablePrediction=false turns PES into a reactive scheduler: no
    // speculative serves, no waste.
    DeviceContext &device = trainedDevice();
    PesScheduler::Config config;
    config.enablePrediction = false;
    PesScheduler pes(device.model(), config);
    const AppProfile &profile = appByName("bbc");
    const auto trace = device.generator().evaluationSet(profile, 1).front();
    const SimResult r = device.replay(profile, trace, pes);
    EXPECT_EQ(r.predictionsMade, 0);
    EXPECT_EQ(r.wasteEnergy, 0.0);
    for (const EventRecord &e : r.events)
        EXPECT_FALSE(e.servedSpeculatively);
}

} // namespace
} // namespace pes

