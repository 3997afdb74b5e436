/**
 * @file
 * Tests for the simulation engine: timing/energy mechanics under scripted
 * drivers, speculation commit/squash semantics, the Type I-IV classifier,
 * and result aggregation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/governors.hh"
#include "core/oracle_scheduler.hh"
#include "sim/classifier.hh"
#include "sim/metrics.hh"
#include "sim/runtime_simulator.hh"
#include "trace/trace.hh"
#include "web/web_app.hh"

namespace pes {
namespace {

/** Minimal one-page app: a root with a scroll handler plus one button. */
WebApp
miniApp()
{
    WebApp app("mini");
    DomTree dom;
    dom.node(dom.root()).rect = {0, 0, 360, 1280};
    HandlerSpec move;
    move.type = DomEventType::Scroll;
    move.effect = {EffectKind::ScrollBy, kInvalidNode, -1, 300.0};
    move.medianWork = {0.3, 6.0};
    dom.addHandler(dom.root(), move);

    const NodeId button =
        dom.createNode(dom.root(), NodeRole::Button, {10, 100, 100, 44});
    HandlerSpec tap;
    tap.type = DomEventType::Click;
    tap.effect = {EffectKind::None, kInvalidNode, -1, 0.0};
    tap.medianWork = {3.0, 55.0};
    dom.addHandler(button, tap);
    app.addPage(std::move(dom));
    return app;
}

/** One Click event with a precisely known workload. */
TraceEvent
clickEvent(TimeMs arrival, Workload work)
{
    TraceEvent e;
    e.arrival = arrival;
    e.type = DomEventType::Click;
    e.node = 1;
    e.pageId = 0;
    e.x = 60;
    e.y = 122;
    e.callbackWork = work;
    // Leave renderWork zero so latency math is exact in tests.
    e.classKey = eventClassKey("mini", 0, 1, DomEventType::Click);
    return e;
}

InteractionTrace
makeTrace(std::vector<TraceEvent> events)
{
    InteractionTrace t;
    t.appName = "mini";
    t.events = std::move(events);
    return t;
}

/** Dispatches the queue head at one fixed configuration. */
class FixedConfigDriver : public SchedulerDriver
{
  public:
    explicit FixedConfigDriver(AcmpConfig config) : config_(config) {}
    std::string name() const override { return "Fixed"; }
    std::optional<WorkItem>
    nextWork(SimulatorApi &api) override
    {
        const auto front = api.pendingQueue().front();
        if (!front)
            return std::nullopt;
        WorkItem item;
        item.kind = WorkItem::Kind::Real;
        item.traceIndex = front->traceIndex;
        item.config = config_;
        return item;
    }

  private:
    AcmpConfig config_;
};

/**
 * Speculates position 0 once (with a configurable prediction), serves the
 * arrival from the frame when it matches, squashes otherwise; every later
 * event runs reactively at max.
 */
class OneShotSpeculator : public SchedulerDriver
{
  public:
    OneShotSpeculator(PredictedEvent predicted, bool matches,
                      MatchPolicy policy = MatchPolicy::TypeLevel)
        : predicted_(predicted), matches_(matches), policy_(policy)
    {
    }
    std::string name() const override { return "OneShot"; }

    std::optional<WorkItem>
    nextWork(SimulatorApi &api) override
    {
        if (!dispatched_) {
            dispatched_ = true;
            WorkItem item;
            item.kind = WorkItem::Kind::Speculative;
            item.targetPosition = 0;
            item.predicted = predicted_;
            item.matchPolicy = policy_;
            item.config = api.platform().minConfig();
            return item;
        }
        const auto front = api.pendingQueue().front();
        if (!front)
            return std::nullopt;
        WorkItem item;
        item.kind = WorkItem::Kind::Real;
        item.traceIndex = front->traceIndex;
        item.config = api.platform().maxConfig();
        return item;
    }

    void
    onWorkFinished(SimulatorApi &api, const CompletedWork &work) override
    {
        (void)api;
        if (work.item.kind == WorkItem::Kind::Speculative)
            frameId_ = work.workId;
    }

    void
    onArrival(SimulatorApi &api, int trace_index) override
    {
        if (trace_index != 0 || served_)
            return;
        served_ = true;
        if (matches_ && frameId_) {
            api.notePrediction(true);
            api.serveFromSpeculation(0, *frameId_);
        } else if (frameId_) {
            api.notePrediction(false);
            api.discardSpeculativeWork(*frameId_);
        }
    }

  private:
    PredictedEvent predicted_;
    bool matches_;
    MatchPolicy policy_;
    bool dispatched_ = false;
    bool served_ = false;
    std::optional<uint64_t> frameId_;
};

class SimFixture : public ::testing::Test
{
  protected:
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    PowerModel power{soc};
    WebApp app = miniApp();
    DvfsLatencyModel model{soc};
    VsyncClock vsync;
};

// --------------------------------------------------------- Reactive path

TEST_F(SimFixture, ReactiveLatencyMatchesModel)
{
    const Workload work{10.0, 180.0};  // 110 ms at big max
    const auto trace = makeTrace({clickEvent(1000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    FixedConfigDriver driver(soc.maxConfig());
    const SimResult result = sim.run(trace, driver);

    ASSERT_EQ(result.events.size(), 1u);
    const EventRecord &rec = result.events[0];
    const TimeMs switch_cost =
        soc.switchCost(soc.minConfig(), soc.maxConfig());
    const TimeMs expected_finish =
        1000.0 + switch_cost + model.latency(work, soc.maxConfig());
    EXPECT_NEAR(rec.frameReady, expected_finish, 1e-6);
    EXPECT_NEAR(rec.displayed, vsync.nextVsyncAt(expected_finish), 1e-6);
    EXPECT_FALSE(rec.violated());  // 110 ms << 300 ms target
    EXPECT_FALSE(rec.servedSpeculatively);
}

TEST_F(SimFixture, SlowConfigViolatesDeadline)
{
    const Workload work{10.0, 180.0};  // >1 s on little@350
    const auto trace = makeTrace({clickEvent(500.0, work)});
    RuntimeSimulator sim(soc, power, app);
    FixedConfigDriver driver(soc.minConfig());
    const SimResult result = sim.run(trace, driver);
    EXPECT_TRUE(result.events[0].violated());
    EXPECT_NEAR(result.violationRate(), 1.0, 1e-12);
}

TEST_F(SimFixture, FifoUnderBurst)
{
    const Workload work{5.0, 90.0};
    const auto trace = makeTrace({clickEvent(100.0, work),
                                  clickEvent(110.0, work),
                                  clickEvent(120.0, work)});
    RuntimeSimulator sim(soc, power, app);
    FixedConfigDriver driver(soc.maxConfig());
    const SimResult result = sim.run(trace, driver);
    // Queueing: each event starts after the previous frame completes.
    EXPECT_GT(result.events[1].frameReady, result.events[0].frameReady);
    EXPECT_GT(result.events[2].frameReady, result.events[1].frameReady);
    EXPECT_GE(result.avgQueueLength, 1.0);
}

TEST_F(SimFixture, EnergyTagsPartitionTotal)
{
    const Workload work{10.0, 300.0};
    const auto trace = makeTrace({clickEvent(200.0, work),
                                  clickEvent(3000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    FixedConfigDriver driver({CoreType::Big, 1200.0});
    const SimResult result = sim.run(trace, driver);
    EXPECT_NEAR(result.totalEnergy,
                result.busyEnergy + result.idleEnergy +
                    result.overheadEnergy + result.wasteEnergy,
                1e-6);
    EXPECT_GT(result.busyEnergy, 0.0);
    EXPECT_GT(result.idleEnergy, 0.0);
    EXPECT_GT(result.overheadEnergy, 0.0);  // config switches
    EXPECT_EQ(result.wasteEnergy, 0.0);     // nothing speculative
}

TEST_F(SimFixture, PerEventBusyEnergyMatchesPowerModel)
{
    const Workload work{0.0, 360.0};  // exactly 200 ms at big max
    const auto trace = makeTrace({clickEvent(100.0, work)});
    RuntimeSimulator sim(soc, power, app);
    FixedConfigDriver driver(soc.maxConfig());
    const SimResult result = sim.run(trace, driver);
    const EnergyMj expected =
        energyOf(power.busyPower(soc.maxConfig()), 200.0);
    EXPECT_NEAR(result.events[0].busyEnergy, expected, expected * 0.01);
    EXPECT_NEAR(result.events[0].execMs, 200.0, 0.01);
}

TEST_F(SimFixture, SessionStateCommittedAfterServe)
{
    // A scroll event moves the committed viewport.
    TraceEvent scroll;
    scroll.arrival = 50.0;
    scroll.type = DomEventType::Scroll;
    scroll.node = 0;
    scroll.callbackWork = {0.3, 6.0};
    const auto trace = makeTrace({scroll});
    RuntimeSimulator sim(soc, power, app);

    class Checker : public FixedConfigDriver
    {
      public:
        explicit Checker(AcmpConfig c) : FixedConfigDriver(c) {}
        void
        onWorkFinished(SimulatorApi &api, const CompletedWork &) override
        {
            scroll_after = api.session().viewport().scrollY;
        }
        double scroll_after = -1.0;
    } driver(soc.maxConfig());

    sim.run(trace, driver);
    EXPECT_DOUBLE_EQ(driver.scroll_after, 300.0);
}

// ------------------------------------------------------- Speculation

TEST_F(SimFixture, CommittedSpeculationServesInstantly)
{
    const Workload work{10.0, 180.0};
    const auto trace = makeTrace({clickEvent(2000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    OneShotSpeculator driver({DomEventType::Click, 1, 0, 1.0}, true);
    const SimResult result = sim.run(trace, driver);

    const EventRecord &rec = result.events[0];
    EXPECT_TRUE(rec.servedSpeculatively);
    // The frame was ready long before arrival: latency is one VSync hop.
    EXPECT_LE(rec.latency(), vsync.periodMs() + 1e-6);
    EXPECT_LT(rec.frameReady, rec.arrival);
    EXPECT_EQ(result.predictionsMade, 1);
    EXPECT_EQ(result.predictionsCorrect, 1);
    EXPECT_EQ(result.wasteEnergy, 0.0);
}

TEST_F(SimFixture, SpeculativeTruthUsesActualWorkloadOnMatch)
{
    const Workload work{0.0, 360.0};  // little@350: 2160 ms
    const auto trace = makeTrace({clickEvent(5000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    OneShotSpeculator driver({DomEventType::Click, 1, 0, 1.0}, true);
    const SimResult result = sim.run(trace, driver);
    // Frame generation on little@350 must reflect the true workload.
    const TimeMs expected =
        model.latency(work, soc.minConfig());
    EXPECT_NEAR(result.events[0].execMs, expected, 1.0);
}

TEST(MatchPolicy, StrictAlsoNeedsTheNodeAndPage)
{
    TraceEvent actual;
    actual.type = DomEventType::Click;
    actual.node = 3;
    actual.pageId = 1;
    for (const MatchPolicy policy :
         {MatchPolicy::TypeLevel, MatchPolicy::Strict}) {
        EXPECT_TRUE(matchesUnder(policy, {DomEventType::Click, 3, 1, 1.0},
                                 actual));
        EXPECT_FALSE(matchesUnder(policy, {DomEventType::Scroll, 3, 1, 1.0},
                                  actual));
    }
    for (const PredictedEvent wrong_target :
         {PredictedEvent{DomEventType::Click, 4, 1, 1.0},
          PredictedEvent{DomEventType::Click, 3, 0, 1.0}}) {
        EXPECT_TRUE(
            matchesUnder(MatchPolicy::TypeLevel, wrong_target, actual));
        EXPECT_FALSE(matchesUnder(MatchPolicy::Strict, wrong_target, actual));
    }
}

TEST_F(SimFixture, SpeculativeTruthFollowsTheItemsMatchPolicy)
{
    // A frame predicting the right type on the wrong node computed the
    // actual event's workload under type-level matching. Under the
    // strict rule on its work item it computed a stand-in: here the
    // no-op frame, as the root has no click handler.
    const Workload work{0.0, 360.0};  // little@350: 2160 ms
    const auto trace = makeTrace({clickEvent(5000.0, work)});
    const PredictedEvent wrong_node{DomEventType::Click, 0, 0, 1.0};
    RuntimeSimulator sim(soc, power, app);
    OneShotSpeculator type_level(wrong_node, false);
    OneShotSpeculator strict(wrong_node, false, MatchPolicy::Strict);
    const TimeMs actual = model.latency(work, soc.minConfig());
    EXPECT_NEAR(sim.run(trace, type_level).mispredictWasteMs, actual, 1.0);
    EXPECT_LT(sim.run(trace, strict).mispredictWasteMs, actual / 10);
}

TEST_F(SimFixture, SquashedSpeculationBecomesWaste)
{
    const Workload work{10.0, 180.0};
    const auto trace = makeTrace({clickEvent(3000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    // Predict a scroll; the actual click mismatches -> squash.
    OneShotSpeculator driver({DomEventType::Scroll, 0, 0, 1.0}, false);
    const SimResult result = sim.run(trace, driver);

    const EventRecord &rec = result.events[0];
    EXPECT_FALSE(rec.servedSpeculatively);
    EXPECT_FALSE(rec.violated());  // reactive handling at max still meets
    EXPECT_GT(result.wasteEnergy, 0.0);
    EXPECT_GT(result.mispredictWasteMs, 0.0);
    EXPECT_EQ(result.mispredictions, 1);
    EXPECT_NEAR(result.totalEnergy,
                result.busyEnergy + result.idleEnergy +
                    result.overheadEnergy + result.wasteEnergy,
                1e-6);
}

TEST_F(SimFixture, SchedulerOverheadCharged)
{
    const Workload work{5.0, 90.0};
    const auto trace = makeTrace({clickEvent(100.0, work)});
    RuntimeSimulator sim(soc, power, app);

    class OverheadDriver : public FixedConfigDriver
    {
      public:
        explicit OverheadDriver(AcmpConfig c) : FixedConfigDriver(c) {}
        void
        begin(SimulatorApi &api) override
        {
            api.chargeSchedulerOverhead(10.0);
        }
    } driver(soc.maxConfig());

    const SimResult result = sim.run(trace, driver);
    EXPECT_GT(result.overheadEnergy, 0.0);
}

// --------------------------------------------------------- Classifier

class ClassifierFixture : public ::testing::Test
{
  protected:
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    PowerModel power{soc};
    EventClassifier classifier{soc, power};
    DvfsLatencyModel model{soc};

    EventRecord
    record(const TraceEvent &e, TimeMs latency, EnergyMj busy)
    {
        EventRecord r;
        r.traceIndex = 0;
        r.type = e.type;
        r.arrival = e.arrival;
        r.qosTarget = e.qosTarget();
        r.frameReady = e.arrival + latency;
        r.displayed = e.arrival + latency;
        r.busyEnergy = busy;
        return r;
    }
};

TEST_F(ClassifierFixture, TypeIInherentlyHeavy)
{
    // Even big@max cannot meet 300 ms.
    const TraceEvent e = clickEvent(1000.0, {50.0, 600.0});
    EXPECT_EQ(classifier.minimalIsolatedConfig(e), -1);
    const EventRecord r = record(e, 400.0, 700.0);
    EXPECT_EQ(classifier.classify(e, r), EventCategory::TypeI);
}

TEST_F(ClassifierFixture, TypeIIInterferenceVictim)
{
    // Feasible in isolation, but it violated at runtime.
    const TraceEvent e = clickEvent(1000.0, {5.0, 90.0});
    EXPECT_GE(classifier.minimalIsolatedConfig(e), 0);
    const EventRecord r = record(e, 450.0, 100.0);
    EXPECT_EQ(classifier.classify(e, r), EventCategory::TypeII);
}

TEST_F(ClassifierFixture, TypeIIIOverProvisioned)
{
    // Met the deadline, but at far higher energy than the isolated
    // minimum requires.
    const TraceEvent e = clickEvent(1000.0, {5.0, 90.0});
    const int minimal = classifier.minimalIsolatedConfig(e);
    ASSERT_GE(minimal, 0);
    const EnergyMj minimal_energy = energyOf(
        power.busyPowerAt(minimal),
        model.latencyAt(e.totalWork(), minimal));
    const EventRecord r = record(e, 60.0, minimal_energy * 3.0);
    EXPECT_EQ(classifier.classify(e, r), EventCategory::TypeIII);
}

TEST_F(ClassifierFixture, TypeIVBenign)
{
    const TraceEvent e = clickEvent(1000.0, {5.0, 90.0});
    const int minimal = classifier.minimalIsolatedConfig(e);
    ASSERT_GE(minimal, 0);
    const EnergyMj minimal_energy = energyOf(
        power.busyPowerAt(minimal),
        model.latencyAt(e.totalWork(), minimal));
    const EventRecord r = record(e, 250.0, minimal_energy);
    EXPECT_EQ(classifier.classify(e, r), EventCategory::TypeIV);
}

TEST_F(ClassifierFixture, DistributionBookkeeping)
{
    CategoryDistribution dist;
    dist.counts = {1, 2, 3, 4};
    EXPECT_EQ(dist.total(), 10);
    EXPECT_NEAR(dist.fraction(EventCategory::TypeII), 0.2, 1e-12);
    CategoryDistribution other;
    other.counts = {1, 0, 0, 1};
    dist.merge(other);
    EXPECT_EQ(dist.total(), 12);
    EXPECT_EQ(dist.counts[0], 2);
}

TEST_F(ClassifierFixture, MinimalConfigPrefersCheapest)
{
    // A tiny move: many configs meet 33 ms; the minimal-energy one must
    // not be the fastest.
    TraceEvent e;
    e.arrival = 1000.0;
    e.type = DomEventType::Scroll;
    e.callbackWork = {0.2, 3.0};
    const int minimal = classifier.minimalIsolatedConfig(e);
    ASSERT_GE(minimal, 0);
    EXPECT_NE(soc.configAt(minimal), soc.maxConfig());
}

// ----------------------------------------------------------- Metrics

SimResult
syntheticResult(const std::string &app, const std::string &sched,
                EnergyMj energy, int violations, int events)
{
    SimResult r;
    r.appName = app;
    r.schedulerName = sched;
    r.totalEnergy = energy;
    for (int i = 0; i < events; ++i) {
        EventRecord e;
        e.arrival = i * 100.0;
        e.qosTarget = 300.0;
        e.displayed = e.arrival + (i < violations ? 400.0 : 100.0);
        r.events.push_back(e);
    }
    return r;
}

TEST(ResultSet, GroupSummaries)
{
    ResultSet rs;
    rs.add(syntheticResult("cnn", "EBS", 1000.0, 2, 10));
    rs.add(syntheticResult("cnn", "EBS", 2000.0, 0, 10));
    rs.add(syntheticResult("cnn", "PES", 1200.0, 1, 10));
    rs.add(syntheticResult("bbc", "EBS", 500.0, 5, 10));

    const GroupSummary ebs_cnn = rs.summarize("cnn", "EBS");
    EXPECT_EQ(ebs_cnn.traces, 2);
    EXPECT_EQ(ebs_cnn.events, 20);
    EXPECT_NEAR(ebs_cnn.meanEnergy, 1500.0, 1e-9);
    EXPECT_NEAR(ebs_cnn.violationRate, 0.1, 1e-12);

    EXPECT_EQ(rs.apps(), (std::vector<std::string>{"cnn", "bbc"}));
    EXPECT_EQ(rs.schedulers(), (std::vector<std::string>{"EBS", "PES"}));

    const GroupSummary all_ebs = rs.summarizeScheduler("EBS");
    EXPECT_EQ(all_ebs.traces, 3);
}

TEST(ResultSet, NormalizedEnergy)
{
    ResultSet rs;
    rs.add(syntheticResult("cnn", "Interactive", 2000.0, 0, 5));
    rs.add(syntheticResult("cnn", "PES", 1500.0, 0, 5));
    rs.add(syntheticResult("bbc", "Interactive", 1000.0, 0, 5));
    rs.add(syntheticResult("bbc", "PES", 900.0, 0, 5));
    EXPECT_NEAR(rs.normalizedEnergy("cnn", "PES", "Interactive"), 0.75,
                1e-12);
    EXPECT_NEAR(rs.meanNormalizedEnergy({"cnn", "bbc"}, "PES",
                                        "Interactive"),
                (0.75 + 0.9) / 2.0, 1e-12);
    // Missing groups degrade to 1.0.
    EXPECT_NEAR(rs.normalizedEnergy("cnn", "Oracle", "Interactive"), 1.0,
                1e-12);
}


// ----------------------------------------------- Config-sweep property

/** The reactive latency law must hold on every one of the 17 configs. */
class ConfigSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ConfigSweep, LatencyLawHoldsEverywhere)
{
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    PowerModel power(soc);
    WebApp app = miniApp();
    DvfsLatencyModel model(soc);
    VsyncClock vsync;

    const AcmpConfig cfg = soc.configAt(GetParam());
    const Workload work{4.0, 120.0};
    const auto trace = makeTrace({clickEvent(777.0, work)});
    RuntimeSimulator sim(soc, power, app);
    FixedConfigDriver driver(cfg);
    const SimResult result = sim.run(trace, driver);

    const TimeMs expected_finish = 777.0 +
        soc.switchCost(soc.minConfig(), cfg) + model.latency(work, cfg);
    EXPECT_NEAR(result.events[0].frameReady, expected_finish, 1e-6);
    EXPECT_NEAR(result.events[0].displayed,
                vsync.nextVsyncAt(expected_finish), 1e-6);
    const EnergyMj expected_busy =
        energyOf(power.busyPower(cfg), model.latency(work, cfg));
    EXPECT_NEAR(result.events[0].busyEnergy, expected_busy,
                expected_busy * 0.01);
}

INSTANTIATE_TEST_SUITE_P(All17Configs, ConfigSweep,
                         ::testing::Range(0, 17));

// ------------------------------------------------------- Governor ticks

TEST_F(SimFixture, InteractiveGovernorRampsOnLoad)
{
    // A long event at the post-idle configuration must be finished at
    // the hispeed configuration after the first 20 ms tick, i.e. far
    // faster than an all-minConfig execution.
    const Workload work{10.0, 600.0};  // ~3.6 s at little@350
    const auto trace = makeTrace({clickEvent(1000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    InteractiveGovernor governor;
    const SimResult result = sim.run(trace, governor);
    const TimeMs all_min = model.latency(work, soc.minConfig());
    const TimeMs all_max = model.latency(work, soc.maxConfig());
    EXPECT_LT(result.events[0].execMs, 0.25 * all_min);
    EXPECT_GT(result.events[0].execMs, all_max);
}

TEST_F(SimFixture, OndemandSlowerRampThanInteractive)
{
    // Ondemand's 100 ms sampling leaves more of the event at the idle
    // configuration than Interactive's 20 ms timer.
    const Workload work{10.0, 600.0};
    const auto trace = makeTrace({clickEvent(1000.0, work)});
    InteractiveGovernor interactive;
    OndemandGovernor ondemand;
    RuntimeSimulator sim_a(soc, power, app);
    RuntimeSimulator sim_b(soc, power, app);
    const SimResult fast = sim_a.run(trace, interactive);
    const SimResult slow = sim_b.run(trace, ondemand);
    EXPECT_LT(fast.events[0].frameReady, slow.events[0].frameReady);
}

TEST_F(SimFixture, GovernorsDecayAfterIdle)
{
    // Two events separated by seconds of idle: the second starts from a
    // decayed configuration again (latency similar to the first's).
    const Workload work{5.0, 200.0};
    const auto trace = makeTrace({clickEvent(1000.0, work),
                                  clickEvent(8000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    InteractiveGovernor governor;
    const SimResult result = sim.run(trace, governor);
    EXPECT_NEAR(result.events[1].execMs, result.events[0].execMs,
                result.events[0].execMs * 0.25);
}

TEST_F(SimFixture, IdleTickAfterABusyWindowStillFires)
{
    // A short event at the idle configuration ends just before a tick
    // whose window it kept more than hispeed/up-threshold busy: that
    // tick must still fire and jump to max, even though the governor
    // sits at configForCapacity(0) and the main thread is idle. The
    // next event then runs at max.
    const int max_index = soc.configIndex(soc.maxConfig());
    const auto event_lasting = [&](TimeMs arrival, TimeMs ms_at_min) {
        const double ndep = (ms_at_min - 1.0) /
            model.cycleCoeff(soc.minConfig());
        return clickEvent(arrival, {1.0, ndep});
    };
    {
        // 20 ms timer: busy over [1.5, 19], so the tick at 20 sees 87.5%.
        InteractiveGovernor governor;
        RuntimeSimulator sim(soc, power, app);
        const SimResult result = sim.run(
            makeTrace({event_lasting(1.5, 17.5), event_lasting(50.0, 5.0)}),
            governor);
        EXPECT_NE(result.events[0].configIndex, max_index);
        EXPECT_EQ(result.events[1].configIndex, max_index);
    }
    {
        // 100 ms sampling: busy over [10, 95], so the tick at 100 sees 85%.
        OndemandGovernor governor;
        RuntimeSimulator sim(soc, power, app);
        const SimResult result = sim.run(
            makeTrace({event_lasting(10.0, 85.0), event_lasting(150.0, 5.0)}),
            governor);
        EXPECT_NE(result.events[0].configIndex, max_index);
        EXPECT_EQ(result.events[1].configIndex, max_index);
    }
}

// --------------------------------------------------------- Oracle unit

TEST_F(SimFixture, OraclePreExecutesAndMeetsEverything)
{
    const Workload heavy{20.0, 700.0};  // unmeetable reactively (300 ms)
    const auto trace = makeTrace({clickEvent(5000.0, {3.0, 55.0}),
                                  clickEvent(10000.0, heavy)});
    RuntimeSimulator sim(soc, power, app);
    OracleScheduler oracle;
    const SimResult result = sim.run(trace, oracle);
    EXPECT_NEAR(result.violationRate(), 0.0, 1e-12);
    // The heavy event's frame was ready before its arrival.
    EXPECT_LT(result.events[1].frameReady, result.events[1].arrival);
    EXPECT_TRUE(result.events[1].servedSpeculatively);
    EXPECT_EQ(oracle.plannedConfigs().size(), 2u);
}

TEST_F(SimFixture, BoostMeetsDeadlineForInFlightSpeculation)
{
    // Speculation starts on little@350 shortly before the arrival; the
    // driver adopts and boosts, and the event still meets its target.
    const Workload work{5.0, 150.0};  // ~1 s at little@350

    class AdoptBooster : public SchedulerDriver
    {
      public:
        std::string name() const override { return "AdoptBooster"; }
        std::optional<WorkItem>
        nextWork(SimulatorApi &api) override
        {
            // Wait until shortly before the (known-to-the-test) arrival
            // so the frame cannot finish on the little cluster in time.
            if (dispatched_ || api.now() < 1800.0)
                return std::nullopt;
            dispatched_ = true;
            WorkItem item;
            item.kind = WorkItem::Kind::Speculative;
            item.targetPosition = 0;
            item.predicted = {DomEventType::Click, 1, 0, 1.0};
            item.config = api.platform().minConfig();
            return item;
        }
        TimeMs sampleIntervalMs() const override { return 100.0; }
        void
        onArrival(SimulatorApi &api, int trace_index) override
        {
            api.adoptInFlight(trace_index);
            const TraceEvent &ev = api.arrivedEvent(trace_index);
            const VsyncClock vsync;
            const TimeMs deadline = std::floor(
                (ev.arrival + ev.qosTarget()) / vsync.periodMs()) *
                vsync.periodMs();
            api.boostInFlightToMeet(deadline);
        }

      private:
        bool dispatched_ = false;
    } driver;

    const auto trace = makeTrace({clickEvent(2000.0, work)});
    RuntimeSimulator sim(soc, power, app);
    const SimResult result = sim.run(trace, driver);
    EXPECT_FALSE(result.events[0].violated());
    EXPECT_TRUE(result.events[0].servedSpeculatively);
}

} // namespace
} // namespace pes

