/**
 * @file
 * Tests for the trace substrate: application registry, DOM synthesis,
 * trace serialization, the synthetic user model, and the oracle
 * feasibility repair pass.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/app_profile.hh"
#include "trace/dom_builder.hh"
#include "trace/generator.hh"
#include "trace/trace.hh"
#include "trace/user_model.hh"
#include "trace/workload_params.hh"
#include "util/stats.hh"
#include "web/dom_analyzer.hh"

namespace pes {
namespace {

// ------------------------------------------------------------ Registry

TEST(AppRegistry, TwelveSeenSixUnseen)
{
    // Paper Sec. 3 / 6.1.
    EXPECT_EQ(appRegistry().size(), 18u);
    EXPECT_EQ(seenApps().size(), 12u);
    EXPECT_EQ(unseenApps().size(), 6u);
}

TEST(AppRegistry, PaperAppNamesPresent)
{
    for (const char *name :
         {"163", "msn", "slashdot", "youtube", "google", "amazon", "ebay",
          "sina", "espn", "bbc", "cnn", "twitter"}) {
        EXPECT_TRUE(appByName(name).seen) << name;
    }
    for (const char *name : {"yahoo", "nytimes", "stackoverflow",
                             "taobao", "tmall", "jd"}) {
        EXPECT_FALSE(appByName(name).seen) << name;
    }
}

TEST(AppRegistry, UniqueNamesAndSeeds)
{
    std::set<std::string> names;
    std::set<uint64_t> seeds;
    for (const AppProfile &p : appRegistry()) {
        names.insert(p.name);
        seeds.insert(p.domSeed);
    }
    EXPECT_EQ(names.size(), 18u);
    EXPECT_EQ(seeds.size(), 18u);
}

TEST(AppRegistry, HarderAppsHaveHigherTemperature)
{
    // Sec. 6.2: google (big clickable area) is hardest, slashdot easiest.
    const double google = appByName("google").behaviorTemp;
    const double slashdot = appByName("slashdot").behaviorTemp;
    for (const AppProfile &p : appRegistry()) {
        EXPECT_LE(p.behaviorTemp, google + 1e-12) << p.name;
        EXPECT_GE(p.behaviorTemp, slashdot - 1e-12) << p.name;
    }
}

// ------------------------------------------------------------ Builder

class BuilderTest : public ::testing::Test
{
  protected:
    const AppProfile &profile = appByName("cnn");
    WebApp app = AppDomBuilder(profile).build();
};

TEST_F(BuilderTest, DeterministicFromSeed)
{
    const WebApp again = AppDomBuilder(profile).build();
    ASSERT_EQ(app.numPages(), again.numPages());
    for (int p = 0; p < app.numPages(); ++p) {
        ASSERT_EQ(app.dom(p).size(), again.dom(p).size());
        for (size_t n = 0; n < app.dom(p).size(); ++n) {
            const DomNode &a = app.dom(p).node(static_cast<NodeId>(n));
            const DomNode &b = again.dom(p).node(static_cast<NodeId>(n));
            EXPECT_EQ(a.role, b.role);
            EXPECT_DOUBLE_EQ(a.rect.y, b.rect.y);
            EXPECT_EQ(a.handlers.size(), b.handlers.size());
        }
    }
}

TEST_F(BuilderTest, EveryPageHasDocumentHandlers)
{
    for (int p = 0; p < app.numPages(); ++p) {
        const DomNode &root = app.dom(p).node(0);
        EXPECT_NE(root.handlerFor(DomEventType::Load), nullptr);
        const bool has_move =
            root.handlerFor(DomEventType::Scroll) ||
            root.handlerFor(DomEventType::TouchMove);
        EXPECT_TRUE(has_move);
    }
}

TEST_F(BuilderTest, MenusStartHiddenAndContainItems)
{
    const DomTree &dom = app.dom(0);
    int hidden_menus = 0;
    for (size_t n = 0; n < dom.size(); ++n) {
        const DomNode &node = dom.node(static_cast<NodeId>(n));
        if (node.role == NodeRole::Container && !node.displayed) {
            ++hidden_menus;
            EXPECT_FALSE(node.children.empty());
        }
    }
    EXPECT_EQ(hidden_menus, profile.menuCount);
}

TEST_F(BuilderTest, TapManifestationIsSiteWide)
{
    // All tap handlers of an app share one DOM type (site convention).
    std::set<DomEventType> tap_types;
    for (int p = 0; p < app.numPages(); ++p) {
        const DomTree &dom = app.dom(p);
        for (size_t n = 0; n < dom.size(); ++n) {
            for (const HandlerSpec &h :
                 dom.node(static_cast<NodeId>(n)).handlers) {
                if (interactionOf(h.type) == Interaction::Tap &&
                    h.type != DomEventType::Submit) {
                    tap_types.insert(h.type);
                }
            }
        }
    }
    EXPECT_EQ(tap_types.size(), 1u);
}

TEST_F(BuilderTest, PageHeightMatchesProfile)
{
    const DomTree &dom = app.dom(0);
    EXPECT_NEAR(dom.pageHeight(), profile.pageHeightFactor * 640.0,
                640.0 * 0.2);
}

TEST_F(BuilderTest, FormOnlyInFormApps)
{
    auto has_submit = [](const WebApp &a) {
        for (int p = 0; p < a.numPages(); ++p) {
            const DomTree &dom = a.dom(p);
            for (size_t n = 0; n < dom.size(); ++n) {
                if (dom.node(static_cast<NodeId>(n)).role ==
                    NodeRole::SubmitButton) {
                    return true;
                }
            }
        }
        return false;
    };
    EXPECT_FALSE(has_submit(app));  // cnn has no form
    const WebApp amazon = AppDomBuilder(appByName("amazon")).build();
    EXPECT_TRUE(has_submit(amazon));
}

TEST_F(BuilderTest, SharedHandlersCarryClassIds)
{
    const DomTree &dom = app.dom(0);
    int with_class = 0;
    for (size_t n = 0; n < dom.size(); ++n) {
        for (const HandlerSpec &h :
             dom.node(static_cast<NodeId>(n)).handlers) {
            if (h.handlerClassId >= 0)
                ++with_class;
        }
    }
    EXPECT_GT(with_class, 3);
}

// --------------------------------------------------------- Serialization

TEST(TraceFormat, SerializeRoundTrip)
{
    AcmpPlatform platform = AcmpPlatform::exynos5410();
    TraceGenerator gen(platform);
    const InteractionTrace trace = gen.generate(appByName("ebay"), 4242);
    ASSERT_FALSE(trace.events.empty());

    const auto restored = InteractionTrace::deserialize(trace.serialize());
    ASSERT_TRUE(restored.has_value());
    ASSERT_EQ(restored->events.size(), trace.events.size());
    EXPECT_EQ(restored->appName, trace.appName);
    EXPECT_EQ(restored->userSeed, trace.userSeed);
    for (size_t i = 0; i < trace.events.size(); ++i) {
        const TraceEvent &a = trace.events[i];
        const TraceEvent &b = restored->events[i];
        EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.node, b.node);
        EXPECT_DOUBLE_EQ(a.callbackWork.ndep, b.callbackWork.ndep);
        EXPECT_DOUBLE_EQ(a.renderWork.total().tmemMs,
                         b.renderWork.total().tmemMs);
        EXPECT_EQ(a.classKey, b.classKey);
        EXPECT_EQ(a.issuesNetwork, b.issuesNetwork);
    }
}

TEST(TraceFormat, FileRoundTrip)
{
    AcmpPlatform platform = AcmpPlatform::exynos5410();
    TraceGenerator gen(platform);
    const InteractionTrace trace = gen.generate(appByName("bbc"), 7);
    const std::string path = "/tmp/pes_trace_test.txt";
    ASSERT_TRUE(trace.saveToFile(path));
    const auto restored = InteractionTrace::loadFromFile(path);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->serialize(), trace.serialize());
    std::remove(path.c_str());
}

TEST(TraceFormat, DeserializeRejectsGarbage)
{
    EXPECT_FALSE(InteractionTrace::deserialize("nope").has_value());
    EXPECT_FALSE(
        InteractionTrace::deserialize("pes-trace-v1\napp x\nuser 1\n"
                                      "events 5\n1 2 3")
            .has_value());
    // A header count far beyond the data must not size an allocation.
    EXPECT_FALSE(
        InteractionTrace::deserialize("pes-trace-v1\napp x\nuser 1\n"
                                      "events 999999999999\n")
            .has_value());
    // A session without events cannot be replayed.
    EXPECT_FALSE(
        InteractionTrace::deserialize("pes-trace-v1\napp x\nuser 1\n"
                                      "events 0\n")
            .has_value());
    // Neither can one whose arrivals decrease, or whose work is
    // negative (fields: arrival type node page x y, callback tmem ndep,
    // four render stages, network, class key).
    EXPECT_FALSE(
        InteractionTrace::deserialize(
            "pes-trace-v1\napp x\nuser 1\nevents 2\n"
            "5 load 0 0 0 0 1 1 1 1 1 1 1 1 1 1 0 7\n"
            "4 click 0 0 0 0 1 1 1 1 1 1 1 1 1 1 0 7\n")
            .has_value());
    EXPECT_FALSE(
        InteractionTrace::deserialize(
            "pes-trace-v1\napp x\nuser 1\nevents 1\n"
            "5 load 0 0 0 0 1 -1 1 1 1 1 1 1 1 1 0 7\n")
            .has_value());
    // The same lines in order and with non-negative work parse.
    EXPECT_TRUE(
        InteractionTrace::deserialize(
            "pes-trace-v1\napp x\nuser 1\nevents 2\n"
            "4 load 0 0 0 0 1 1 1 1 1 1 1 1 1 1 0 7\n"
            "5 click 0 0 0 0 1 1 1 1 1 1 1 1 1 1 0 7\n")
            .has_value());
}

// --------------------------------------------------------- User model

class UserModelTest : public ::testing::Test
{
  protected:
    AcmpPlatform platform = AcmpPlatform::exynos5410();
    TraceGenerator gen{platform};
};

TEST_F(UserModelTest, DeterministicPerSeed)
{
    const InteractionTrace a = gen.generate(appByName("espn"), 11);
    const InteractionTrace b = gen.generate(appByName("espn"), 11);
    EXPECT_EQ(a.serialize(), b.serialize());
}

TEST_F(UserModelTest, DifferentUsersDiffer)
{
    const InteractionTrace a = gen.generate(appByName("espn"), 11);
    const InteractionTrace b = gen.generate(appByName("espn"), 12);
    EXPECT_NE(a.serialize(), b.serialize());
}

TEST_F(UserModelTest, SessionStartsWithLandingLoad)
{
    const InteractionTrace trace = gen.generate(appByName("msn"), 3);
    ASSERT_FALSE(trace.events.empty());
    EXPECT_EQ(trace.events.front().type, DomEventType::Load);
    EXPECT_DOUBLE_EQ(trace.events.front().arrival, 0.0);
}

TEST_F(UserModelTest, SessionStatisticsInPaperRegime)
{
    // Paper Sec. 5.5: ~110 s sessions, ~25 events on average, <= 70.
    RunningStats events, duration;
    for (const char *name : {"cnn", "bbc", "google", "twitter"}) {
        for (uint64_t seed = 50; seed < 56; ++seed) {
            const InteractionTrace t = gen.generate(appByName(name), seed);
            events.add(static_cast<double>(t.size()));
            duration.add(t.duration());
            EXPECT_LE(t.size(),
                      static_cast<size_t>(UserModel::kMaxEvents));
            EXPECT_GE(t.size(), 8u);
        }
    }
    EXPECT_GT(events.mean(), 15.0);
    EXPECT_LT(events.mean(), 60.0);
    EXPECT_GT(duration.mean(), 60000.0);
    EXPECT_LT(duration.mean(), 160000.0);
}

TEST_F(UserModelTest, ArrivalsStrictlyIncrease)
{
    const InteractionTrace trace = gen.generate(appByName("amazon"), 9);
    for (size_t i = 1; i < trace.events.size(); ++i)
        EXPECT_GT(trace.events[i].arrival, trace.events[i - 1].arrival);
}

TEST_F(UserModelTest, EventsTargetRegisteredHandlers)
{
    const InteractionTrace trace = gen.generate(appByName("cnn"), 21);
    const WebApp &app = gen.appFor(appByName("cnn"));
    WebAppSession session(app);
    for (const TraceEvent &e : trace.events) {
        ASSERT_EQ(session.currentPage(), e.pageId);
        const HandlerSpec *h =
            session.dom().node(e.node).handlerFor(e.type);
        ASSERT_NE(h, nullptr);
        session.commitEvent(e.node, e.type);
    }
}

TEST_F(UserModelTest, LoadLatencyCapHolds)
{
    const DvfsLatencyModel model(platform);
    for (const char *name : {"sina", "cnn", "taobao"}) {
        const InteractionTrace trace = gen.generate(appByName(name), 33);
        for (const TraceEvent &e : trace.events) {
            if (e.type != DomEventType::Load)
                continue;
            EXPECT_LE(model.latency(e.totalWork(), platform.maxConfig()),
                      kMaxLoadLatencyAtMaxMs + 1.0);
        }
    }
}

TEST_F(UserModelTest, WorkloadsScaleWithInteraction)
{
    // Loads carry orders of magnitude more work than moves.
    const InteractionTrace trace = gen.generate(appByName("cnn"), 44);
    RunningStats load_work, move_work;
    for (const TraceEvent &e : trace.events) {
        if (interactionOf(e.type) == Interaction::Load)
            load_work.add(e.totalWork().ndep);
        if (interactionOf(e.type) == Interaction::Move)
            move_work.add(e.totalWork().ndep);
    }
    ASSERT_GT(load_work.count(), 0u);
    ASSERT_GT(move_work.count(), 0u);
    EXPECT_GT(load_work.mean(), 30.0 * move_work.mean());
}

TEST_F(UserModelTest, TrainingAndEvalSeedsDisjoint)
{
    const auto train = gen.trainingSet(appByName("bbc"), 2);
    const auto eval = gen.evaluationSet(appByName("bbc"), 2);
    ASSERT_EQ(train.size(), 2u);
    ASSERT_EQ(eval.size(), 2u);
    for (const auto &t : train)
        for (const auto &e : eval)
            EXPECT_NE(t.userSeed, e.userSeed);
}

// --------------------------------------------------- Feasibility repair

TEST(FeasibilityRepair, EnforcesOracleChainSlack)
{
    AcmpPlatform platform = AcmpPlatform::exynos5410();
    const DvfsLatencyModel model(platform);
    const VsyncClock vsync;

    // A deliberately infeasible burst: three heavy events at t=0,1,2 ms.
    InteractionTrace trace;
    trace.appName = "synthetic";
    for (int i = 0; i < 3; ++i) {
        TraceEvent e;
        e.arrival = static_cast<double>(i);
        e.type = DomEventType::Click;
        e.callbackWork = {10.0, 400.0};  // ~232 ms at big max
        trace.events.push_back(e);
    }
    const int adjusted = repairOracleFeasibility(trace, model, vsync);
    EXPECT_GT(adjusted, 0);

    // Post-repair: a back-to-back max-config chain meets every deadline
    // with at least a VSync period of slack.
    TimeMs finish = 0.0;
    for (const TraceEvent &e : trace.events) {
        finish += model.latency(e.totalWork(), platform.maxConfig());
        EXPECT_LE(finish,
                  e.arrival + e.qosTarget() - vsync.periodMs() + 1e-6);
    }
    // Arrivals stay ordered.
    for (size_t i = 1; i < trace.events.size(); ++i)
        EXPECT_GT(trace.events[i].arrival, trace.events[i - 1].arrival);
}

TEST(FeasibilityRepair, NoOpOnFeasibleTraces)
{
    AcmpPlatform platform = AcmpPlatform::exynos5410();
    const DvfsLatencyModel model(platform);
    InteractionTrace trace;
    TraceEvent e;
    e.arrival = 0.0;
    e.type = DomEventType::Load;
    e.callbackWork = {100.0, 1000.0};  // ~0.66 s at max, 3 s target
    trace.events.push_back(e);
    EXPECT_EQ(repairOracleFeasibility(trace, model, VsyncClock()), 0);
    EXPECT_DOUBLE_EQ(trace.events[0].arrival, 0.0);
}

TEST(FeasibilityRepair, GeneratedTracesAreOracleFeasible)
{
    AcmpPlatform platform = AcmpPlatform::exynos5410();
    TraceGenerator gen(platform);
    const DvfsLatencyModel model(platform);
    const VsyncClock vsync;
    for (const char *name : {"cnn", "twitter", "google"}) {
        const InteractionTrace trace = gen.generate(appByName(name), 60);
        TimeMs finish = 0.0;
        for (const TraceEvent &e : trace.events) {
            finish += model.latency(e.totalWork(), platform.maxConfig());
            EXPECT_LE(finish, e.arrival + e.qosTarget() + 1e-6)
                << name;
        }
    }
}

// --------------------------------------------------------- Class keys

TEST(ClassKeys, NavigationsKeyOnDestination)
{
    HandlerSpec nav;
    nav.type = DomEventType::Load;
    nav.effect = {EffectKind::Navigate, kInvalidNode, 2, 0.0};
    // Two different links to the same destination share a class.
    EXPECT_EQ(eventClassKeyFor("cnn", 0, 10, nav),
              eventClassKeyFor("cnn", 1, 99, nav));
    HandlerSpec other_dest = nav;
    other_dest.effect.pageId = 3;
    EXPECT_NE(eventClassKeyFor("cnn", 0, 10, nav),
              eventClassKeyFor("cnn", 0, 10, other_dest));
}

TEST(ClassKeys, SharedCallbacksShareClasses)
{
    HandlerSpec shared;
    shared.type = DomEventType::Click;
    shared.handlerClassId = 1;
    EXPECT_EQ(eventClassKeyFor("cnn", 0, 10, shared),
              eventClassKeyFor("cnn", 0, 77, shared));
    // ...but not across pages or apps.
    EXPECT_NE(eventClassKeyFor("cnn", 0, 10, shared),
              eventClassKeyFor("cnn", 1, 10, shared));
    EXPECT_NE(eventClassKeyFor("cnn", 0, 10, shared),
              eventClassKeyFor("bbc", 0, 10, shared));
}

TEST(ClassKeys, UniqueHandlersKeyOnNode)
{
    HandlerSpec unique;
    unique.type = DomEventType::Click;
    unique.handlerClassId = -1;
    EXPECT_NE(eventClassKeyFor("cnn", 0, 10, unique),
              eventClassKeyFor("cnn", 0, 11, unique));
}

} // namespace
} // namespace pes
