/**
 * @file
 * Property suite over all 18 benchmark applications: every app's
 * synthesized DOM, generated sessions, and simulated replays must
 * satisfy the structural invariants the evaluation relies on —
 * parameterized so a regression in any single profile is pinpointed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "core/device_context.hh"
#include "trace/dom_builder.hh"
#include "trace/user_model.hh"
#include "util/logging.hh"
#include "web/dom_analyzer.hh"

namespace pes {
namespace {

class PerApp : public ::testing::TestWithParam<int>
{
  protected:
    const AppProfile &
    profile() const
    {
        return appRegistry()[static_cast<size_t>(GetParam())];
    }

    static DeviceContext &
    trainedDevice()
    {
        static DeviceContext device;
        static bool init = false;
        if (!init) {
            setQuiet(true);
            device.model();
            init = true;
        }
        return device;
    }
};

TEST_P(PerApp, DomIsWellFormed)
{
    const AppProfile &p = profile();
    const WebApp &app = trainedDevice().generator().appFor(p);
    ASSERT_EQ(app.numPages(), p.numPages);
    for (int page = 0; page < app.numPages(); ++page) {
        const DomTree &dom = app.dom(page);
        EXPECT_GT(dom.size(), 10u) << p.name << " page " << page;
        // Parent/child links are consistent.
        for (size_t n = 1; n < dom.size(); ++n) {
            const DomNode &node = dom.node(static_cast<NodeId>(n));
            ASSERT_GE(node.parent, 0);
            const auto &siblings = dom.node(node.parent).children;
            EXPECT_NE(std::find(siblings.begin(), siblings.end(),
                                node.id),
                      siblings.end());
        }
        // Every Navigate effect targets an existing page.
        for (size_t n = 0; n < dom.size(); ++n) {
            for (const HandlerSpec &h :
                 dom.node(static_cast<NodeId>(n)).handlers) {
                if (h.effect.kind == EffectKind::Navigate) {
                    EXPECT_GE(h.effect.pageId, 0);
                    EXPECT_LT(h.effect.pageId, app.numPages());
                }
                if (h.effect.kind == EffectKind::ToggleDisplay) {
                    EXPECT_GE(h.effect.target, 0);
                    EXPECT_LT(h.effect.target,
                              static_cast<NodeId>(dom.size()));
                }
            }
        }
        // The semantic tree memoized every handler.
        EXPECT_GT(app.semantics(page).size(), 0u);
    }
}

TEST_P(PerApp, LnesNeverEmptyDuringSession)
{
    // The user model and the predictor both require that some event is
    // always possible; replay a committed session checking the LNES.
    const AppProfile &p = profile();
    const WebApp &app = trainedDevice().generator().appFor(p);
    const InteractionTrace trace =
        trainedDevice().generator().generate(p, 4040);
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    for (const TraceEvent &e : trace.events) {
        EXPECT_FALSE(
            analyzer.likelyNextEvents(session.snapshotState()).empty())
            << p.name;
        session.commitEvent(e.node, e.type);
    }
}

/** Exact, field-by-field equality of two DOM analyses. */
bool
sameAnalysis(const DomAnalysis &a, const DomAnalysis &b)
{
    const auto same_candidate = [](const AnalyzedCandidate &x,
                                   const AnalyzedCandidate &y) {
        return x.event == y.event && x.rect.x == y.rect.x &&
            x.rect.y == y.rect.y && x.rect.w == y.rect.w &&
            x.rect.h == y.rect.h && x.role == y.role;
    };
    return std::equal(a.candidates.begin(), a.candidates.end(),
                      b.candidates.begin(), b.candidates.end(),
                      same_candidate) &&
        a.stats.clickableFrac == b.stats.clickableFrac &&
        a.stats.visibleLinkFrac == b.stats.visibleLinkFrac &&
        a.stats.visibleNodes == b.stats.visibleNodes &&
        a.stats.scrollable == b.stats.scrollable &&
        a.viewport.width == b.viewport.width &&
        a.viewport.height == b.viewport.height &&
        a.viewport.scrollY == b.viewport.scrollY;
}

/** What an analyzer on a freshly built copy of @p app computes for
 *  @p state: the copy starts with an empty memo, so this traverses. */
DomAnalysis
freshAnalysis(const WebApp &app, const DomOverlay &state)
{
    const WebApp copy = app;
    return DomAnalyzer(WebAppSession(copy)).analyze(state);
}

TEST_P(PerApp, MemoizedAnalysisMatchesFreshAnalyzer)
{
    // Analyses are memoized in the app, so every session of it shares
    // them, as in trace synthesis, training and PES. One session's
    // committed states and short hypothetical rollouts from them fill
    // the app's memo; a second session then walks the same states. At
    // every state, each session's analyze() must equal what an analyzer
    // on a fresh copy of the app computes, and the second session must
    // be answered from the entries the first one filled.
    const AppProfile &p = profile();
    const WebApp &app = trainedDevice().generator().appFor(p);
    const InteractionTrace trace =
        trainedDevice().generator().generate(p, 5050);

    // Every reference the first session took, with a copy of what it
    // must still say.
    std::vector<std::pair<const DomAnalysis *, DomAnalysis>> taken;
    size_t revisited = 0;
    const auto replay = [&](bool first) {
        WebAppSession session(app);
        const DomAnalyzer live(session);
        std::string where;
        const auto check = [&](const DomOverlay &state) {
            const DomAnalysis &got = live.analyze(state);
            const DomAnalysis want = freshAnalysis(app, state);
            EXPECT_TRUE(sameAnalysis(got, want)) << where;
            if (first) {
                taken.emplace_back(&got, want);
            } else {
                ASSERT_LT(revisited, taken.size()) << where;
                EXPECT_EQ(&got, taken[revisited++].first) << where;
            }
        };

        // A toggle, a scroll, then a navigation to the page the session
        // is on (the root's reload), each applied on top of the previous
        // one.
        const auto rolls = [&](const CandidateEvent &event, EffectKind kind,
                               const DomOverlay &state) {
            const auto effect =
                app.semantics(state.pageId).effectOf(event.node, event.type);
            return effect && effect->kind == kind &&
                (kind != EffectKind::Navigate ||
                 effect->pageId == session.currentPage());
        };
        std::array<int, 3> rolled{};
        const std::array<EffectKind, 3> kinds = {EffectKind::ToggleDisplay,
                                                 EffectKind::ScrollBy,
                                                 EffectKind::Navigate};
        const std::string name =
            p.name + (first ? " first" : " second") + " session";
        for (size_t e = 0; e < trace.events.size(); ++e) {
            DomOverlay state = session.snapshotState();
            where = name + " event " + std::to_string(e);
            check(state);
            for (size_t k = 0; k < kinds.size(); ++k) {
                const auto &cands = live.analyze(state).candidates;
                const auto it = std::find_if(
                    cands.begin(), cands.end(),
                    [&](const AnalyzedCandidate &c) {
                        return rolls(c.event, kinds[k], state);
                    });
                if (it == cands.end())
                    continue;
                live.applyHypothetical(it->event, state);
                ++rolled[k];
                where = name + " event " + std::to_string(e) +
                    " rollout " + std::to_string(k);
                check(state);
            }
            session.commitEvent(trace.events[e].node,
                                trace.events[e].type);
        }
        EXPECT_GT(rolled[0], 0) << name << ": no toggle rolled out";
        EXPECT_GT(rolled[1], 0) << name << ": no scroll rolled out";
        EXPECT_GT(rolled[2], 0) << name << ": no reload rolled out";
    };
    replay(true);
    replay(false);
    EXPECT_EQ(revisited, taken.size()) << p.name;

    // References the first session took still hold their analyses.
    for (size_t i = 0; i < taken.size(); ++i) {
        EXPECT_TRUE(sameAnalysis(*taken[i].first, taken[i].second))
            << p.name << " reference " << i;
    }
}

TEST_P(PerApp, PredictedEventReachesTheCommittedState)
{
    // PES predicts from rollouts of the committed state (Sec. 5.2,
    // Fig. 7). At every committed state of a session, each LNES
    // candidate rolled out must be analyzed exactly as the same event
    // committed on a copy of the session.
    const AppProfile &p = profile();
    const WebApp &app = trainedDevice().generator().appFor(p);
    const InteractionTrace trace =
        trainedDevice().generator().generate(p, 5050);
    WebAppSession session(app);
    const DomAnalyzer analyzer(session);
    int compared = 0;
    int differing = 0;
    std::string first;
    for (size_t e = 0; e < trace.events.size(); ++e) {
        const DomOverlay committed = session.snapshotState();
        for (const AnalyzedCandidate &cand :
             analyzer.analyze(committed).candidates) {
            DomOverlay predicted = committed;
            analyzer.applyHypothetical(cand.event, predicted);
            WebAppSession real = session;
            real.commitEvent(cand.event.node, cand.event.type);
            ++compared;
            if (sameAnalysis(analyzer.analyze(predicted),
                             DomAnalyzer(real).analyze(
                                 real.snapshotState())))
                continue;
            if (differing++ == 0) {
                first = "event " + std::to_string(e) + ", " +
                    domEventTypeName(cand.event.type) + " on node " +
                    std::to_string(cand.event.node);
            }
        }
        session.commitEvent(trace.events[e].node, trace.events[e].type);
    }
    EXPECT_GT(compared, 0) << p.name;
    EXPECT_EQ(differing, 0) << p.name << ": " << differing << " of "
                            << compared << " differ, first at " << first;
}

TEST_P(PerApp, TraceInvariants)
{
    const AppProfile &p = profile();
    DeviceContext &device = trainedDevice();
    const DvfsLatencyModel model(device.platform());
    const VsyncClock vsync;

    const InteractionTrace trace = device.generator().generate(p, 7070);
    ASSERT_GE(trace.size(), 8u) << p.name;
    ASSERT_LE(trace.size(), static_cast<size_t>(UserModel::kMaxEvents));
    EXPECT_EQ(trace.events.front().type, DomEventType::Load);

    TimeMs chain = 0.0;
    for (size_t i = 0; i < trace.events.size(); ++i) {
        const TraceEvent &e = trace.events[i];
        if (i > 0) {
            EXPECT_GT(e.arrival, trace.events[i - 1].arrival) << p.name;
        }
        // Positive workloads with a sane ceiling.
        EXPECT_GT(e.totalWork().ndep, 0.0);
        EXPECT_LT(e.totalWork().ndep, 10000.0);
        // Oracle feasibility: back-to-back max-config chain meets every
        // deadline (the zero-violation guarantee).
        chain += model.latency(e.totalWork(), device.platform().maxConfig());
        EXPECT_LE(vsync.nextVsyncAt(std::max(chain, e.arrival)),
                  e.arrival + e.qosTarget() + 1e-6)
            << p.name << " event " << i;
        // Class keys are stable and non-zero.
        EXPECT_NE(e.classKey, 0u);
    }
}

TEST_P(PerApp, OracleZeroViolationsEverywhere)
{
    const AppProfile &p = profile();
    DeviceContext &device = trainedDevice();
    const auto oracle = device.makeDriver(SchedulerKind::Oracle);
    const InteractionTrace trace = device.generator().generate(p, 8081);
    const SimResult r = device.replay(p, trace, *oracle);
    EXPECT_NEAR(r.violationRate(), 0.0, 1e-12) << p.name;
    EXPECT_EQ(r.events.size(), trace.size());
}

TEST_P(PerApp, PesServesEveryEventAndStaysSane)
{
    const AppProfile &p = profile();
    DeviceContext &device = trainedDevice();
    const auto pes = device.makeDriver(SchedulerKind::Pes);
    const InteractionTrace trace = device.generator().generate(p, 9092);
    const SimResult r = device.replay(p, trace, *pes);

    ASSERT_EQ(r.events.size(), trace.size());
    for (const EventRecord &e : r.events) {
        EXPECT_GE(e.frameReady, 0.0);
        EXPECT_GE(e.displayed, e.arrival);
        EXPECT_GE(e.configIndex, 0);
        EXPECT_LT(e.configIndex, device.platform().numConfigs());
    }
    // Energy identity holds on every app.
    EXPECT_NEAR(r.totalEnergy,
                r.busyEnergy + r.idleEnergy + r.overheadEnergy +
                    r.wasteEnergy,
                1e-6)
        << p.name;
    // Predictions were validated (unless the app tripped the fallback).
    if (!r.fellBackToReactive) {
        EXPECT_GT(r.predictionsMade, 0) << p.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, PerApp, ::testing::Range(0, 18),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string name =
            appRegistry()[static_cast<size_t>(info.param)].name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace pes
