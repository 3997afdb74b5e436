/**
 * @file
 * Property suite over all 18 benchmark applications: every app's
 * synthesized DOM, generated sessions, and simulated replays must
 * satisfy the structural invariants the evaluation relies on —
 * parameterized so a regression in any single profile is pinpointed.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
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

    static Experiment &
    experiment()
    {
        static Experiment exp;
        static bool init = false;
        if (!init) {
            setQuiet(true);
            exp.trainedModel();
            init = true;
        }
        return exp;
    }
};

TEST_P(PerApp, DomIsWellFormed)
{
    const AppProfile &p = profile();
    const WebApp &app = experiment().generator().appFor(p);
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
    const WebApp &app = experiment().generator().appFor(p);
    const InteractionTrace trace =
        experiment().generator().generate(p, 4040);
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    for (const TraceEvent &e : trace.events) {
        EXPECT_FALSE(
            analyzer.likelyNextEvents(session.snapshotState()).empty())
            << p.name;
        session.commitEvent(e.node, e.type);
    }
}

TEST_P(PerApp, TraceInvariants)
{
    const AppProfile &p = profile();
    Experiment &exp = experiment();
    const DvfsLatencyModel model(exp.platform());
    const VsyncClock vsync;

    const InteractionTrace trace = exp.generator().generate(p, 7070);
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
        chain += model.latency(e.totalWork(), exp.platform().maxConfig());
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
    Experiment &exp = experiment();
    const auto oracle = exp.makeScheduler(SchedulerKind::Oracle);
    const InteractionTrace trace = exp.generator().generate(p, 8081);
    const SimResult r = exp.runTrace(p, trace, *oracle);
    EXPECT_NEAR(r.violationRate(), 0.0, 1e-12) << p.name;
    EXPECT_EQ(r.events.size(), trace.size());
}

TEST_P(PerApp, PesServesEveryEventAndStaysSane)
{
    const AppProfile &p = profile();
    Experiment &exp = experiment();
    const auto pes = exp.makeScheduler(SchedulerKind::Pes);
    const InteractionTrace trace = exp.generator().generate(p, 9092);
    const SimResult r = exp.runTrace(p, trace, *pes);

    ASSERT_EQ(r.events.size(), trace.size());
    for (const EventRecord &e : r.events) {
        EXPECT_GE(e.frameReady, 0.0);
        EXPECT_GE(e.displayed, e.arrival);
        EXPECT_GE(e.configIndex, 0);
        EXPECT_LT(e.configIndex, exp.platform().numConfigs());
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
