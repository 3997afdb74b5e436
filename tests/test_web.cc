/**
 * @file
 * Unit tests for the web-runtime substrate: event taxonomy, DOM tree,
 * semantic tree, DOM analyzer (LNES), rendering pipeline, VSync clock,
 * event loop, and WebApp sessions.
 */

#include <gtest/gtest.h>

#include "web/dom.hh"
#include "web/dom_analyzer.hh"
#include "web/event_loop.hh"
#include "web/event_types.hh"
#include "web/render_pipeline.hh"
#include "web/semantic_tree.hh"
#include "web/vsync.hh"
#include "web/web_app.hh"

namespace pes {
namespace {

// ------------------------------------------------------------ Events

TEST(EventTypes, QosTargetsPerPaper)
{
    // Sec. 4.2: load 3 s, tap 300 ms, move 33 ms.
    EXPECT_DOUBLE_EQ(qosTargetMs(DomEventType::Load), 3000.0);
    EXPECT_DOUBLE_EQ(qosTargetMs(DomEventType::Click), 300.0);
    EXPECT_DOUBLE_EQ(qosTargetMs(DomEventType::TouchStart), 300.0);
    EXPECT_DOUBLE_EQ(qosTargetMs(DomEventType::Submit), 300.0);
    EXPECT_DOUBLE_EQ(qosTargetMs(DomEventType::Scroll), 33.0);
    EXPECT_DOUBLE_EQ(qosTargetMs(DomEventType::TouchMove), 33.0);
}

TEST(EventTypes, ManifestationsMapToInteractions)
{
    EXPECT_EQ(interactionOf(DomEventType::Click), Interaction::Tap);
    EXPECT_EQ(interactionOf(DomEventType::TouchStart), Interaction::Tap);
    EXPECT_EQ(interactionOf(DomEventType::Scroll), Interaction::Move);
    EXPECT_EQ(interactionOf(DomEventType::TouchMove), Interaction::Move);
    EXPECT_EQ(interactionOf(DomEventType::Load), Interaction::Load);
}

TEST(EventTypes, NameRoundTrip)
{
    for (int i = 0; i < kNumDomEventTypes; ++i) {
        const auto type = static_cast<DomEventType>(i);
        DomEventType parsed;
        ASSERT_TRUE(parseDomEventType(domEventTypeName(type), parsed));
        EXPECT_EQ(parsed, type);
    }
    DomEventType out;
    EXPECT_FALSE(parseDomEventType("mousewheel", out));
}

// ------------------------------------------------------------ Geometry

TEST(Geometry, IntersectionArea)
{
    const Rect a{0, 0, 10, 10};
    const Rect b{5, 5, 10, 10};
    EXPECT_DOUBLE_EQ(a.intersectionArea(b), 25.0);
    EXPECT_TRUE(a.intersects(b));
    const Rect c{20, 20, 5, 5};
    EXPECT_DOUBLE_EQ(a.intersectionArea(c), 0.0);
    EXPECT_FALSE(a.intersects(c));
}

TEST(Geometry, ViewportRectTracksScroll)
{
    Viewport v;
    v.scrollY = 500.0;
    EXPECT_DOUBLE_EQ(v.rect().y, 500.0);
    EXPECT_DOUBLE_EQ(v.rect().h, v.height);
}

// ------------------------------------------------------------ DOM

class DomFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dom.node(dom.root()).rect = {0, 0, 360, 2000};
        visible = dom.createNode(dom.root(), NodeRole::Button,
                                 {10, 100, 100, 40});
        below_fold = dom.createNode(dom.root(), NodeRole::Button,
                                    {10, 1500, 100, 40});
        hidden_menu = dom.createNode(dom.root(), NodeRole::Container,
                                     {0, 56, 360, 200});
        dom.setDisplayed(hidden_menu, false);
        menu_item = dom.createNode(hidden_menu, NodeRole::MenuItem,
                                   {0, 60, 360, 48});
    }

    /** The page's analysis in @p state; every node but the containers
     *  gets a click listener, so a visible one is a LNES candidate. */
    DomAnalysis
    analyze(const DomOverlay &state) const
    {
        DomTree page = dom;
        HandlerSpec tap;
        tap.type = DomEventType::Click;
        for (NodeId id : {visible, below_fold, menu_item})
            page.addHandler(id, tap);
        WebApp app("fixture");
        app.addPage(std::move(page));
        return DomAnalyzer(WebAppSession(app)).analyze(state);
    }

    /** True when @p id is a LNES candidate of the page in @p state. */
    bool
    isVisible(NodeId id, const DomOverlay &state) const
    {
        const auto cands = analyze(state).candidates;
        return std::any_of(cands.begin(), cands.end(),
                           [id](const AnalyzedCandidate &c) {
                               return c.event.node == id;
                           });
    }

    DomTree dom;
    NodeId visible = kInvalidNode;
    NodeId below_fold = kInvalidNode;
    NodeId hidden_menu = kInvalidNode;
    NodeId menu_item = kInvalidNode;
};

TEST_F(DomFixture, VisibilityRequiresDisplayAndViewport)
{
    const DomOverlay state;  // scroll 0, 360x640
    EXPECT_TRUE(isVisible(visible, state));
    EXPECT_FALSE(isVisible(below_fold, state));  // outside viewport
    EXPECT_FALSE(isVisible(menu_item, state));   // ancestor hidden
}

TEST_F(DomFixture, AncestorDisplayGatesDescendants)
{
    DomOverlay state;
    EXPECT_FALSE(state.displayedOf(dom, menu_item));
    state.displayOverride[menu_item] = true;  // itself only: still hidden
    EXPECT_FALSE(state.displayedOf(dom, menu_item));
    state.displayOverride = {{hidden_menu, true}};
    EXPECT_TRUE(state.displayedOf(dom, menu_item));
    EXPECT_TRUE(isVisible(menu_item, state));
}

TEST_F(DomFixture, ScrollBringsNodesIntoView)
{
    DomOverlay state;
    state.scrollY = 1400.0;
    EXPECT_TRUE(isVisible(below_fold, state));
    EXPECT_FALSE(isVisible(visible, state));
}

TEST_F(DomFixture, VisibleNodesEnumerates)
{
    // Displayed nodes overlapping the viewport: the root and the button,
    // then the open menu and its item as well.
    DomOverlay state;
    EXPECT_EQ(analyze(state).stats.visibleNodes, 2);
    state.displayOverride[hidden_menu] = true;
    EXPECT_EQ(analyze(state).stats.visibleNodes, 4);
}

TEST_F(DomFixture, PageHeightIgnoresHiddenNodes)
{
    DomTree t;
    t.node(t.root()).rect = {0, 0, 360, 100};
    const NodeId tall =
        t.createNode(t.root(), NodeRole::Container, {0, 0, 360, 5000});
    EXPECT_DOUBLE_EQ(t.pageHeight(), 5000.0);
    t.setDisplayed(tall, false);
    EXPECT_DOUBLE_EQ(t.pageHeight(), 100.0);
}

TEST_F(DomFixture, HandlerLookup)
{
    HandlerSpec spec;
    spec.type = DomEventType::Click;
    dom.addHandler(visible, spec);
    EXPECT_NE(dom.node(visible).handlerFor(DomEventType::Click), nullptr);
    EXPECT_EQ(dom.node(visible).handlerFor(DomEventType::Scroll), nullptr);
    EXPECT_FALSE(dom.node(below_fold).hasListeners());
}

TEST(DomNode, ClickableRoles)
{
    DomNode n;
    for (NodeRole role : {NodeRole::Link, NodeRole::Button,
                          NodeRole::MenuToggle, NodeRole::MenuItem,
                          NodeRole::FormField, NodeRole::SubmitButton}) {
        n.role = role;
        EXPECT_TRUE(n.isClickable()) << nodeRoleName(role);
    }
    for (NodeRole role : {NodeRole::Container, NodeRole::Text,
                          NodeRole::Image}) {
        n.role = role;
        EXPECT_FALSE(n.isClickable()) << nodeRoleName(role);
    }
}

// ------------------------------------------------------ Semantic tree

TEST(SemanticTree, MemoizesToggleWithoutCallbackEvaluation)
{
    // The Fig. 7 scenario: a button whose callback toggles a menu. The
    // semantic tree must expose the post-event DOM state statically.
    DomTree dom;
    dom.node(dom.root()).rect = {0, 0, 360, 640};
    const NodeId menu =
        dom.createNode(dom.root(), NodeRole::Container, {0, 56, 360, 200});
    dom.setDisplayed(menu, false);
    const NodeId button = dom.createNode(dom.root(), NodeRole::MenuToggle,
                                         {8, 8, 40, 40});
    HandlerSpec spec;
    spec.type = DomEventType::Click;
    spec.effect = {EffectKind::ToggleDisplay, menu, -1, 0.0};
    dom.addHandler(button, spec);

    WebApp app("fig7");
    app.addPage(dom);
    const auto effect = app.semantics(0).effectOf(button, DomEventType::Click);
    ASSERT_TRUE(effect.has_value());
    EXPECT_EQ(effect->kind, EffectKind::ToggleDisplay);
    EXPECT_EQ(effect->target, menu);

    // Static rollout: the overlay knows the menu is open after the click.
    DomOverlay overlay;
    EXPECT_FALSE(overlay.displayedOf(dom, menu));
    app.applyEffect(overlay, *effect);
    EXPECT_TRUE(overlay.displayedOf(dom, menu));
    // And closed again after a second click (toggle semantics), which
    // leaves the state it started from.
    app.applyEffect(overlay, *effect);
    EXPECT_FALSE(overlay.displayedOf(dom, menu));
    EXPECT_TRUE(overlay.displayOverride.empty());
}

TEST(SemanticTree, UnknownNodeHasNoEntry)
{
    DomTree dom;
    const SemanticTree semantics = SemanticTree::fromDom(dom);
    EXPECT_FALSE(semantics.effectOf(5, DomEventType::Click).has_value());
}

// --------------------------------------------------------- WebApp

WebApp
makeTwoPageApp()
{
    WebApp app("testapp");
    for (int page = 0; page < 2; ++page) {
        DomTree dom;
        dom.node(dom.root()).rect = {0, 0, 360, 1280};
        const NodeId menu = dom.createNode(dom.root(), NodeRole::Container,
                                           {0, 56, 360, 96});
        dom.setDisplayed(menu, false);
        const NodeId toggle = dom.createNode(
            dom.root(), NodeRole::MenuToggle, {8, 8, 40, 40});
        HandlerSpec toggle_spec;
        toggle_spec.type = DomEventType::Click;
        toggle_spec.effect = {EffectKind::ToggleDisplay, menu, -1, 0.0};
        dom.addHandler(toggle, toggle_spec);

        const NodeId item =
            dom.createNode(menu, NodeRole::MenuItem, {0, 56, 360, 48});
        HandlerSpec nav;
        nav.type = DomEventType::Load;
        nav.effect = {EffectKind::Navigate, kInvalidNode, 1 - page, 0.0};
        dom.addHandler(item, nav);

        HandlerSpec move;
        move.type = DomEventType::Scroll;
        move.effect = {EffectKind::ScrollBy, kInvalidNode, -1, 384.0};
        dom.addHandler(dom.root(), move);
        app.addPage(std::move(dom));
    }
    return app;
}

TEST(WebApp, NavigationResetsOverlay)
{
    // To the other page, then a reload of it: each loads it as parsed.
    const WebApp app = makeTwoPageApp();
    DomOverlay overlay;
    for (int load = 0; load < 2; ++load) {
        overlay.scrollY = 300.0;
        overlay.displayOverride[1] = true;
        app.applyEffect(overlay,
                        {EffectKind::Navigate, kInvalidNode, 1, 0.0});
        EXPECT_EQ(overlay.pageId, 1) << load;
        EXPECT_DOUBLE_EQ(overlay.scrollY, 0.0) << load;
        EXPECT_TRUE(overlay.displayOverride.empty()) << load;
    }
}

TEST(WebApp, ScrollClampsToPage)
{
    // Both pages are 1280 px tall: the last viewport starts at
    // 1280 - 640.
    const auto scroll = [](double dy) {
        return HandlerEffect{EffectKind::ScrollBy, kInvalidNode, -1, dy};
    };
    const WebApp app = makeTwoPageApp();
    ASSERT_DOUBLE_EQ(app.dom(0).pageHeight(), 1280.0);
    DomOverlay overlay;
    app.applyEffect(overlay, scroll(5000.0));
    EXPECT_DOUBLE_EQ(overlay.scrollY, 1280.0 - 640.0);
    app.applyEffect(overlay, scroll(-9999.0));
    EXPECT_DOUBLE_EQ(overlay.scrollY, 0.0);

    // A page shorter than the viewport does not scroll at all.
    WebApp short_app("short");
    DomTree page;
    page.node(page.root()).rect = {0, 0, 360, 400};
    short_app.addPage(std::move(page));
    DomOverlay top;
    short_app.applyEffect(top, scroll(50.0));
    EXPECT_DOUBLE_EQ(top.scrollY, 0.0);
}

TEST(WebApp, OutOfRangeTargetsAreNoOps)
{
    const WebApp app = makeTwoPageApp();
    DomOverlay overlay;
    overlay.scrollY = 100.0;
    for (const HandlerEffect &effect :
         {HandlerEffect{EffectKind::ToggleDisplay, 99, -1, 0.0},
          HandlerEffect{EffectKind::ToggleDisplay, kInvalidNode, -1, 0.0},
          HandlerEffect{EffectKind::Navigate, kInvalidNode, 2, 0.0},
          HandlerEffect{EffectKind::Navigate, kInvalidNode, -1, 0.0}}) {
        app.applyEffect(overlay, effect);
        EXPECT_EQ(overlay.pageId, 0);
        EXPECT_DOUBLE_EQ(overlay.scrollY, 100.0);
        EXPECT_TRUE(overlay.displayOverride.empty());
    }
}

/** Whether the menu (node 1) of the session's page is displayed. */
bool
menuShown(const WebAppSession &session)
{
    return session.snapshotState().displayedOf(session.dom(), 1);
}

TEST(WebAppSession, CommitTogglesAndNavigates)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    EXPECT_EQ(session.currentPage(), 0);
    EXPECT_FALSE(menuShown(session));

    session.commitEvent(2, DomEventType::Click);    // toggle
    EXPECT_TRUE(menuShown(session));
    EXPECT_FALSE(session.dom().node(1).displayed);  // the page as parsed

    session.commitEvent(3, DomEventType::Load);     // navigate
    EXPECT_EQ(session.currentPage(), 1);
    EXPECT_DOUBLE_EQ(session.viewport().scrollY, 0.0);
}

TEST(WebAppSession, NavigationResetsDestinationDom)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    session.commitEvent(2, DomEventType::Click);  // open menu on page 0
    session.commitEvent(3, DomEventType::Load);   // to page 1
    session.commitEvent(3, DomEventType::Load);   // back to page 0
    // Fresh parse: the menu is hidden again.
    EXPECT_FALSE(menuShown(session));
}

TEST(WebAppSession, TogglesAreDroppedByNavigationAndReset)
{
    // One analyzer lives through every commit: each change to the
    // committed state must reach its memoized analyze().
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    const DomAnalyzer analyzer(session);
    const auto events = [](const DomAnalysis &analysis) {
        std::vector<CandidateEvent> out;
        for (const AnalyzedCandidate &c : analysis.candidates)
            out.push_back(c.event);
        return out;
    };
    const auto shows_menu_item = [&](const DomAnalysis &analysis) {
        const auto lnes = events(analysis);
        return std::any_of(lnes.begin(), lnes.end(),
                           [](const CandidateEvent &c) {
                               return c.node == 3;
                           });
    };
    const WebAppSession fresh(app);
    const DomAnalysis pristine =
        DomAnalyzer(fresh).analyze(fresh.snapshotState());
    const auto expect_pristine = [&](const char *when) {
        EXPECT_FALSE(menuShown(session)) << when;
        const DomAnalysis &got = analyzer.analyze(session.snapshotState());
        EXPECT_TRUE(events(got) == events(pristine)) << when;
        EXPECT_EQ(got.stats.visibleNodes, pristine.stats.visibleNodes)
            << when;
        EXPECT_EQ(got.stats.clickableFrac, pristine.stats.clickableFrac)
            << when;
        EXPECT_EQ(got.stats.visibleLinkFrac, pristine.stats.visibleLinkFrac)
            << when;
    };
    const auto toggle = [&] {
        session.commitEvent(2, DomEventType::Click);  // open the menu
        EXPECT_TRUE(menuShown(session));
        EXPECT_FALSE(app.dom(0).node(1).displayed);   // app untouched
        EXPECT_TRUE(shows_menu_item(
            analyzer.analyze(session.snapshotState())));
    };
    expect_pristine("at start");

    toggle();
    session.commitEvent(3, DomEventType::Load);   // to page 1
    EXPECT_EQ(session.currentPage(), 1);
    EXPECT_FALSE(menuShown(session));
    session.commitEvent(2, DomEventType::Click);
    session.commitEvent(3, DomEventType::Load);   // back to page 0
    EXPECT_EQ(session.currentPage(), 0);
    expect_pristine("after navigating back");

    toggle();
    session.reset();
    expect_pristine("after reset");
}

TEST(WebAppSession, ScrollCommitMovesViewport)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    session.commitEvent(0, DomEventType::Scroll);
    EXPECT_DOUBLE_EQ(session.viewport().scrollY, 384.0);
    // Clamped at page bottom (1280 - 640 = 640 max).
    session.commitEvent(0, DomEventType::Scroll);
    session.commitEvent(0, DomEventType::Scroll);
    EXPECT_DOUBLE_EQ(session.viewport().scrollY, 640.0);
}

TEST(WebAppSession, EventsWithoutHandlersAreNoOps)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    session.commitEvent(2, DomEventType::Submit);   // no submit handler
    session.commitEvent(999, DomEventType::Click);  // no such node
    EXPECT_EQ(session.committedEvents(), 0);
}

// --------------------------------------------------------- Analyzer

TEST(DomAnalyzer, LnesListsOnlyVisibleHandlers)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    const auto lnes = analyzer.likelyNextEvents(session.snapshotState());
    // Toggle click + document scroll are visible; menu item is not.
    const bool has_toggle = std::any_of(
        lnes.begin(), lnes.end(), [](const CandidateEvent &c) {
            return c.node == 2 && c.type == DomEventType::Click;
        });
    const bool has_menu_item = std::any_of(
        lnes.begin(), lnes.end(),
        [](const CandidateEvent &c) { return c.node == 3; });
    EXPECT_TRUE(has_toggle);
    EXPECT_FALSE(has_menu_item);
}

TEST(DomAnalyzer, HypotheticalToggleEnlargesLnes)
{
    // Paper Sec. 5.2: the analyzer must compute the LNES *after* a
    // predicted menu-opening event without executing its callback.
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    DomOverlay state = session.snapshotState();
    analyzer.applyHypothetical({DomEventType::Click, 2}, state);
    const auto lnes = analyzer.likelyNextEvents(state);
    const bool has_menu_item = std::any_of(
        lnes.begin(), lnes.end(), [](const CandidateEvent &c) {
            return c.node == 3 && c.type == DomEventType::Load;
        });
    EXPECT_TRUE(has_menu_item);
    // The committed session state is untouched.
    EXPECT_FALSE(menuShown(session));
}

TEST(DomAnalyzer, HypotheticalNavigationChangesPage)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    DomOverlay state = session.snapshotState();
    analyzer.applyHypothetical({DomEventType::Click, 2}, state);
    analyzer.applyHypothetical({DomEventType::Load, 3}, state);
    EXPECT_EQ(state.pageId, 1);
    EXPECT_TRUE(state.displayOverride.empty());
}

TEST(DomAnalyzer, ViewportStatsCountLinksAndClickables)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    const DomOverlay committed = session.snapshotState();
    const ViewportStats before = analyzer.viewportStats(committed);

    DomOverlay opened = committed;
    analyzer.applyHypothetical({DomEventType::Click, 2}, opened);
    const ViewportStats after = analyzer.viewportStats(opened);
    // Opening the menu exposes a nav item: link fraction must rise.
    EXPECT_GT(after.visibleLinkFrac, before.visibleLinkFrac);
    EXPECT_GT(after.clickableFrac, before.clickableFrac);
    EXPECT_TRUE(before.scrollable);
}

TEST(DomAnalyzer, AllPageEventsIgnoresVisibility)
{
    const WebApp app = makeTwoPageApp();
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    const auto all = analyzer.allPageEvents(session.snapshotState());
    const bool has_menu_item = std::any_of(
        all.begin(), all.end(),
        [](const CandidateEvent &c) { return c.node == 3; });
    EXPECT_TRUE(has_menu_item);  // hidden but registered
}

TEST(DomAnalyzer, SessionsShareTheAppsMemoAndACopyFillsItsOwn)
{
    // analyze() is memoized in the app instance: another session's
    // analyzer is answered by the entry the first one stored, which
    // outlives both analyzers. A copy of the app starts with an empty
    // memo and stores its own entry.
    const WebApp app = makeTwoPageApp();
    const WebAppSession first(app);
    DomOverlay state = first.snapshotState();
    state.displayOverride[1] = true;
    const DomAnalysis &stored = DomAnalyzer(first).analyze(state);
    const WebAppSession second(app);
    EXPECT_EQ(&DomAnalyzer(second).analyze(state), &stored);

    const WebApp copy = app;
    const WebAppSession on_copy(copy);
    const DomAnalysis &own = DomAnalyzer(on_copy).analyze(state);
    EXPECT_NE(&own, &stored);
    EXPECT_EQ(own.candidates.size(), stored.candidates.size());
    EXPECT_EQ(own.stats.visibleNodes, stored.stats.visibleNodes);
    EXPECT_EQ(own.stats.visibleLinkFrac, stored.stats.visibleLinkFrac);
}

// ------------------------------------------------------ Render pipeline

TEST(RenderPipeline, StagesScaleWithDirtySize)
{
    RenderPipeline pipeline;
    const RenderWork small = pipeline.frameWork(150, 2);
    const RenderWork large = pipeline.frameWork(150, 30);
    EXPECT_GT(large.total().ndep, small.total().ndep);
    EXPECT_GT(large.total().tmemMs, small.total().tmemMs);
}

TEST(RenderPipeline, ScaleMultiplies)
{
    RenderPipeline pipeline;
    const RenderWork base = pipeline.frameWork(100, 5, 1.0);
    const RenderWork doubled = pipeline.frameWork(100, 5, 2.0);
    EXPECT_NEAR(doubled.total().ndep, 2.0 * base.total().ndep, 1e-9);
}

TEST(RenderPipeline, TotalIsSumOfStages)
{
    RenderPipeline pipeline;
    const RenderWork work = pipeline.frameWork(200, 8);
    Workload sum;
    for (int s = 0; s < kNumRenderStages; ++s)
        sum = sum + work.stages[static_cast<size_t>(s)];
    EXPECT_NEAR(sum.ndep, work.total().ndep, 1e-12);
    EXPECT_NEAR(sum.tmemMs, work.total().tmemMs, 1e-12);
}

TEST(RenderPipeline, TypicalTapFrameInPaperRegime)
{
    // A tap frame should cost on the order of 10-30 ms at the big
    // cluster's top frequency (the ~20 ms speculative frames of Fig. 10).
    RenderPipeline pipeline;
    const AcmpPlatform soc = AcmpPlatform::exynos5410();
    const DvfsLatencyModel model(soc);
    const RenderWork work = pipeline.frameWork(150, 6);
    const TimeMs at_max =
        model.latency(work.total(), {CoreType::Big, 1800.0});
    EXPECT_GT(at_max, 5.0);
    EXPECT_LT(at_max, 40.0);
}

TEST(RenderWork, ScaledIsElementwise)
{
    RenderPipeline pipeline;
    const RenderWork work = pipeline.frameWork(100, 4);
    const RenderWork half = work.scaled(0.5);
    for (int s = 0; s < kNumRenderStages; ++s) {
        EXPECT_NEAR(half.stages[static_cast<size_t>(s)].ndep,
                    0.5 * work.stages[static_cast<size_t>(s)].ndep, 1e-12);
    }
}

// ------------------------------------------------------------ VSync

TEST(Vsync, PeriodAt60Hz)
{
    const VsyncClock vsync;
    EXPECT_NEAR(vsync.periodMs(), 16.6667, 1e-3);
}

TEST(Vsync, NextVsyncCeils)
{
    const VsyncClock vsync;
    const double period = vsync.periodMs();
    EXPECT_NEAR(vsync.nextVsyncAt(0.0), 0.0, 1e-9);
    EXPECT_NEAR(vsync.nextVsyncAt(1.0), period, 1e-9);
    EXPECT_NEAR(vsync.nextVsyncAt(period), period, 1e-6);
    EXPECT_NEAR(vsync.nextVsyncAt(period + 0.001), 2 * period, 1e-6);
}

/** A frame never waits more than one refresh period. */
class VsyncWaitBound : public ::testing::TestWithParam<double>
{
};

TEST_P(VsyncWaitBound, WaitWithinOnePeriod)
{
    const VsyncClock vsync;
    const double t = GetParam();
    const double displayed = vsync.nextVsyncAt(t);
    EXPECT_GE(displayed + 1e-9, t);
    EXPECT_LE(displayed - t, vsync.periodMs() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Times, VsyncWaitBound,
                         ::testing::Values(0.0, 0.5, 16.0, 16.67, 17.0,
                                           100.0, 333.33, 1000.01,
                                           59999.5));

TEST(Vsync, FrameIndex)
{
    const VsyncClock vsync;
    EXPECT_EQ(vsync.frameIndexAt(0.0), 0);
    EXPECT_EQ(vsync.frameIndexAt(17.0), 1);
    EXPECT_EQ(vsync.frameIndexAt(1000.0), 60);
}

// --------------------------------------------------------- Event loop

TEST(EventLoop, FifoOrder)
{
    EventLoop loop;
    loop.push({0, 10.0});
    loop.push({1, 20.0});
    loop.push({2, 30.0});
    EXPECT_EQ(loop.length(), 3u);
    EXPECT_EQ(loop.front()->traceIndex, 0);
    EXPECT_EQ(loop.pop()->traceIndex, 0);
    EXPECT_EQ(loop.pop()->traceIndex, 1);
    EXPECT_EQ(loop.pop()->traceIndex, 2);
    EXPECT_FALSE(loop.pop().has_value());
}

TEST(EventLoop, LengthStatsSampledAtArrivals)
{
    EventLoop loop;
    loop.push({0, 0.0});   // length 1
    loop.push({1, 1.0});   // length 2
    loop.pop();
    loop.push({2, 2.0});   // length 2
    EXPECT_NEAR(loop.lengthStats().mean(), (1 + 2 + 2) / 3.0, 1e-12);
}

TEST(EventLoop, SnapshotPreservesOrder)
{
    EventLoop loop;
    loop.push({5, 1.0});
    loop.push({6, 2.0});
    const auto snap = loop.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].traceIndex, 5);
    EXPECT_EQ(snap[1].traceIndex, 6);
}

} // namespace
} // namespace pes
