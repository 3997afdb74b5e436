#include "web/dom_analyzer.hh"

#include <algorithm>
#include <cstring>

namespace pes {

DomAnalyzer::DomAnalyzer(const WebAppSession &session)
    : app_(&session.app())
{
}

std::vector<CandidateEvent>
DomAnalyzer::allPageEvents(const DomOverlay &state) const
{
    const DomTree &dom = app_->dom(state.pageId);
    std::vector<CandidateEvent> out;
    for (size_t i = 0; i < dom.size(); ++i) {
        const DomNode &node = dom.node(static_cast<NodeId>(i));
        for (const HandlerSpec &spec : node.handlers)
            out.push_back({spec.type, node.id});
    }
    return out;
}

Viewport
DomAnalyzer::viewportFor(const DomOverlay &state) const
{
    return app_->viewportOf(state);
}

NodeRole
DomAnalyzer::nodeRole(const DomOverlay &state, NodeId node) const
{
    const DomTree &dom = app_->dom(state.pageId);
    if (node < 0 || node >= static_cast<NodeId>(dom.size()))
        return NodeRole::Container;
    return dom.node(node).role;
}

std::vector<CandidateEvent>
DomAnalyzer::likelyNextEvents(const DomOverlay &state) const
{
    const DomAnalysis &analysis = analyze(state);
    std::vector<CandidateEvent> out;
    out.reserve(analysis.candidates.size());
    for (const AnalyzedCandidate &cand : analysis.candidates)
        out.push_back(cand.event);
    return out;
}

ViewportStats
DomAnalyzer::viewportStats(const DomOverlay &state) const
{
    return analyze(state).stats;
}

const DomAnalysis &
DomAnalyzer::analyze(const DomOverlay &state) const
{
    uint64_t scroll_bits = 0;
    static_assert(sizeof scroll_bits == sizeof state.scrollY);
    std::memcpy(&scroll_bits, &state.scrollY, sizeof scroll_bits);
    DomAnalysisMemo::Key key{
        state.pageId, scroll_bits,
        {state.displayOverride.begin(), state.displayOverride.end()}};
    std::sort(std::get<2>(key).begin(), std::get<2>(key).end());

    auto &memo = app_->analyses_.entries;
    auto it = memo.lower_bound(key);
    if (it == memo.end() || key < it->first)
        it = memo.emplace_hint(it, std::move(key), traverse(state));
    return it->second;
}

DomAnalysis
DomAnalyzer::traverse(const DomOverlay &state) const
{
    const DomTree &dom = app_->dom(state.pageId);
    const Viewport viewport = app_->viewportOf(state);
    const Rect view_rect = viewport.rect();
    const double view_area = view_rect.area();

    DomAnalysis out;
    out.viewport = viewport;
    double clickable_area = 0.0;
    double link_area = 0.0;
    for (size_t i = 0; i < dom.size(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        const DomNode &node = dom.node(id);
        if (!state.displayedOf(dom, id))
            continue;
        // Visible = displayed with positive overlap (Rect::intersects),
        // the gate of both the LNES and the viewport features.
        const double overlap = node.rect.intersectionArea(view_rect);
        if (overlap <= 0.0)
            continue;
        ++out.stats.visibleNodes;
        if (node.isClickable())
            clickable_area += overlap;
        // "Links" are navigation affordances: anchor elements and any
        // clickable element whose handler triggers a page load (e.g. nav
        // menu items). The document-level load handler does not count —
        // it is not a visible affordance.
        if (node.isLink() ||
            (node.isClickable() && node.handlerFor(DomEventType::Load)))
            link_area += overlap;
        for (const HandlerSpec &spec : node.handlers)
            out.candidates.push_back({{spec.type, id}, node.rect, node.role});
    }
    out.stats.clickableFrac = std::min(1.0, clickable_area / view_area);
    out.stats.visibleLinkFrac = std::min(1.0, link_area / view_area);
    out.stats.scrollable = dom.pageHeight() > viewport.height + 1.0;
    std::sort(out.candidates.begin(), out.candidates.end(),
              [](const AnalyzedCandidate &a, const AnalyzedCandidate &b) {
                  if (a.event.node != b.event.node)
                      return a.event.node < b.event.node;
                  return static_cast<int>(a.event.type) <
                      static_cast<int>(b.event.type);
              });
    return out;
}

void
DomAnalyzer::applyHypothetical(const CandidateEvent &event,
                               DomOverlay &state) const
{
    const auto effect =
        app_->semantics(state.pageId).effectOf(event.node, event.type);
    if (effect)
        app_->applyEffect(state, *effect);
}

Rect
DomAnalyzer::nodeRect(const DomOverlay &state, NodeId node) const
{
    const DomTree &dom = app_->dom(state.pageId);
    if (node == kInvalidNode ||
        node >= static_cast<NodeId>(dom.size()))
        return app_->viewportOf(state).rect();
    return dom.node(node).rect;
}

} // namespace pes
