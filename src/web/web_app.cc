#include "web/web_app.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pes {

WebApp::WebApp(std::string name, Viewport viewport)
    : name_(std::move(name)), viewport_(viewport)
{
}

int
WebApp::addPage(DomTree dom)
{
    Page page;
    page.semantics = SemanticTree::fromDom(dom);
    page.dom = std::move(dom);
    pages_.push_back(std::move(page));
    return static_cast<int>(pages_.size()) - 1;
}

const DomTree &
WebApp::dom(int page_id) const
{
    panic_if(page_id < 0 || page_id >= numPages(),
             "WebApp::dom: bad page id %d", page_id);
    return pages_[static_cast<size_t>(page_id)].dom;
}

const SemanticTree &
WebApp::semantics(int page_id) const
{
    panic_if(page_id < 0 || page_id >= numPages(),
             "WebApp::semantics: bad page id %d", page_id);
    return pages_[static_cast<size_t>(page_id)].semantics;
}

Viewport
WebApp::viewportOf(const DomOverlay &state) const
{
    Viewport viewport = viewport_;
    viewport.scrollY = state.scrollY;
    return viewport;
}

void
WebApp::applyEffect(DomOverlay &state, const HandlerEffect &effect) const
{
    const DomTree &page = dom(state.pageId);
    switch (effect.kind) {
      case EffectKind::None:
        break;
      case EffectKind::ToggleDisplay:
        if (effect.target >= 0 &&
            effect.target < static_cast<NodeId>(page.size())) {
            // An override only ever holds the flipped parsed display, so
            // a second toggle removes it: equal displays, equal states.
            const auto [it, added] = state.displayOverride.try_emplace(
                effect.target, !page.node(effect.target).displayed);
            if (!added)
                state.displayOverride.erase(it);
        }
        break;
      case EffectKind::ScrollBy: {
        const double max_scroll =
            std::max(0.0, page.pageHeight() - viewport_.height);
        state.scrollY = std::clamp(state.scrollY + effect.scrollDelta,
                                   0.0, max_scroll);
        break;
      }
      case EffectKind::Navigate:
        if (effect.pageId >= 0 && effect.pageId < numPages()) {
            // A fresh parse, like a real page load: the toggles go.
            state.pageId = effect.pageId;
            state.scrollY = 0.0;
            state.displayOverride.clear();
        }
        break;
    }
}

WebAppSession::WebAppSession(const WebApp &app) : app_(&app)
{
    panic_if(app.numPages() == 0, "WebAppSession: app has no pages");
}

void
WebAppSession::reset()
{
    state_ = DomOverlay{};
    committedEvents_ = 0;
}

void
WebAppSession::commitEvent(NodeId node, DomEventType type)
{
    const DomTree &tree = dom();
    if (node < 0 || node >= static_cast<NodeId>(tree.size()))
        return;
    const HandlerSpec *handler = tree.node(node).handlerFor(type);
    if (!handler)
        return;
    app_->applyEffect(state_, handler->effect);
    ++committedEvents_;
}

} // namespace pes
