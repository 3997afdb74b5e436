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

WebAppSession::WebAppSession(const WebApp &app)
    : app_(&app), viewport_(app.viewportTemplate())
{
    panic_if(app.numPages() == 0, "WebAppSession: app has no pages");
    viewport_.scrollY = 0.0;
}

void
WebAppSession::reset()
{
    toggled_ = false;
    ++displayEpoch_;
    pageId_ = 0;
    viewport_ = app_->viewportTemplate();
    viewport_.scrollY = 0.0;
    committedEvents_ = 0;
}

const DomTree &
WebAppSession::dom() const
{
    return toggled_ ? toggledDom_ : app_->dom(pageId_);
}

const SemanticTree &
WebAppSession::semantics() const
{
    return app_->semantics(pageId_);
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
    applyEffect(handler->effect);
    ++committedEvents_;
}

void
WebAppSession::applyEffect(const HandlerEffect &effect)
{
    switch (effect.kind) {
      case EffectKind::None:
        break;
      case EffectKind::ToggleDisplay:
        if (effect.target != kInvalidNode &&
            effect.target < static_cast<NodeId>(dom().size())) {
            if (!toggled_) {
                toggledDom_ = app_->dom(pageId_);
                toggled_ = true;
            }
            toggledDom_.setDisplayed(
                effect.target, !toggledDom_.node(effect.target).displayed);
            ++displayEpoch_;
        }
        break;
      case EffectKind::ScrollBy: {
        const double page_height = dom().pageHeight();
        const double max_scroll =
            std::max(0.0, page_height - viewport_.height);
        viewport_.scrollY = std::clamp(viewport_.scrollY +
                                       effect.scrollDelta, 0.0, max_scroll);
        break;
      }
      case EffectKind::Navigate:
        if (effect.pageId >= 0 && effect.pageId < app_->numPages()) {
            // Navigation loads the destination's pristine DOM (a fresh
            // parse), like a real page load: the toggled copy is dropped.
            pageId_ = effect.pageId;
            toggled_ = false;
            ++displayEpoch_;
            viewport_.scrollY = 0.0;
        }
        break;
    }
}

DomOverlay
WebAppSession::snapshotState() const
{
    DomOverlay overlay;
    overlay.pageId = pageId_;
    overlay.scrollY = viewport_.scrollY;
    return overlay;
}

} // namespace pes
