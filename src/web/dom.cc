#include "web/dom.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pes {

const char *
nodeRoleName(NodeRole role)
{
    switch (role) {
      case NodeRole::Container:
        return "container";
      case NodeRole::Text:
        return "text";
      case NodeRole::Image:
        return "image";
      case NodeRole::Link:
        return "link";
      case NodeRole::Button:
        return "button";
      case NodeRole::MenuToggle:
        return "menutoggle";
      case NodeRole::MenuItem:
        return "menuitem";
      case NodeRole::FormField:
        return "formfield";
      case NodeRole::SubmitButton:
        return "submitbutton";
    }
    panic("nodeRoleName: invalid role");
}

const HandlerSpec *
DomNode::handlerFor(DomEventType type) const
{
    for (const HandlerSpec &spec : handlers) {
        if (spec.type == type)
            return &spec;
    }
    return nullptr;
}

bool
DomNode::isClickable() const
{
    switch (role) {
      case NodeRole::Link:
      case NodeRole::Button:
      case NodeRole::MenuToggle:
      case NodeRole::MenuItem:
      case NodeRole::FormField:
      case NodeRole::SubmitButton:
        return true;
      default:
        return false;
    }
}

DomTree::DomTree()
{
    DomNode root;
    root.id = 0;
    root.parent = kInvalidNode;
    root.role = NodeRole::Container;
    root.rect = {0.0, 0.0, 360.0, 640.0};
    root.displayed = true;
    nodes_.push_back(std::move(root));
}

NodeId
DomTree::createNode(NodeId parent, NodeRole role, const Rect &rect)
{
    panic_if(parent < 0 || parent >= static_cast<NodeId>(nodes_.size()),
             "createNode: invalid parent %d", parent);
    const NodeId id = static_cast<NodeId>(nodes_.size());
    DomNode node;
    node.id = id;
    node.parent = parent;
    node.role = role;
    node.rect = rect;
    nodes_.push_back(std::move(node));
    nodes_[static_cast<size_t>(parent)].children.push_back(id);
    cachedPageHeight_.store(-1.0, std::memory_order_relaxed);
    return id;
}

void
DomTree::addHandler(NodeId id, const HandlerSpec &spec)
{
    node(id).handlers.push_back(spec);
}

void
DomTree::setDisplayed(NodeId id, bool displayed)
{
    node(id).displayed = displayed;
}

double
DomTree::pageHeight() const
{
    const double cached =
        cachedPageHeight_.load(std::memory_order_relaxed);
    if (cached >= 0.0)
        return cached;
    double bottom = 0.0;
    for (const DomNode &n : nodes_) {
        if (n.displayed)
            bottom = std::max(bottom, n.rect.y + n.rect.h);
    }
    cachedPageHeight_.store(bottom, std::memory_order_relaxed);
    return bottom;
}

void
DomTree::fitRootToContent()
{
    nodes_[0].rect.h = std::max(nodes_[0].rect.h, pageHeight());
    cachedPageHeight_.store(-1.0, std::memory_order_relaxed);
}

} // namespace pes
