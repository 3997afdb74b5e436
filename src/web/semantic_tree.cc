#include "web/semantic_tree.hh"

#include <algorithm>

namespace pes {

uint64_t
SemanticTree::key(NodeId node, DomEventType type)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 8) |
        static_cast<uint64_t>(type);
}

void
SemanticTree::memoize(NodeId node, DomEventType type,
                      const HandlerEffect &effect)
{
    table_[key(node, type)] = SemanticEntry{node, type, effect};
}

SemanticTree
SemanticTree::fromDom(const DomTree &dom)
{
    SemanticTree tree;
    for (size_t i = 0; i < dom.size(); ++i) {
        const DomNode &node = dom.node(static_cast<NodeId>(i));
        for (const HandlerSpec &spec : node.handlers)
            tree.memoize(node.id, spec.type, spec.effect);
    }
    return tree;
}

std::optional<HandlerEffect>
SemanticTree::effectOf(NodeId node, DomEventType type) const
{
    const auto it = table_.find(key(node, type));
    if (it == table_.end())
        return std::nullopt;
    return it->second.effect;
}

std::vector<SemanticEntry>
SemanticTree::entries() const
{
    std::vector<SemanticEntry> out;
    out.reserve(table_.size());
    for (const auto &[k, entry] : table_)
        out.push_back(entry);
    std::sort(out.begin(), out.end(),
              [](const SemanticEntry &a, const SemanticEntry &b) {
                  if (a.node != b.node)
                      return a.node < b.node;
                  return static_cast<int>(a.type) < static_cast<int>(b.type);
              });
    return out;
}

bool
DomOverlay::displayedOf(const DomTree &dom, NodeId id) const
{
    // Most states have no menu open, so no overrides: skip the
    // per-ancestor map lookups entirely then.
    if (displayOverride.empty()) {
        NodeId cur = id;
        while (cur != kInvalidNode) {
            const DomNode &n = dom.node(cur);
            if (!n.displayed)
                return false;
            cur = n.parent;
        }
        return true;
    }
    NodeId cur = id;
    while (cur != kInvalidNode) {
        const DomNode &n = dom.node(cur);
        const auto it = displayOverride.find(cur);
        const bool displayed =
            it != displayOverride.end() ? it->second : n.displayed;
        if (!displayed)
            return false;
        cur = n.parent;
    }
    return true;
}

} // namespace pes
