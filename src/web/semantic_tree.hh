/**
 * @file
 * Semantic Tree: static post-callback DOM-state inference.
 *
 * The DOM analyzer must know the DOM state *after* a predicted event
 * without evaluating the event's callback (paper Sec. 5.2, Fig. 7). The
 * paper piggybacks this on the browser's Accessibility Tree: during parsing
 * it memoizes, e.g., that a <div> is a button that toggles a particular
 * menu node. This class is that memo: a side table mapping (node, event
 * type) to the semantic consequence, populated at page-build ("parse")
 * time, and queried statically by the analyzer when rolling out
 * hypothetical multi-event futures. The page state those rollouts move
 * is a DomOverlay, the same type a session keeps its committed state
 * in, and WebApp::applyEffect moves both.
 */

#ifndef PES_WEB_SEMANTIC_TREE_HH
#define PES_WEB_SEMANTIC_TREE_HH

#include <optional>
#include <unordered_map>
#include <vector>

#include "web/dom.hh"

namespace pes {

/**
 * Statically inferred consequence of triggering an event on a node.
 */
struct SemanticEntry
{
    NodeId node = kInvalidNode;
    DomEventType type = DomEventType::Click;
    HandlerEffect effect;
};

/**
 * The semantic side table for one page.
 */
class SemanticTree
{
  public:
    /** Memoize the consequence of (node, type) (called at parse time). */
    void memoize(NodeId node, DomEventType type,
                 const HandlerEffect &effect);

    /**
     * Build the full table from a parsed DOM tree — the analogue of
     * deriving the Accessibility Tree during parsing.
     */
    static SemanticTree fromDom(const DomTree &dom);

    /** Statically look up the consequence of (node, type). */
    std::optional<HandlerEffect>
    effectOf(NodeId node, DomEventType type) const;

    /** All memoized entries (for inspection/tests). */
    std::vector<SemanticEntry> entries() const;

    /** Number of memoized entries. */
    size_t size() const { return table_.size(); }

  private:
    static uint64_t key(NodeId node, DomEventType type);

    std::unordered_map<uint64_t, SemanticEntry> table_;
};

/**
 * A page state over an app's immutable page DOMs: the page, its scroll
 * offset and the display toggles applied since the page was loaded. A
 * WebAppSession's committed state is one; the DOM analyzer rolls copies
 * of it through predicted events to compute the LNES several events
 * ahead (prediction degree > 1). WebApp::applyEffect is the one rule
 * that moves either kind forward, so a predicted event reaches the state
 * its commit would.
 */
struct DomOverlay
{
    /** The nodes whose display a toggle has flipped away from the page
     *  as parsed (node -> displayed?). */
    std::unordered_map<NodeId, bool> displayOverride;
    /** Scroll offset. */
    double scrollY = 0.0;
    /** Current page. */
    int pageId = 0;

    /** Displayed state of @p id under this overlay: it and all its
     *  ancestors are displayed. */
    bool displayedOf(const DomTree &dom, NodeId id) const;
};

} // namespace pes

#endif // PES_WEB_SEMANTIC_TREE_HH
