/**
 * @file
 * Document Object Model tree.
 *
 * A slimmed-down DOM sufficient for PES: nodes carry geometry, display
 * state, a role (the semantic kind the Accessibility Tree would expose),
 * registered event listeners, and handler metadata (what the callback does
 * and how much work it is). A tree is a page as parsed; the display state
 * a session or a predicted rollout reaches lives in a DomOverlay over it
 * (DomOverlay::displayedOf), and visibility — displayed and inside the
 * viewport — is decided by the DOM analyzer's one traversal
 * (DomAnalyzer::analyze), which computes the Likely-Next-Event-Set.
 */

#ifndef PES_WEB_DOM_HH
#define PES_WEB_DOM_HH

#include <atomic>
#include <string>
#include <vector>

#include "hw/dvfs_model.hh"
#include "util/logging.hh"
#include "web/event_types.hh"
#include "web/geometry.hh"

namespace pes {

/** Index of a node within its DomTree; kInvalidNode when absent. */
using NodeId = int;

/** Sentinel for "no node". */
constexpr NodeId kInvalidNode = -1;

/** Semantic role of a DOM node (what the Accessibility Tree reports). */
enum class NodeRole
{
    Container = 0,  ///< layout-only <div>/<section>
    Text,           ///< static text
    Image,          ///< image content
    Link,           ///< navigation anchor
    Button,         ///< generic interactive button
    MenuToggle,     ///< button that expands/collapses a menu
    MenuItem,       ///< entry inside a menu
    FormField,      ///< input element
    SubmitButton,   ///< form submit control
};

/** Human-readable role name. */
const char *nodeRoleName(NodeRole role);

/** What a node's event callback does to application state. */
enum class EffectKind
{
    None = 0,       ///< pure visual update
    ToggleDisplay,  ///< show/hide the effect target (collapsible menu)
    Navigate,       ///< load a different page
    ScrollBy,       ///< move the viewport vertically
};

/**
 * The application-visible effect of one event handler.
 */
struct HandlerEffect
{
    EffectKind kind = EffectKind::None;
    /** Node shown/hidden by ToggleDisplay. */
    NodeId target = kInvalidNode;
    /** Destination page index for Navigate. */
    int pageId = -1;
    /** Scroll delta in pixels for ScrollBy (positive = down). */
    double scrollDelta = 0.0;
};

/**
 * One registered event listener with its callback cost model.
 */
struct HandlerSpec
{
    DomEventType type = DomEventType::Click;
    HandlerEffect effect;
    /**
     * Identity of the callback *function*: many nodes share one handler
     * (every article card calls the same listener), and workload
     * estimation keys on the callback, not the element. Negative = the
     * handler is unique to its node.
     */
    int handlerClassId = -1;
    /** Median callback workload (sampled per instance with noise). */
    Workload medianWork;
    /** Log-space sigma for per-instance workload noise. */
    double workSigma = 0.1;
    /** Number of DOM nodes the callback dirties (drives render cost). */
    int dirtyNodes = 4;
    /**
     * Multiplier on the render-pipeline cost of this handler's frames
     * (e.g. scrolls are composite-dominated and cheap; loads re-render
     * the whole page).
     */
    double renderCostScale = 1.0;
    /** Whether the callback issues a network request (commit-gated). */
    bool issuesNetworkRequest = false;
};

/**
 * One DOM node.
 */
struct DomNode
{
    NodeId id = kInvalidNode;
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
    NodeRole role = NodeRole::Container;
    Rect rect;
    /** CSS display: none when false (menus start hidden). */
    bool displayed = true;
    std::vector<HandlerSpec> handlers;

    /** Listener for @p type, or nullptr when none is registered. */
    const HandlerSpec *handlerFor(DomEventType type) const;

    /** True when any listener is registered. */
    bool hasListeners() const { return !handlers.empty(); }

    /** True for roles a user can tap (per the Accessibility Tree). */
    bool isClickable() const;

    /** True for navigation anchors. */
    bool isLink() const { return role == NodeRole::Link; }
};

/**
 * Arena-allocated DOM tree for one page.
 */
class DomTree
{
  public:
    DomTree();

    // The cached page height is an atomic (see pageHeight()), which is
    // neither copyable nor movable; the tree itself must stay both, so
    // spell the special members out, transferring the cached value.
    DomTree(const DomTree &other)
        : nodes_(other.nodes_),
          cachedPageHeight_(other.cachedPageHeight_.load(
              std::memory_order_relaxed))
    {
    }
    DomTree(DomTree &&other) noexcept
        : nodes_(std::move(other.nodes_)),
          cachedPageHeight_(other.cachedPageHeight_.load(
              std::memory_order_relaxed))
    {
    }
    DomTree &operator=(const DomTree &other)
    {
        nodes_ = other.nodes_;
        cachedPageHeight_.store(
            other.cachedPageHeight_.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        return *this;
    }
    DomTree &operator=(DomTree &&other) noexcept
    {
        nodes_ = std::move(other.nodes_);
        cachedPageHeight_.store(
            other.cachedPageHeight_.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        return *this;
    }

    /** The root node id (always 0, a displayed full-page container). */
    NodeId root() const { return 0; }

    /**
     * Create a node under @p parent. Panics when @p parent is invalid.
     */
    NodeId createNode(NodeId parent, NodeRole role, const Rect &rect);

    /** Mutable access to node @p id (invalidates cached page geometry). */
    DomNode &node(NodeId id)
    {
        panic_if(id < 0 || id >= static_cast<NodeId>(nodes_.size()),
                 "node: invalid id %d", id);
        cachedPageHeight_.store(-1.0, std::memory_order_relaxed);
        return nodes_[static_cast<size_t>(id)];
    }
    /** Immutable access to node @p id. */
    const DomNode &node(NodeId id) const
    {
        panic_if(id < 0 || id >= static_cast<NodeId>(nodes_.size()),
                 "node: invalid id %d", id);
        return nodes_[static_cast<size_t>(id)];
    }

    /** Number of nodes. */
    size_t size() const { return nodes_.size(); }

    /** Register a listener on @p id. */
    void addHandler(NodeId id, const HandlerSpec &spec);

    /** Set the CSS display state of @p id. */
    void setDisplayed(NodeId id, bool displayed);

    /** Height of the page content (max bottom edge over displayed nodes). */
    double pageHeight() const;

    /** Resize the root to cover the page (call after building). */
    void fitRootToContent();

  private:
    std::vector<DomNode> nodes_;
    /**
     * Lazily computed pageHeight(), -1 when stale. Atomic because the
     * app's pristine page trees are shared read-only across worker
     * threads and the lazy fill may race; every racer stores the same
     * deterministic value, so relaxed ordering suffices.
     */
    mutable std::atomic<double> cachedPageHeight_{-1.0};
};

} // namespace pes

#endif // PES_WEB_DOM_HH
