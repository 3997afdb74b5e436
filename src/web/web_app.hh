/**
 * @file
 * A mobile Web application: pages, semantic side tables, and live state.
 *
 * WebApp is the static application definition (every page's DOM plus its
 * parse-time SemanticTree). WebAppSession is one user-facing instance with
 * mutable state — current page, scroll position, committed DOM mutations —
 * the thing the runtime dispatches events into. A session reads the app's
 * page DOMs and copies a page only when a committed toggle changes it, so
 * concurrent simulations never alias mutable state.
 */

#ifndef PES_WEB_WEB_APP_HH
#define PES_WEB_WEB_APP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "web/dom.hh"
#include "web/semantic_tree.hh"

namespace pes {

/**
 * Immutable application definition.
 */
class WebApp
{
  public:
    /** Create an app; @p viewport fixes the device window size. */
    explicit WebApp(std::string name, Viewport viewport = Viewport{});

    /** Add a page; returns its page id. Builds the SemanticTree. */
    int addPage(DomTree dom);

    /** Application name (e.g. "cnn"). */
    const std::string &name() const { return name_; }

    /** Number of pages. */
    int numPages() const { return static_cast<int>(pages_.size()); }

    /** DOM of page @p page_id. */
    const DomTree &dom(int page_id) const;

    /** Semantic side table of page @p page_id. */
    const SemanticTree &semantics(int page_id) const;

    /** Device viewport template (width/height; scroll belongs to state). */
    const Viewport &viewportTemplate() const { return viewport_; }

  private:
    struct Page
    {
        DomTree dom;
        SemanticTree semantics;
    };

    std::string name_;
    Viewport viewport_;
    std::vector<Page> pages_;
};

/**
 * One live browsing session over a WebApp.
 */
class WebAppSession
{
  public:
    /** Start a session on page 0 with scroll 0. */
    explicit WebAppSession(const WebApp &app);

    /**
     * Return to the pristine start-of-session state (page 0, scroll 0,
     * no committed events). Equivalent to constructing a fresh session,
     * except that displayEpoch() keeps counting.
     */
    void reset();

    /** The application definition. */
    const WebApp &app() const { return *app_; }

    /** Current page id. */
    int currentPage() const { return pageId_; }

    /** Current viewport (device size + live scroll offset). */
    const Viewport &viewport() const { return viewport_; }

    /**
     * Live (committed-state) DOM of the current page: the app's pristine
     * page until a toggle is committed on it, then the session's copy.
     * The reference is valid until the next commitEvent() or reset().
     */
    const DomTree &dom() const;

    /** Counts up from 0 on every committed toggle, navigation and
     *  reset(): equal epochs mean an unchanged dom() display state. */
    uint64_t displayEpoch() const { return displayEpoch_; }

    /** Semantic table of the current page. */
    const SemanticTree &semantics() const;

    /**
     * Commit an event: run its handler's application-state effect
     * (toggle / navigate / scroll). Events without a registered handler
     * are ignored (the dispatch is a no-op, like real DOM).
     */
    void commitEvent(NodeId node, DomEventType type);

    /**
     * A DomOverlay snapshot anchored at the committed state — the seed
     * for hypothetical rollouts by the DOM analyzer.
     */
    DomOverlay snapshotState() const;

    /** Number of committed events so far. */
    int committedEvents() const { return committedEvents_; }

  private:
    void applyEffect(const HandlerEffect &effect);

    const WebApp *app_;
    /** While toggled_: the current page's DOM with the toggles
     *  committed since it was loaded (navigation reloads pristine). */
    DomTree toggledDom_;
    bool toggled_ = false;
    int pageId_ = 0;
    Viewport viewport_;
    int committedEvents_ = 0;
    uint64_t displayEpoch_ = 0;
};

} // namespace pes

#endif // PES_WEB_WEB_APP_HH
