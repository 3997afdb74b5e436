/**
 * @file
 * A mobile Web application: pages, semantic side tables, and live state.
 *
 * WebApp is the application definition (every page's DOM plus its
 * parse-time SemanticTree). It owns the one transition rule,
 * applyEffect(), which moves a page state through an event's effect,
 * and holds the DOM analyzer's memo of analyzed states. WebAppSession
 * is one user-facing instance, the thing the runtime dispatches events
 * into. Its committed state (current page, scroll offset, display
 * toggles) is a DomOverlay over the app's page DOMs, which never change
 * once added, so sessions of one app never alias mutable page state,
 * and the DOM analyzer's predicted rollouts move copies of it by the
 * same rule.
 */

#ifndef PES_WEB_WEB_APP_HH
#define PES_WEB_WEB_APP_HH

#include <string>
#include <vector>

#include "web/dom.hh"
#include "web/dom_analysis.hh"
#include "web/semantic_tree.hh"

namespace pes {

/**
 * Application definition. Its pages never change once added, but every
 * DomAnalyzer of the app fills one unsynchronized memo in it, so an app
 * instance serves one thread: the fleet runner gives each worker its own
 * TraceGenerator, which builds one app per profile. A copy starts with
 * an empty memo.
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

    /** The device viewport at @p state's scroll offset. */
    Viewport viewportOf(const DomOverlay &state) const;

    /**
     * Apply @p effect to @p state: the one transition rule, for
     * committed (WebAppSession::commitEvent) and predicted
     * (DomAnalyzer::applyHypothetical) events alike.
     *  - A toggle flips its target's display.
     *  - A scroll moves the offset, clamped to [0, page height - viewport
     *    height] of the page as parsed.
     *  - A navigation loads the destination as parsed: scroll 0, no
     *    toggles.
     *  - An effect whose target node or page does not exist changes
     *    nothing.
     */
    void applyEffect(DomOverlay &state, const HandlerEffect &effect) const;

  private:
    friend class DomAnalyzer;

    struct Page
    {
        DomTree dom;
        SemanticTree semantics;
    };

    std::string name_;
    Viewport viewport_;
    std::vector<Page> pages_;
    /** DomAnalyzer::analyze()'s results for this instance, shared by
     *  every session and analyzer of it. */
    mutable DomAnalysisMemo analyses_;
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
     * no committed events), as a freshly constructed session.
     */
    void reset();

    /** The application definition. */
    const WebApp &app() const { return *app_; }

    /** Current page id. */
    int currentPage() const { return state_.pageId; }

    /** Current viewport (device size + committed scroll offset). */
    Viewport viewport() const { return app_->viewportOf(state_); }

    /**
     * The current page's DOM as parsed: structure, geometry and
     * handlers. Committed toggles are not in it but in snapshotState()
     * (DomOverlay::displayedOf).
     */
    const DomTree &dom() const { return app_->dom(state_.pageId); }

    /**
     * Commit an event: apply its handler's application-state effect
     * (WebApp::applyEffect). Events without a registered handler are
     * ignored (the dispatch is a no-op, like real DOM).
     */
    void commitEvent(NodeId node, DomEventType type);

    /**
     * The committed state (page, scroll offset, display toggles) — the
     * seed for hypothetical rollouts by the DOM analyzer.
     */
    DomOverlay snapshotState() const { return state_; }

    /** Number of committed events so far. */
    int committedEvents() const { return committedEvents_; }

  private:
    const WebApp *app_;
    DomOverlay state_;
    int committedEvents_ = 0;
};

} // namespace pes

#endif // PES_WEB_WEB_APP_HH
