/**
 * @file
 * Web-application analysis: Likely-Next-Event-Set and viewport features.
 *
 * The DOM analyzer (paper Sec. 5.2) traverses the part of the DOM tree
 * inside the current viewport and accumulates the events registered on the
 * visible nodes — the Likely-Next-Event-Set (LNES) the sequence learner
 * predicts from. Because one event's execution can mutate the visible DOM,
 * the analyzer supports *hypothetical* rollouts: applying an event's
 * statically memoized consequence (SemanticTree) to a DomOverlay by the
 * rule a commit uses (WebApp::applyEffect), so the LNES of the state
 * *after* a predicted event can be computed without evaluating any
 * callback. A state is a DomOverlay over the app's page DOMs as parsed,
 * whether it is a session's committed state or a rollout of it.
 */

#ifndef PES_WEB_DOM_ANALYZER_HH
#define PES_WEB_DOM_ANALYZER_HH

#include <vector>

#include "web/web_app.hh"

namespace pes {

/**
 * Static analyzer of the page states of one WebApp. Every call names the
 * state it analyzes; the analyzer reads only the app. analyze() is
 * memoized in the app instance, so every analyzer of it, in any session,
 * shares one memo; that memo is not synchronized, so an app and its
 * analyzers serve one thread.
 */
class DomAnalyzer
{
  public:
    /**
     * @param session A session of the app to analyze; the analyzer keeps
     *                a reference to its app, which must outlive it.
     */
    explicit DomAnalyzer(const WebAppSession &session);

    /**
     * Likely-Next-Event-Set for the state described by @p state
     * (page + scroll + display overrides): the events of
     * analyze(state).candidates, i.e. every (type, node) pair registered
     * on a displayed node that overlaps the viewport.
     */
    std::vector<CandidateEvent>
    likelyNextEvents(const DomOverlay &state) const;

    /**
     * The LNES with each candidate's rect and role, the Table-1
     * viewport features and the viewport, from ONE traversal of the
     * page. Memoized in the app (DomAnalysisMemo): a later call by any
     * analyzer of the same app instance with the same page,
     * scroll-offset bits and display overrides returns the stored
     * result. The reference stays valid for the app's lifetime.
     */
    const DomAnalysis &analyze(const DomOverlay &state) const;

    /**
     * Every (type, node) pair registered anywhere on the current page of
     * @p state, ignoring visibility. This is what a learner-only
     * predictor (no DOM analysis, Sec. 6.5 ablation) has to choose from.
     */
    std::vector<CandidateEvent>
    allPageEvents(const DomOverlay &state) const;

    /** The viewport implied by @p state (device size + overlay scroll). */
    Viewport viewportFor(const DomOverlay &state) const;

    /** Accessibility role of @p node on the page of @p state. */
    NodeRole nodeRole(const DomOverlay &state, NodeId node) const;

    /** Table-1 viewport features for the state @p state. */
    ViewportStats viewportStats(const DomOverlay &state) const;

    /**
     * Statically roll @p state forward through @p event: its
     * SemanticTree consequence (no callback evaluation), applied by
     * WebApp::applyEffect, so @p state becomes what committing the
     * event would make the session's state.
     */
    void applyHypothetical(const CandidateEvent &event,
                           DomOverlay &state) const;

    /**
     * Geometric center of @p node on the page of @p state, used as the
     * touch position for interaction-dependent features. Scroll events
     * report the viewport center.
     */
    Rect nodeRect(const DomOverlay &state, NodeId node) const;

  private:
    /** The one visibility traversal behind analyze(). */
    DomAnalysis traverse(const DomOverlay &state) const;

    const WebApp *app_;
};

} // namespace pes

#endif // PES_WEB_DOM_ANALYZER_HH
