/**
 * @file
 * What one DOM analysis of a page state yields (DomAnalyzer::analyze):
 * the Likely-Next-Event-Set with each candidate's geometry and the
 * Table-1 viewport features, and the per-app memo that stores them.
 */

#ifndef PES_WEB_DOM_ANALYSIS_HH
#define PES_WEB_DOM_ANALYSIS_HH

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "web/dom.hh"

namespace pes {

/** One LNES entry: an event that could legally be triggered next. */
struct CandidateEvent
{
    DomEventType type = DomEventType::Click;
    NodeId node = kInvalidNode;

    bool operator==(const CandidateEvent &other) const
    {
        return type == other.type && node == other.node;
    }
    bool operator!=(const CandidateEvent &other) const
    {
        return !(*this == other);
    }
};

/** Application-inherent viewport features (paper Table 1). */
struct ViewportStats
{
    /** Fraction of the viewport covered by clickable elements. */
    double clickableFrac = 0.0;
    /** Fraction of the viewport covered by visible links. */
    double visibleLinkFrac = 0.0;
    /** Number of visible nodes (diagnostic). */
    int visibleNodes = 0;
    /** Whether the page extends beyond the viewport (scrollable). */
    bool scrollable = false;
};

/** One analyze() entry: a LNES candidate with precomputed geometry. */
struct AnalyzedCandidate
{
    CandidateEvent event;
    /** The candidate node's rect (what nodeRect() would return). */
    Rect rect;
    /** The candidate node's accessibility role. */
    NodeRole role = NodeRole::Container;
};

/**
 * Everything one prediction step needs, produced by a single DOM
 * traversal: the LNES with per-candidate geometry and role, the Table-1
 * viewport features, and the resolved viewport.
 */
struct DomAnalysis
{
    std::vector<AnalyzedCandidate> candidates;
    ViewportStats stats;
    Viewport viewport;
};

/**
 * The analyses of one WebApp instance's page states, filled by
 * DomAnalyzer::analyze(). The key is everything a traversal reads: the
 * page, the exact bits of the scroll offset and the display overrides
 * sorted by node. Node-based, so a reference to an entry survives later
 * inserts. A copy starts empty, so an app copy fills its own.
 */
struct DomAnalysisMemo
{
    using Key =
        std::tuple<int, uint64_t, std::vector<std::pair<NodeId, bool>>>;

    DomAnalysisMemo() = default;
    DomAnalysisMemo(const DomAnalysisMemo &) {}
    DomAnalysisMemo &operator=(const DomAnalysisMemo &) = delete;

    std::map<Key, DomAnalysis> entries;
};

} // namespace pes

#endif // PES_WEB_DOM_ANALYSIS_HH
