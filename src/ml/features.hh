/**
 * @file
 * Prediction features (paper Table 1).
 *
 * The event-sequence learner predicts from five features combining
 * application-inherent information with runtime information about the
 * current interaction sequence, computed over a window of the five most
 * recent events:
 *
 *   Application-inherent:  clickable-region % in the viewport,
 *                          visible-link % in the viewport.
 *   Interaction-dependent: distance to the previous click in the window,
 *                          number of navigations in the window,
 *                          number of scrolls in the window.
 *
 * FeatureWindow maintains the rolling event history and materializes the
 * feature vector; it is shared by the runtime predictor and (by design) by
 * the synthetic user model, so the learnability of the traces comes from
 * the same feature family the paper's learner uses.
 */

#ifndef PES_ML_FEATURES_HH
#define PES_ML_FEATURES_HH

#include <array>
#include <deque>

#include "web/dom_analyzer.hh"
#include "web/event_types.hh"

namespace pes {

/** Number of model features (Table 1). */
constexpr int kNumFeatures = 5;

/** Dense feature vector; values are normalized to O(1) ranges. */
struct FeatureVector
{
    std::array<double, kNumFeatures> v{};

    /** Named accessors (indices are part of the serialized model). */
    double clickableFrac() const { return v[0]; }
    double visibleLinkFrac() const { return v[1]; }
    double distToPrevClick() const { return v[2]; }
    double navsInWindow() const { return v[3]; }
    double scrollsInWindow() const { return v[4]; }
};

/** Feature names, aligned with FeatureVector indices. */
const char *featureName(int index);

/**
 * Rolling window over the most recent events of an interaction session.
 */
class FeatureWindow
{
  public:
    /** Window length (the paper uses the five most recent events). */
    static constexpr int kWindowSize = 5;

    /** Record an executed event and the page position it occurred at. */
    void observe(DomEventType type, double x, double y);

    /** Reset the window (e.g. at session start). */
    void clear();

    /**
     * Materialize the feature vector given the current viewport statistics
     * (the application-inherent half of Table 1).
     */
    FeatureVector extract(const ViewportStats &stats) const;

    /** Number of events currently in the window. */
    int eventsInWindow() const { return static_cast<int>(window_.size()); }

    /**
     * Position of the most recent tap-class event in the window, if any
     * (used for proximity heuristics and the distance feature).
     */
    bool lastTapPosition(double &x, double &y) const;

  private:
    struct PastEvent
    {
        DomEventType type;
        double x;
        double y;
    };

    std::deque<PastEvent> window_;
};

} // namespace pes

#endif // PES_ML_FEATURES_HH
