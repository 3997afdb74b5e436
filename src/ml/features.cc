#include "ml/features.hh"

#include <cmath>

#include "util/logging.hh"

namespace pes {

const char *
featureName(int index)
{
    switch (index) {
      case 0:
        return "clickable_region_pct";
      case 1:
        return "visible_link_pct";
      case 2:
        return "dist_to_prev_click";
      case 3:
        return "navigations_in_window";
      case 4:
        return "scrolls_in_window";
      default:
        panic("featureName: bad index %d", index);
    }
}

void
FeatureWindow::observe(DomEventType type, double x, double y)
{
    window_.push_back({type, x, y});
    while (window_.size() > static_cast<size_t>(kWindowSize))
        window_.pop_front();
}

void
FeatureWindow::clear()
{
    window_.clear();
}

bool
FeatureWindow::lastTapPosition(double &x, double &y) const
{
    for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
        if (interactionOf(it->type) == Interaction::Tap) {
            x = it->x;
            y = it->y;
            return true;
        }
    }
    return false;
}

FeatureVector
FeatureWindow::extract(const ViewportStats &stats) const
{
    FeatureVector f;
    f.v[0] = stats.clickableFrac;
    f.v[1] = stats.visibleLinkFrac;

    // Distance between the two most recent tap-class events in the window,
    // normalized by a nominal mobile viewport diagonal so the feature is
    // O(1). Zero when fewer than two taps have been seen.
    constexpr double kDiag = 734.0;  // sqrt(360^2 + 640^2)
    const PastEvent *last_tap = nullptr;
    const PastEvent *prev_tap = nullptr;
    for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
        if (interactionOf(it->type) != Interaction::Tap)
            continue;
        if (!last_tap) {
            last_tap = &*it;
        } else {
            prev_tap = &*it;
            break;
        }
    }
    if (last_tap && prev_tap) {
        const double dx = last_tap->x - prev_tap->x;
        const double dy = last_tap->y - prev_tap->y;
        f.v[2] = std::sqrt(dx * dx + dy * dy) / kDiag;
    }

    int navs = 0;
    int scrolls = 0;
    for (const PastEvent &e : window_) {
        if (interactionOf(e.type) == Interaction::Load)
            ++navs;
        if (interactionOf(e.type) == Interaction::Move)
            ++scrolls;
    }
    // Normalize counts by the window size.
    f.v[3] = static_cast<double>(navs) / kWindowSize;
    f.v[4] = static_cast<double>(scrolls) / kWindowSize;
    return f;
}

} // namespace pes
