/**
 * @file
 * Display refresh (VSync) clock.
 *
 * Frames become visible only at display refresh boundaries — on mobile,
 * typically 60 Hz (paper Sec. 2, Fig. 1). Event latency therefore includes
 * the idle wait between frame completion and the next VSync.
 */

#ifndef PES_WEB_VSYNC_HH
#define PES_WEB_VSYNC_HH

#include "util/types.hh"

namespace pes {

/**
 * The 60 Hz display refresh clock, starting at t = 0. The rate is fixed:
 * trace synthesis makes every trace feasible for the Oracle at 60 Hz
 * (trace/user_model.cc), so any other rate would silently void the
 * Oracle's zero-violation guarantee.
 */
class VsyncClock
{
  public:
    /** Refresh period in ms (16.67 ms). */
    TimeMs periodMs() const { return period_; }

    /**
     * First refresh instant at or after @p t — when a frame finished at
     * @p t becomes visible.
     */
    TimeMs nextVsyncAt(TimeMs t) const;

    /** Number of complete refresh intervals before @p t. */
    long frameIndexAt(TimeMs t) const;

  private:
    TimeMs period_ = 1000.0 / 60.0;
};

} // namespace pes

#endif // PES_WEB_VSYNC_HH
