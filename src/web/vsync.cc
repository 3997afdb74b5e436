#include "web/vsync.hh"

#include <cmath>

namespace pes {

TimeMs
VsyncClock::nextVsyncAt(TimeMs t) const
{
    if (t <= 0.0)
        return 0.0;
    return std::ceil(t / period_) * period_;
}

long
VsyncClock::frameIndexAt(TimeMs t) const
{
    return static_cast<long>(std::floor(t / period_ + 1e-9));
}

} // namespace pes
