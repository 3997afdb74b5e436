#include "hw/energy_meter.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace pes {

EnergyMj
EnergyMeter::totalEnergy() const
{
    return tagTotals().total;
}

EnergyMj
EnergyMeter::energyOfTag(EnergyTag tag) const
{
    return tagTotals().of(tag);
}

EnergyTotals
EnergyMeter::tagTotals() const
{
    EnergyTotals totals;
    for (const Segment &s : segments_) {
        EnergyMj &of_tag = totals.byTag[static_cast<int>(s.tag)];
        forEachPiece(s, [&](TimeMs t0, TimeMs t1) {
            const EnergyMj e = energyOf(s.power, t1 - t0);
            totals.total += e;
            of_tag += e;
        });
    }
    return totals;
}

EnergyMj
EnergyMeter::energyOfSegment(uint64_t id) const
{
    panic_if(id >= segments_.size(), "energyOfSegment: unknown id");
    const Segment &s = segments_[id];
    EnergyMj total = 0.0;
    forEachPiece(s, [&](TimeMs t0, TimeMs t1) {
        total += energyOf(s.power, t1 - t0);
    });
    return total;
}

PowerMw
EnergyMeter::averagePower() const
{
    if (duration_ <= 0.0)
        return 0.0;
    return totalEnergy() / duration_ * 1000.0;
}

std::vector<PowerMw>
EnergyMeter::sampleTrace(double rate_hz) const
{
    panic_if(rate_hz <= 0.0, "EnergyMeter: sample rate must be positive");
    const TimeMs step = 1000.0 / rate_hz;
    const auto samples = static_cast<size_t>(duration_ / step) + 1;
    std::vector<PowerMw> trace(samples, 0.0);
    for (const Segment &s : segments_) {
        forEachPiece(s, [&](TimeMs t0, TimeMs t1) {
            auto first = static_cast<size_t>(std::ceil(t0 / step));
            for (size_t i = first; i < samples; ++i) {
                const TimeMs t = static_cast<double>(i) * step;
                if (t >= t1)
                    break;
                trace[i] += s.power;
            }
        });
    }
    return trace;
}

} // namespace pes
