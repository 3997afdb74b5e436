/**
 * @file
 * Energy accounting for a simulation run.
 *
 * Stand-in for the paper's NI DAQ X-6366 measurement setup: the simulator
 * reports piecewise-constant power segments; the meter integrates them into
 * energy, keeps per-purpose tags (busy / idle / transition overhead /
 * squashed speculative work), and can materialize a fixed-rate sample trace
 * like the 1 kHz waveform the DAQ captures.
 *
 * Segments carry ids so speculative work can be re-tagged once its fate
 * (commit vs. squash) is known — exactly how mispredict waste is accounted.
 * A run of whole ticks on a fixed grid (an idle governor's skipped sampling
 * ticks) is stored as one record and expanded tick by tick wherever the
 * meter sums or samples, so it reads exactly like one segment per tick.
 */

#ifndef PES_HW_ENERGY_METER_HH
#define PES_HW_ENERGY_METER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace pes {

/** Purpose of an energy segment. */
enum class EnergyTag
{
    Busy = 0,           ///< committed useful execution
    Idle,               ///< main thread idle
    Overhead,           ///< DVFS switches, migrations, scheduler compute
    SpeculativeWaste,   ///< squashed speculative frame generation
};

/** Number of EnergyTag values. */
constexpr int kNumEnergyTags = 4;

/**
 * One-pass totals over a meter's segments: the whole-waveform energy
 * plus the per-tag attribution, each accumulated in segment-id order —
 * bit-identical to calling totalEnergy() and energyOfTag() separately,
 * but with a single traversal.
 */
struct EnergyTotals
{
    EnergyMj total = 0.0;
    EnergyMj byTag[kNumEnergyTags] = {0.0, 0.0, 0.0, 0.0};

    EnergyMj of(EnergyTag tag) const
    {
        return byTag[static_cast<int>(tag)];
    }
};

/**
 * Integrates a piecewise-constant power waveform.
 */
class EnergyMeter
{
  public:
    /**
     * Record that the platform drew @p power over [t0, t1).
     * Returns a segment id usable with retag(). Zero-length segments are
     * accepted and return an id but contribute no energy.
     */
    uint64_t addSegment(TimeMs t0, TimeMs t1, PowerMw power, EnergyTag tag)
    {
        panic_if(t1 < t0 - 1e-9,
                 "EnergyMeter: segment ends before it starts "
                 "(t0=%.6f, t1=%.6f)", t0, t1);
        segments_.push_back({t0, std::max(t0, t1), power, tag, 0});
        duration_ = std::max(duration_, t1);
        return segments_.size() - 1;
    }

    /**
     * Record that the platform drew @p power over the whole ticks k in
     * [first_tick, end_tick) of a grid with period @p interval, tick k
     * covering [k * interval, (k + 1) * interval). The ticks are stored
     * as one run, but totals, energyOfSegment() and sampleTrace() expand
     * it in place, tick by tick, so every result is bit-identical to one
     * addSegment() per tick. Returns one segment id for the whole run.
     */
    uint64_t addTickRun(TimeMs interval, int64_t first_tick,
                        int64_t end_tick, PowerMw power, EnergyTag tag)
    {
        panic_if(interval <= 0.0 || end_tick <= first_tick,
                 "EnergyMeter: empty or ungridded tick run");
        runs_.push_back({interval, first_tick, end_tick});
        const TimeMs t0 = static_cast<double>(first_tick) * interval;
        const TimeMs t1 = static_cast<double>(end_tick) * interval;
        segments_.push_back(
            {t0, t1, power, tag, static_cast<uint32_t>(runs_.size())});
        duration_ = std::max(duration_, t1);
        return segments_.size() - 1;
    }

    /** Change the tag of segment @p id (e.g. Busy -> SpeculativeWaste). */
    void retag(uint64_t id, EnergyTag tag)
    {
        panic_if(id >= segments_.size(),
                 "EnergyMeter: retag of unknown id");
        segments_[id].tag = tag;
    }

    /** Total integrated energy. */
    EnergyMj totalEnergy() const;

    /** Energy attributed to @p tag. */
    EnergyMj energyOfTag(EnergyTag tag) const;

    /** Total and per-tag energy in one traversal (see EnergyTotals). */
    EnergyTotals tagTotals() const;

    /** Energy of one segment (a whole tick run, summed in order) by id. */
    EnergyMj energyOfSegment(uint64_t id) const;

    /** Latest segment end time seen (the waveform duration). */
    TimeMs duration() const { return duration_; }

    /** Average power over the waveform duration (0 when empty). */
    PowerMw averagePower() const;

    /**
     * Emulate the DAQ: sample the power waveform at @p rate_hz and return
     * one power value per sample instant from t=0 to duration().
     * Instants not covered by any segment read 0.
     */
    std::vector<PowerMw> sampleTrace(double rate_hz) const;

    /** Number of recorded segments (a tick run counts once). */
    size_t segmentCount() const { return segments_.size(); }

    /**
     * Forget every segment, keeping the allocated storage so a reused
     * meter does not re-grow its segment vector run after run.
     */
    void reset()
    {
        segments_.clear();
        runs_.clear();
        duration_ = 0.0;
    }

  private:
    struct Segment
    {
        TimeMs t0;
        TimeMs t1;
        PowerMw power;
        EnergyTag tag;
        /** 0 for the single piece [t0, t1); else 1 + its runs_ index. */
        uint32_t run;
    };

    /** Ticks [first, end) of a grid with period interval. */
    struct TickRun
    {
        TimeMs interval;
        int64_t first;
        int64_t end;
    };

    /** Call @p f(t0, t1) for every piece of @p s, in time order. */
    template <typename F>
    void forEachPiece(const Segment &s, F &&f) const
    {
        if (s.run == 0) {
            f(s.t0, s.t1);
            return;
        }
        const TickRun &r = runs_[s.run - 1];
        for (int64_t k = r.first; k < r.end; ++k) {
            f(static_cast<double>(k) * r.interval,
              static_cast<double>(k + 1) * r.interval);
        }
    }

    std::vector<Segment> segments_;
    std::vector<TickRun> runs_;
    TimeMs duration_ = 0.0;
};

} // namespace pes

#endif // PES_HW_ENERGY_METER_HH
