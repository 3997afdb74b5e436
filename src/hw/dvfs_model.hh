/**
 * @file
 * Classical DVFS analytical latency model (paper Eqn. 1).
 *
 * Event latency is modeled as T = Tmem + Ndep / f, where Tmem is the
 * frequency-independent memory time and Ndep is the number of CPU cycles
 * not overlapped with memory accesses (Xie et al., PLDI'03; used by the
 * paper and its baselines). Ndep is expressed in cycles of the reference
 * (big) core; the little cluster inflates it by its cpiFactor.
 */

#ifndef PES_HW_DVFS_MODEL_HH
#define PES_HW_DVFS_MODEL_HH

#include "hw/acmp.hh"
#include "util/types.hh"

namespace pes {

/**
 * The frequency-invariant description of one piece of work.
 */
struct Workload
{
    /** Memory-bound time, independent of core/frequency (ms). */
    TimeMs tmemMs = 0.0;
    /** Compute cycles on the reference (big) core (mega-cycles). */
    MegaCycles ndep = 0.0;

    /** Elementwise sum. */
    Workload operator+(const Workload &other) const
    {
        return {tmemMs + other.tmemMs, ndep + other.ndep};
    }
    /** Elementwise scale. */
    Workload scaled(double factor) const
    {
        return {tmemMs * factor, ndep * factor};
    }

    bool operator==(const Workload &other) const
    {
        return tmemMs == other.tmemMs && ndep == other.ndep;
    }
    bool operator!=(const Workload &other) const
    {
        return !(*this == other);
    }
};

/**
 * Evaluates Eqn. 1 over a platform's configurations and inverts it from
 * measurements (the "solve the system of equations" step of Sec. 5.3).
 */
class DvfsLatencyModel
{
  public:
    explicit DvfsLatencyModel(const AcmpPlatform &platform);

    /** The model keeps a pointer to @p platform; a temporary would
     *  dangle by the first latency() call. */
    explicit DvfsLatencyModel(AcmpPlatform &&) = delete;

    /** Latency of @p work on configuration @p cfg (Eqn. 1). */
    TimeMs latency(const Workload &work, const AcmpConfig &cfg) const
    {
        return work.tmemMs + cycleCoeff(cfg) * work.ndep;
    }

    /** Latency by dense configuration index. */
    TimeMs latencyAt(const Workload &work, int config_index) const
    {
        return latency(work, platform_->configAt(config_index));
    }

    /**
     * The "cycle time" coefficient k such that latency = tmem + k * ndep
     * for configuration @p cfg (ms per mega-cycle).
     */
    double cycleCoeff(const AcmpConfig &cfg) const
    {
        // ms per mega-cycle: 1000 * cpi / f[MHz].
        return 1000.0 * platform_->cluster(cfg.core).cpiFactor /
               cfg.freq;
    }

    /**
     * Recover (Tmem, Ndep) from two latency measurements on distinct
     * configurations. Exact when the measurements obey Eqn. 1; results are
     * clamped to be non-negative. Panics when the two configurations have
     * identical cycle coefficients (singular system).
     */
    Workload solveTwoPoint(const AcmpConfig &cfg1, TimeMs t1,
                           const AcmpConfig &cfg2, TimeMs t2) const;

    /** The platform the model evaluates against. */
    const AcmpPlatform &platform() const { return *platform_; }

  private:
    const AcmpPlatform *platform_;
};

} // namespace pes

#endif // PES_HW_DVFS_MODEL_HH
