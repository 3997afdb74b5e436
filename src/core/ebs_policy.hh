/**
 * @file
 * Per-event QoS-aware configuration policy (EBS core, Zhu et al. HPCA'15).
 *
 * "Before executing an event EBS predicts the optimal ACMP configuration
 * that would meet the event's QoS target using the minimal energy"
 * (paper Sec. 4.2). The policy owns the online Eqn.-1 estimator: the first
 * two encounters of an event class are measured at two probe frequencies;
 * afterwards the fitted (Tmem, Ndep) drives the per-configuration latency
 * and energy estimates. Event classes without an estimate fall back to an
 * online per-interaction prior so planning (PES) can still reason about
 * them.
 *
 * Shared by EbsScheduler (reactive baseline) and PesScheduler (estimates
 * for the global optimizer, and the >3-mispredict reactive fallback).
 */

#ifndef PES_CORE_EBS_POLICY_HH
#define PES_CORE_EBS_POLICY_HH

#include <array>

#include "hw/estimator.hh"
#include "hw/power_model.hh"
#include "util/stats.hh"
#include "web/event_types.hh"

namespace pes {

/**
 * Workload estimation + minimum-energy configuration choice.
 */
class EbsPolicy
{
  public:

    /**
     * @param platform The ACMP platform (must outlive the policy).
     * @param power The power table (must outlive the policy).
     *
     * The policy owns its latency model so its learned state can persist
     * across simulator instances (the device keeps its Eqn.-1
     * measurements across sessions, like the paper's warmed system).
     */
    EbsPolicy(const AcmpPlatform &platform, const PowerModel &power);

    EbsPolicy(const EbsPolicy &) = delete;
    EbsPolicy &operator=(const EbsPolicy &) = delete;

    /** Record a measured execution (updates estimator and priors). */
    void recordMeasurement(uint64_t class_key, DomEventType type,
                           const AcmpConfig &config, TimeMs exec_ms);

    /** True once the class has a fitted (Tmem, Ndep). */
    bool hasEstimate(uint64_t class_key) const;

    /**
     * Workload estimate for planning: the class's two-point fit when
     * available; after a single measurement, a one-point estimate that
     * splits the measured latency into memory/compute using the
     * interaction prior's memory fraction; otherwise the per-interaction
     * prior, otherwise a conservative default.
     */
    Workload estimateWorkload(uint64_t class_key, DomEventType type) const;

    /**
     * EBS's per-event decision: the minimum-energy configuration whose
     * estimated latency fits in @p budget_ms. During the first two
     * encounters returns the measurement probe configuration; when no
     * configuration fits, returns the highest-performance one.
     */
    AcmpConfig chooseConfig(uint64_t class_key, DomEventType type,
                            TimeMs budget_ms) const;

    /** The minimum-energy feasible configuration for a known workload. */
    AcmpConfig chooseConfigFor(const Workload &work,
                               TimeMs budget_ms) const;

    /** The underlying estimator (diagnostics/tests). */
    const TwoPointEstimator &estimator() const { return estimator_; }

  private:
    DvfsLatencyModel model_;
    const PowerModel *power_;
    TwoPointEstimator estimator_;

    struct Prior
    {
        RunningStats tmem;
        RunningStats ndep;
    };
    std::array<Prior, kNumInteractions> priors_;
};

} // namespace pes

#endif // PES_CORE_EBS_POLICY_HH
