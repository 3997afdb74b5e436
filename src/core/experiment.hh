/**
 * @file
 * Shared experiment harness.
 *
 * Owns the fixed pieces every figure/table bench needs — platform, power
 * table, trace generator, the trained event model — and runs (app, trace,
 * scheduler) combinations into a ResultSet. Evaluation follows the paper:
 * 3 evaluation traces per application from users disjoint from the
 * training population, each replayed under every scheduler (Sec. 6.1).
 */

#ifndef PES_CORE_EXPERIMENT_HH
#define PES_CORE_EXPERIMENT_HH

#include <memory>
#include <optional>

#include "core/pes_scheduler.hh"
#include "core/scheduler_kind.hh"
#include "runner/fleet_runner.hh"
#include "sim/metrics.hh"
#include "sim/runtime_simulator.hh"
#include "trace/generator.hh"

namespace pes {

/**
 * Experiment harness (non-copyable: internal models hold pointers).
 */
class Experiment
{
  public:
    /** Traces per app used for training (>100 total across 12 apps). */
    static constexpr int kTrainingTracesPerApp = 9;
    /** Evaluation traces per app (paper: three). */
    static constexpr int kEvalTracesPerApp = 3;

    explicit Experiment(AcmpPlatform platform = AcmpPlatform::exynos5410());

    Experiment(const Experiment &) = delete;
    Experiment &operator=(const Experiment &) = delete;

    /** The modeled SoC. */
    const AcmpPlatform &platform() const { return platform_; }

    /** The power lookup table. */
    const PowerModel &power() const { return power_; }

    /** The trace generator (caches built apps). */
    TraceGenerator &generator() { return generator_; }

    /**
     * The event-sequence model trained on the seen applications
     * (trained once, cached).
     */
    const LogisticModel &trainedModel();

    /** Instantiate a scheduler driver. */
    std::unique_ptr<SchedulerDriver>
    makeScheduler(SchedulerKind kind,
                  std::optional<PesScheduler::Config> pes_config =
                      std::nullopt);

    /** Replay one trace of @p profile under @p driver. */
    SimResult runTrace(const AppProfile &profile,
                       const InteractionTrace &trace,
                       SchedulerDriver &driver);

    /**
     * The full evaluation sweep: for every profile, kEvalTracesPerApp
     * fresh-user traces, each replayed under every scheduler in
     * @p kinds, as a fleet run (warm per-cell drivers, evaluation user
     * population, sweepThreads() workers; identical results for any
     * thread count). Returns the aggregated per-cell metrics next to
     * the raw results; metrics-only callers pass collect_results =
     * false to skip retaining per-event records.
     */
    FleetOutcome runFleetSweep(const std::vector<AppProfile> &profiles,
                               const std::vector<SchedulerKind> &kinds,
                               bool collect_results = true);

    /** Worker threads used by runFleetSweep. */
    int sweepThreads() const { return sweepThreads_; }

    /** Override the sweep worker count (>= 1). */
    void setSweepThreads(int threads);

    /** Default sweep parallelism: the hardware concurrency. */
    static int defaultSweepThreads();

    /**
     * Replay the evaluation traces of @p profile under a caller-built
     * driver (for sweeps over PES configurations).
     */
    void runAppUnder(const AppProfile &profile, SchedulerDriver &driver,
                     ResultSet &out);

  private:
    AcmpPlatform platform_;
    PowerModel power_;
    TraceGenerator generator_;
    std::optional<LogisticModel> model_;
    int sweepThreads_ = defaultSweepThreads();
};

} // namespace pes

#endif // PES_CORE_EXPERIMENT_HH
