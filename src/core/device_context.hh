/**
 * @file
 * One simulated device: everything a session on it needs besides the
 * trace and the driver.
 *
 * A DeviceContext holds the platform, its power table, a main-thread
 * trace generator, the PES event model (trained once, or borrowed), the
 * only SchedulerKind -> driver factory, and a one-session replay. The
 * fleet runner builds one per swept device and takes its drivers from
 * it; figure benches, examples, tools and tests replay single sessions
 * through it, and run the paper's Sec.-6.1 evaluation protocol as a
 * fleet (runner/fleet_config.hh, evaluationFleet).
 */

#ifndef PES_CORE_DEVICE_CONTEXT_HH
#define PES_CORE_DEVICE_CONTEXT_HH

#include <memory>
#include <optional>

#include "core/scheduler_kind.hh"
#include "hw/power_model.hh"
#include "ml/logistic.hh"
#include "sim/runtime_simulator.hh"
#include "trace/generator.hh"

namespace pes {

/**
 * Per-device state (non-copyable: the power table and generator hold
 * pointers into the platform). Workers may share one context once its
 * model is ready: platform(), power(), makeDriver() and makeEngine()
 * (with the worker's own generator) only read.
 */
class DeviceContext
{
  public:
    /**
     * @param borrowed_model A pre-trained event model to use instead of
     *        training one (not owned; must outlive the context).
     */
    explicit DeviceContext(
        AcmpPlatform platform = AcmpPlatform::exynos5410(),
        int training_traces_per_app = TraceGenerator::kTrainingTracesPerApp,
        const LogisticModel *borrowed_model = nullptr);

    DeviceContext(const DeviceContext &) = delete;
    DeviceContext &operator=(const DeviceContext &) = delete;

    /** The modeled SoC. */
    const AcmpPlatform &platform() const { return platform_; }

    /** The power lookup table. */
    const PowerModel &power() const { return power_; }

    /** The main-thread trace generator (caches built apps). */
    TraceGenerator &generator() { return generator_; }

    /**
     * The event-sequence model: the borrowed one, else trained on the
     * seen applications on first call. Call it on one thread before
     * workers make PES drivers.
     */
    const LogisticModel &model();

    /** A fresh driver of @p kind. PES needs model() to have run. */
    std::unique_ptr<SchedulerDriver> makeDriver(SchedulerKind kind) const;

    /** A replay engine for @p profile's app as built by @p generator
     *  (a worker passes its own generator). */
    std::unique_ptr<RuntimeSimulator>
    makeEngine(const AppProfile &profile, TraceGenerator &generator) const;

    /** Replay @p trace of @p profile under @p driver on a new engine. */
    SimResult replay(const AppProfile &profile,
                     const InteractionTrace &trace,
                     SchedulerDriver &driver);

  private:
    AcmpPlatform platform_;
    PowerModel power_;
    TraceGenerator generator_;
    int trainingTracesPerApp_;
    std::optional<LogisticModel> ownedModel_;
    const LogisticModel *model_;
};

} // namespace pes

#endif // PES_CORE_DEVICE_CONTEXT_HH
