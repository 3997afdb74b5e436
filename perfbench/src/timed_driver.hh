/**
 * @file
 * A forwarding SchedulerDriver that times every callback.
 *
 * The benchmark cannot trace inside the program, so it measures the
 * scheduler layer at its boundary: the simulator calls this wrapper,
 * which calls the real driver and adds the elapsed time to DriverTimes.
 * Forwarding changes no decision, so a wrapped replay is bit-identical
 * to an unwrapped one (tested).
 */

#ifndef PERFBENCH_TIMED_DRIVER_HH
#define PERFBENCH_TIMED_DRIVER_HH

#include <cstdint>

#include "sim/scheduler_driver.hh"
#include "spans.hh"
#include "util/psketch.hh"

namespace perfbench {

/** Callback timings accumulated across wrapped sessions. */
struct DriverTimes
{
    /** Callbacks of every kind. */
    uint64_t calls = 0;
    /** Time inside the wrapped driver, all callbacks (ns). */
    int64_t ns = 0;
    /** Durations of the nextWork calls (us), the planning decisions.
     *  A sketch: reactive sweeps make tens of millions of them. */
    pes::PercentileSketch planUs;
};

/**
 * Times each callback into @p inner and, with a recorder, records a
 * span for each — except sampleIntervalMs, a getter the simulator polls
 * twice per governor tick, which is timed but not spanned.
 */
class TimedDriver final : public pes::SchedulerDriver
{
  public:
    /** @p inner, @p times and @p spans (when non-null) must outlive the
     *  wrapper. Spans are tagged with @p session. */
    TimedDriver(pes::SchedulerDriver &inner, DriverTimes &times,
                SpanRecorder *spans = nullptr, uint64_t session = 0)
        : inner_(inner), times_(times), spans_(spans), session_(session)
    {
    }

    std::string name() const override;
    void begin(pes::SimulatorApi &api) override;
    void onArrival(pes::SimulatorApi &api, int trace_index) override;
    std::optional<pes::WorkItem> nextWork(pes::SimulatorApi &api) override;
    void onWorkFinished(pes::SimulatorApi &api,
                        const pes::CompletedWork &work) override;
    bool resetFresh() override;
    pes::TimeMs sampleIntervalMs() const override;
    std::optional<pes::AcmpConfig>
    onSampleTick(pes::SimulatorApi &api,
                 const pes::ExecutionStatus &status) override;

  private:
    template <typename F>
    auto timed(const char *span_name, bool is_plan, F &&call) const
        -> decltype(call());

    pes::SchedulerDriver &inner_;
    DriverTimes &times_;
    SpanRecorder *spans_;
    uint64_t session_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_DRIVER_HH
