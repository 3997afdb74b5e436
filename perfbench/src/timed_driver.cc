#include "timed_driver.hh"

#include <chrono>
#include <type_traits>

namespace perfbench {

template <typename F>
auto
TimedDriver::timed(const char *span_name, bool is_plan, F &&call) const
    -> decltype(call())
{
    using Clock = std::chrono::steady_clock;
    ScopedSpan span(span_name ? spans_ : nullptr, span_name, session_);
    const auto start = Clock::now();
    const auto record = [&] {
        const int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count();
        ++times_.calls;
        times_.ns += ns;
        if (is_plan)
            times_.planUs.add(static_cast<double>(ns) / 1000.0);
    };
    if constexpr (std::is_void_v<decltype(call())>) {
        call();
        record();
    } else {
        auto result = call();
        record();
        return result;
    }
}

std::string
TimedDriver::name() const
{
    return timed("core.name", false, [&] { return inner_.name(); });
}

void
TimedDriver::begin(pes::SimulatorApi &api)
{
    timed("core.begin", false, [&] { inner_.begin(api); });
}

void
TimedDriver::onArrival(pes::SimulatorApi &api, int trace_index)
{
    timed("core.onArrival", false,
          [&] { inner_.onArrival(api, trace_index); });
}

std::optional<pes::WorkItem>
TimedDriver::nextWork(pes::SimulatorApi &api)
{
    return timed("core.nextWork", true, [&] { return inner_.nextWork(api); });
}

void
TimedDriver::onWorkFinished(pes::SimulatorApi &api,
                            const pes::CompletedWork &work)
{
    timed("core.onWorkFinished", false,
          [&] { inner_.onWorkFinished(api, work); });
}

bool
TimedDriver::resetFresh()
{
    return timed("core.resetFresh", false,
                 [&] { return inner_.resetFresh(); });
}

pes::TimeMs
TimedDriver::sampleIntervalMs() const
{
    return timed(nullptr, false,
                 [&] { return inner_.sampleIntervalMs(); });
}

std::optional<pes::AcmpConfig>
TimedDriver::onSampleTick(pes::SimulatorApi &api,
                          const pes::ExecutionStatus &status)
{
    return timed("core.onSampleTick", false,
                 [&] { return inner_.onSampleTick(api, status); });
}

} // namespace perfbench
