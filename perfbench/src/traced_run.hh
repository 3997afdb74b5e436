/**
 * @file
 * The traced run: per-layer numbers for one workload.
 *
 * It runs the workload through FleetRunner with telemetry off and on
 * (alternating, to measure what arming costs), plus one armed run with
 * two workers that pool and lock contention are read from, then replays
 * every session itself — generate the trace, run it under a timing wrapper
 * around the scheduler driver, reduce with runStats — recording spans at
 * each layer boundary. The replay must reproduce the run's report byte
 * for byte. Finally it calls each remaining layer's public functions
 * directly on the workload's own traces: DOM analysis, the optimizer on
 * whole-trace chains and on sliding plan windows, model training, store
 * reduction and sketch merges. Every layer is probed on every workload,
 * so a layer's timings exist even where the end-to-end run bypasses it;
 * the counts (e.g. solver.run_sessions) say whether it does.
 */

#ifndef PERFBENCH_TRACED_RUN_HH
#define PERFBENCH_TRACED_RUN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runtime_simulator.hh"
#include "trace/app_profile.hh"
#include "workloads.hh"

namespace perfbench {

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything the traced run reports. */
struct TracedResult
{
    std::vector<Metric> metrics;
    /** Failed output checks; empty when the outputs are correct. */
    std::vector<std::string> problems;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Human-readable detail: tail percentiles, self time per layer. */
    std::vector<std::string> notes;
};

/** The simulator options FleetRunner uses for one fleet session. */
pes::SimConfig fleetSimConfig(const pes::AppProfile &profile,
                              uint64_t user_seed);

/**
 * Run the traced benchmark of @p w. Stores and the span file go under
 * @p work_dir. @p seconds bounds the alternating untraced/armed runs.
 */
TracedResult runTraced(const WorkloadSpec &w, uint64_t seed, double seconds,
                       const std::string &work_dir);

} // namespace perfbench

#endif // PERFBENCH_TRACED_RUN_HH
