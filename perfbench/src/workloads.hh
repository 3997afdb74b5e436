/**
 * @file
 * The benchmark's workloads and the end-to-end path they drive.
 *
 * Every workload is one fleet sweep run through the program's real
 * entry point, exactly as `pes_fleet` runs it: the PES event model is
 * trained with trainEventModel before the run (when PES is swept) and
 * handed to FleetRunner::run() as the pretrained model. The seed given
 * to the benchmark becomes FleetConfig::baseSeed, so it selects the
 * simulated users; nothing else about the inputs changes with it.
 *
 * Why each workload exists:
 *  - pes_paper: the paper's scheduler on the paper's 18 apps. Nearly all
 *    of its time is the Eqn. 2-5 solver on short plan windows, and it is
 *    the only workload that runs the predictor, its DOM analysis and the
 *    PFB code.
 *  - reactive_store: EBS, Interactive and Ondemand, persisted into a
 *    result store and reduced from it. It never calls
 *    the predictor or the solver; its load is trace synthesis, trace
 *    sharing across the scheduler axis, the event loop, the worker pool
 *    and .psum checkpoint writes.
 *
 * Oracle on whole-trace chains is not a workload: a sweep short enough
 * to repeat in a run holds ~54 sessions, and its rate followed the
 * seed's longest chains (17% interquartile spread over ten seeds). The
 * traced run still solves whole-trace chains directly on every workload.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler_kind.hh"
#include "ml/logistic.hh"
#include "results/result_store.hh"
#include "runner/fleet_config.hh"
#include "runner/fleet_runner.hh"
#include "sim/scheduler_driver.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/telemetry.hh"

namespace perfbench {

/** One benchmark workload: a fleet sweep over the 18 paper apps. */
struct WorkloadSpec
{
    std::string name;
    std::vector<pes::SchedulerKind> schedulers;
    /** Simulated users per (app, scheduler) cell. */
    int users = 1;
    int threads = 1;
    /** Persist into a ResultStore (default checkpointing) and reduce
     *  from it. */
    bool persist = false;
};

/** The workloads, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadSpec> &workloads();

/** The workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** True when @p w sweeps a scheduler that needs the PES event model. */
bool needsModel(const WorkloadSpec &w);

/** True when @p kind plans with the Eqn. 2-5 optimizer. */
bool usesSolver(pes::SchedulerKind kind);

/**
 * Everything that happens before FleetRunner::run(): the sweep config,
 * the trained event model, the result store and the runner itself
 * (which validates the config and enumerates the jobs). Heap-allocated
 * and pinned, because the runner's config borrows the model and store.
 */
struct Setup
{
    std::optional<pes::LogisticModel> model;
    std::optional<pes::ResultStore> store;
    /** Declared last: destroyed before what its config borrows. */
    std::unique_ptr<pes::FleetRunner> runner;
};

/**
 * Build the setup of @p w for @p seed. @p store_dir must not hold a
 * store yet (see removeTree); it is only used when the workload
 * persists. A non-null @p telemetry arms the run. Exits the process on
 * a store that cannot be created.
 */
std::unique_ptr<Setup> makeSetup(const WorkloadSpec &w, uint64_t seed,
                                 const std::string &store_dir,
                                 pes::TelemetryRegistry *telemetry = nullptr);

/** The trained PES event model, exactly as makeSetup trains it. */
pes::LogisticModel trainModel(const pes::FleetConfig &config);

/** Delete @p path and everything under it (no error when absent). */
void removeTree(const std::string &path);

/** One FleetRunner::run() and what the benchmark reads from it. */
struct FleetRun
{
    /** Wall time of run(): plan, execute, persist and reduce (s). */
    double wallS = 0.0;
    /** Sessions the run attempted. */
    int attempted = 0;
    /** Sessions missing from the report, or every attempted session
     *  when run() returned diagnostics. */
    int failed = 0;
    /** The JSON report, as `pes_fleet --out` writes it. */
    std::string reportJson;
    pes::FleetOutcome outcome;
    /** Filled when the run was armed with a telemetry registry. */
    pes::RunTelemetry telemetry;
};

/** Call run() on the runner of @p setup and read its outputs. */
FleetRun runFleet(Setup &setup);

/**
 * Output checks on one finished run: every cell holds every user, the
 * report covers every attempted session, and each cell's busy + idle +
 * overhead + waste energy sums to its total. Returns the problems found.
 */
std::vector<std::string> checkRun(const WorkloadSpec &w, const FleetRun &run);

/** The driver FleetRunner builds for @p kind, built the same way. */
std::unique_ptr<pes::SchedulerDriver>
makeDriver(pes::SchedulerKind kind, const pes::LogisticModel *model);

/** Energy closure tolerance: |total - parts| <= this * max(1, total). */
constexpr double kEnergyClosureTolerance = 1e-9;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
