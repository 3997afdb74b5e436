/**
 * @file
 * pes_coordinator: leased work-queue orchestration of one fleet sweep
 * across any number of pes_fleet workers sharing one ResultStore.
 *
 *   # Partition a sweep into leases and create the shared store:
 *   pes_coordinator init --queue-dir=Q --results-dir=R \
 *       --schedulers=pes,ebs --apps=cnn,amazon --users=120
 *
 *   # Supervise: expire dead leases, steal from stragglers, reduce
 *   # when the store covers the plan:
 *   pes_coordinator run --queue-dir=Q --out=fleet.json &
 *
 *   # Any number of workers, on any machines sharing the filesystem:
 *   pes_fleet work --coordinator=Q &
 *   pes_fleet work --coordinator=Q &
 *
 * Workers self-claim ranges through O_EXCL markers; the coordinator
 * only restores liveness (expiry/steal reopens with a bumped fencing
 * epoch). Kill workers freely: re-executed ranges produce duplicate
 * records that deduplicate at reduction, so the final report is
 * byte-identical to the same sweep run whole in one process
 * (`pes_fleet diff --exact` gates it in CI).
 */

#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coordinator/coordinator.hh"
#include "coordinator/lease_queue.hh"
#include "population/population_spec.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/telemetry.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pes;

namespace {

LeaseQueue
openQueue(const std::string &queue_dir)
{
    fatal_if(queue_dir.empty(), "--queue-dir=DIR is required");
    std::string error;
    auto queue = LeaseQueue::open(queue_dir, &error);
    fatal_if(!queue, "%s", error.c_str());
    return std::move(*queue);
}

/** Open the queue's result store (it must exist — init created it). */
ResultStore
openStore(const LeaseQueue &queue)
{
    std::string error;
    auto store = ResultStore::open(queue.plan().resultsDir, &error);
    fatal_if(!store, "cannot open results store: %s", error.c_str());
    return std::move(*store);
}

/** Reduce @p store and write reports; returns the exit code. */
int
reduceAndReport(const ResultStore &store, const std::string &out_path,
                const std::string &csv_path, bool quiet,
                uint64_t *sessions_out)
{
    std::string error;
    StoreReduction reduction;
    fatal_if(!reduceStore(store, reduction, &error), "%s",
             error.c_str());
    if (!reduction.problems.empty()) {
        for (const std::string &p : reduction.problems)
            std::cerr << "FAIL " << p << "\n";
        return 4;
    }
    if (sessions_out)
        *sessions_out = reduction.sessions;
    if (!quiet) {
        std::cout << "reduced " << reduction.sessions << " sessions";
        if (reduction.duplicates > 0)
            std::cout << " (" << reduction.duplicates
                      << " duplicate re-runs deduplicated)";
        if (reduction.missing > 0)
            std::cout << "; " << reduction.missing
                      << " expected sessions missing (partial sweep)";
        std::cout << "\n";
    }
    writeReportFiles(makeStoreReport(store, reduction.metrics), out_path,
                     csv_path, std::cout);
    return 0;
}

// ---------------------------------------------------------------- init

int
cmdInit(const Command &cmd)
{
    std::string queue_dir, results_dir, population_ref;
    int grain = 0;
    int64_t lease_ms = 30000;
    FleetConfig config;
    cmd.parse({
        {
            stringFlag("queue-dir", "DIR", queue_dir,
                       "queue to create (required)"),
            stringFlag("results-dir", "DIR", results_dir,
                       "shared store to create (required)"),
            stringFlag("population", "SPEC", population_ref,
                       "mixture population, embedded in the queue"),
            intFlag("grain", "N", grain, 1, INT_MAX,
                    "jobs per range [users per cell]"),
            intFlag("lease-ms", "MS", lease_ms, 100, INT64_MAX,
                    "lease duration [30000]"),
        },
        sweepFlags(config, {"schedulers", "apps", "devices", "users", "seed",
                            "eval-population", "warm", "checkpoint-every"}),
    });
    fatal_if(queue_dir.empty(), "init: --queue-dir=DIR is required");
    fatal_if(results_dir.empty(),
             "init: --results-dir=DIR is required");

    // Mixture population: resolved here, embedded in queue.json below
    // so workers reconstruct the exact spec (and digest) from the plan.
    std::optional<PopulationSpec> population;
    if (const int rc = applyPopulation(population_ref, population, config))
        return rc;

    // The store is created first, with the same spec workers re-derive
    // from queue.json — so the queue's identity and the manifest's can
    // never drift apart.
    const SweepSpec spec = SweepSpec::fromConfig(config);
    std::string error;
    auto store = ResultStore::create(results_dir, spec, &error);
    fatal_if(!store, "init: %s", error.c_str());

    const int jobs = config.jobCount();
    const int users_per_cell = config.effectiveUsers();
    int effective_grain = grain > 0 ? grain : users_per_cell;
    if (config.warmDrivers)
        effective_grain = alignedGrain(effective_grain, users_per_cell);

    QueuePlan plan;
    plan.resultsDir = results_dir;
    plan.leaseMs = lease_ms;
    plan.grain = effective_grain;
    plan.baseSeed = config.baseSeed;
    plan.seedMode = spec.seedMode;
    plan.users = users_per_cell;
    plan.warmDrivers = config.warmDrivers;
    plan.checkpointEvery = config.checkpointEvery;
    plan.devices = spec.devices;
    plan.apps = spec.apps;
    plan.schedulers = spec.schedulers;
    plan.population = population;
    plan.ranges = partitionJobs(jobs, effective_grain);

    auto queue = LeaseQueue::create(queue_dir, plan, &error);
    fatal_if(!queue, "init: %s", error.c_str());

    std::cout << "queue " << queue_dir << ": " << plan.ranges.size()
              << " range(s) of <= " << effective_grain << " jobs over "
              << jobs << " sessions; lease " << lease_ms
              << " ms; store " << results_dir << "\n"
              << "start workers with: pes_fleet work --coordinator="
              << queue_dir << "\n";
    return 0;
}

// ----------------------------------------------------------------- run

int
cmdRun(const Command &cmd)
{
    std::string queue_dir, out_path, csv_path, telemetry_out;
    long interval_ms = 200;
    long max_wall_ms = 0;
    bool once = false;
    bool quiet = false;
    CoordinatorOptions options;
    cmd.parse({{
        stringFlag("queue-dir", "DIR", queue_dir, "lease queue (required)"),
        stringFlag("out", "FILE", out_path, "write the JSON report"),
        stringFlag("csv", "FILE", csv_path, "write the CSV report"),
        stringFlag("telemetry-out", "FILE", telemetry_out,
                   "write a RunTelemetry JSON summary"),
        intFlag("interval-ms", "MS", interval_ms, 10, LONG_MAX,
                "supervision period [200]"),
        doubleFlag("steal-factor", "F", options.stealFactor, 1.0,
                   kUnbounded, "steal ranges held F x too long [4]"),
        intFlag("min-steal-ms", "MS", options.minStealMs, 0, INT64_MAX,
                "never steal before this hold time [2000]"),
        intFlag("max-wall-ms", "MS", max_wall_ms, 0, LONG_MAX,
                "fail when not done in time (0 = never)"),
        switchFlag("once", once, "one supervision pass, then exit"),
        switchFlag("quiet", quiet, "suppress progress chatter"),
    }});
    LeaseQueue queue = openQueue(queue_dir);

    TelemetryRegistry telemetry;
    telemetry.setEnabled(true);
    CoordinatorStats stats;
    const int64_t started = wallClockMs();
    std::string error;

    for (;;) {
        if (!coordinatorPass(queue, wallClockMs(), options, stats,
                             &telemetry, &error)) {
            std::cerr << "FAIL coordinator: " << error << "\n";
            return 1;
        }
        if (sweepDone(stats))
            break;
        if (once)
            break;
        if (max_wall_ms > 0 && wallClockMs() - started > max_wall_ms) {
            std::cerr << "FAIL coordinator: sweep not done within "
                      << max_wall_ms << " ms (open=" << stats.open
                      << " leased=" << stats.leased << " done="
                      << stats.done << ")\n";
            return 1;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }

    const uint64_t issued = queue.claimMarkers();
    std::cout << "coordinator: " << stats.done << "/"
              << queue.plan().ranges.size() << " ranges done, leases "
              << "issued " << issued << ", expired " << stats.expired
              << ", stolen " << stats.stolen << "\n";

    if (once && !sweepDone(stats))
        return 0;

    // Every lease is done — but the contract is with the STORE, not
    // the ledger: verify plan coverage before reducing.
    ResultStore store = openStore(queue);
    uint64_t missing = 0;
    if (!storeCoversSweep(store, &missing, &error)) {
        if (!error.empty()) {
            std::cerr << "FAIL coordinator: " << error << "\n";
            return 4;
        }
        std::cerr << "FAIL coordinator: all leases done but the store "
                  << "is missing " << missing
                  << " expected session(s)\n";
        return 4;
    }
    uint64_t sessions = 0;
    const int code =
        reduceAndReport(store, out_path, csv_path, quiet, &sessions);
    if (code != 0)
        return code;

    if (!telemetry_out.empty()) {
        telemetry.count("coord.leases_issued", issued);
        telemetry.count("coord.ranges",
                        static_cast<uint64_t>(
                            queue.plan().ranges.size()));
        RunTelemetry rt;
        rt.tool = "coordinator";
        rt.threads = 1;
        rt.sessions = sessions;
        rt.totalMs = static_cast<double>(wallClockMs() - started);
        rt.setSnapshot(telemetry.snapshot());
        std::ofstream os(telemetry_out);
        fatal_if(!os, "cannot open '%s'", telemetry_out.c_str());
        writeRunTelemetryJson(rt, os);
        std::cout << "[telemetry: " << telemetry_out << "]\n";
    }
    return 0;
}

// -------------------------------------------------------------- status

int
cmdStatus(const Command &cmd)
{
    std::string queue_dir;
    cmd.parse({{stringFlag("queue-dir", "DIR", queue_dir,
                           "lease queue (required)")}});
    LeaseQueue queue = openQueue(queue_dir);
    std::vector<Lease> leases;
    std::string error;
    fatal_if(!queue.loadLeases(&leases, &error), "%s", error.c_str());

    const int64_t now = wallClockMs();
    Table table({"range", "jobs", "state", "epoch", "owner", "age(s)"});
    for (const Lease &lease : leases) {
        const char *state = lease.state == LeaseState::Open ? "open"
            : lease.state == LeaseState::Leased ? "leased"
                                                : "done";
        table.beginRow()
            .cell(static_cast<long>(lease.seq))
            .cell("[" + std::to_string(lease.first) + ", +" +
                  std::to_string(lease.count) + ")")
            .cell(std::string(state))
            .cell(static_cast<long>(lease.epoch))
            .cell(lease.owner.empty() ? "-" : lease.owner)
            .cell(lease.state == LeaseState::Leased
                      ? static_cast<double>(now - lease.sinceMs) /
                          1000.0
                      : 0.0,
                  1);
    }
    table.print(std::cout);

    const auto rates = queue.workerRates();
    if (!rates.empty()) {
        Table workers({"worker", "sessions", "sessions/s"});
        for (const WorkerRate &rate : rates) {
            workers.beginRow()
                .cell(rate.worker)
                .cell(static_cast<long>(rate.sessions))
                .cell(rate.sessionsPerSec, 1);
        }
        workers.print(std::cout);
    }
    std::cout << "leases issued so far: " << queue.claimMarkers()
              << "\n";
    return 0;
}

// -------------------------------------------------------------- reduce

int
cmdReduce(const Command &cmd)
{
    std::string queue_dir, out_path, csv_path;
    bool quiet = false;
    cmd.parse({{
        stringFlag("queue-dir", "DIR", queue_dir, "lease queue (required)"),
        stringFlag("out", "FILE", out_path, "write the JSON report"),
        stringFlag("csv", "FILE", csv_path, "write the CSV report"),
        switchFlag("quiet", quiet, "suppress progress chatter"),
    }});
    LeaseQueue queue = openQueue(queue_dir);
    ResultStore store = openStore(queue);
    return reduceAndReport(store, out_path, csv_path, quiet, nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    static const Tool tool{
        "pes_coordinator",
        "leased work-queue orchestration of one fleet sweep",
        {
            {"init", cmdInit, "partition a sweep into leases and a store",
             "Scenario (stress) sweeps cannot be coordinated; shard those. "
             "Start workers\nwith `pes_fleet work --coordinator=DIR`."},
            {"run", cmdRun, "supervise leases until done, then reduce",
             "Reopens expired leases and steals from stragglers.\nexit: 0 "
             "done and reduced, 1 supervision error or wall budget, 4 store\n"
             "fails coverage or reduction"},
            {"status", cmdStatus, "print each range's state and worker rates"},
            {"reduce", cmdReduce, "reduce whatever the store holds now"},
        }};
    return runTool(tool, argc, argv);
}
