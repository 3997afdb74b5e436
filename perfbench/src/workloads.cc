#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/ebs_scheduler.hh"
#include "core/governors.hh"
#include "core/oracle_scheduler.hh"
#include "core/pes_scheduler.hh"
#include "core/predictor_training.hh"
#include "runner/reporters.hh"
#include "trace/app_profile.hh"
#include "trace/generator.hh"

namespace perfbench {

using pes::SchedulerKind;

const std::vector<WorkloadSpec> &
workloads()
{
    // One worker each: on a shared host a second worker's speed depends
    // on whether a second core is free, and the rate of reactive_store
    // with two workers spread by a quarter between runs. The traced run
    // still reads pool and lock contention from a two-worker run.
    // reactive_store's 100 users make a run of about a second, so a
    // measured run holds the ~40 repeats its rate is taken from.
    static const std::vector<WorkloadSpec> list = {
        {"pes_paper", {SchedulerKind::Pes}, 40, 1, false},
        {"reactive_store",
         {SchedulerKind::Ebs, SchedulerKind::Interactive,
          SchedulerKind::Ondemand},
         100, 1, true},
    };
    return list;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

bool
needsModel(const WorkloadSpec &w)
{
    for (const SchedulerKind kind : w.schedulers)
        if (kind == SchedulerKind::Pes)
            return true;
    return false;
}

bool
usesSolver(SchedulerKind kind)
{
    return kind == SchedulerKind::Pes || kind == SchedulerKind::Oracle;
}

pes::LogisticModel
trainModel(const pes::FleetConfig &config)
{
    pes::TraceGenerator generator(config.devices.front());
    return pes::trainEventModel(generator, pes::seenApps(),
                                config.trainingTracesPerApp);
}

std::unique_ptr<Setup>
makeSetup(const WorkloadSpec &w, uint64_t seed, const std::string &store_dir,
          pes::TelemetryRegistry *telemetry)
{
    auto setup = std::make_unique<Setup>();
    pes::FleetConfig config;
    config.devices = {pes::AcmpPlatform::exynos5410()};
    config.apps = pes::parseAppList("all");
    config.schedulers = w.schedulers;
    config.users = w.users;
    config.threads = w.threads;
    config.baseSeed = seed;
    config.telemetry = telemetry;
    if (needsModel(w)) {
        setup->model = trainModel(config);
        config.pretrainedModel = &*setup->model;
        config.pretrainedModelDevice = config.devices.front().name();
    }
    if (w.persist) {
        std::string error;
        setup->store = pes::ResultStore::create(
            store_dir, pes::SweepSpec::fromConfig(config), &error);
        if (!setup->store) {
            std::fprintf(stderr, "perfbench: cannot create store %s: %s\n",
                         store_dir.c_str(), error.c_str());
            std::exit(1);
        }
        config.resultStore = &*setup->store;
    }
    setup->runner = std::make_unique<pes::FleetRunner>(std::move(config));
    return setup;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

FleetRun
runFleet(Setup &setup)
{
    FleetRun run;
    pes::FleetRunner &runner = *setup.runner;
    const auto start = std::chrono::steady_clock::now();
    run.outcome = runner.run();
    run.wallS = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();

    run.attempted = run.outcome.plan.plannedJobs;
    const pes::FleetReport report =
        pes::makeFleetReport(runner.config(), run.outcome.metrics);
    run.reportJson = pes::JsonReporter::toString(report);
    run.failed = run.outcome.diagnostics.empty()
        ? std::max(0, run.attempted - report.sessions)
        : run.attempted;
    if (runner.config().telemetry)
        run.telemetry = pes::makeRunTelemetry(runner.config(), run.outcome);
    return run;
}

std::vector<std::string>
checkRun(const WorkloadSpec &w, const FleetRun &run)
{
    std::vector<std::string> problems;
    for (const std::string &d : run.outcome.diagnostics)
        problems.push_back("run diagnostic: " + d);
    const std::vector<pes::CellSummary> cells = run.outcome.metrics.cells();
    const size_t expected_cells =
        pes::parseAppList("all").size() * w.schedulers.size();
    if (cells.size() != expected_cells) {
        problems.push_back("report has " + std::to_string(cells.size()) +
                           " cells, expected " +
                           std::to_string(expected_cells));
    }
    if (run.outcome.metrics.sessions() != run.attempted) {
        problems.push_back(
            "report covers " +
            std::to_string(run.outcome.metrics.sessions()) + " of " +
            std::to_string(run.attempted) + " sessions");
    }
    for (const pes::CellSummary &c : cells) {
        const std::string cell = c.app + "/" + c.scheduler;
        if (c.sessions != w.users)
            problems.push_back(cell + ": " + std::to_string(c.sessions) +
                               " sessions, expected " +
                               std::to_string(w.users));
        const double parts = c.meanBusyEnergyMj + c.meanIdleEnergyMj +
            c.meanOverheadEnergyMj + c.meanWasteEnergyMj;
        if (!(std::fabs(parts - c.meanEnergyMj) <=
              kEnergyClosureTolerance * std::max(1.0, c.meanEnergyMj)))
            problems.push_back(cell + ": energy parts sum to " +
                               std::to_string(parts) + " mJ, total is " +
                               std::to_string(c.meanEnergyMj) + " mJ");
    }
    return problems;
}

std::unique_ptr<pes::SchedulerDriver>
makeDriver(SchedulerKind kind, const pes::LogisticModel *model)
{
    switch (kind) {
      case SchedulerKind::Interactive:
        return std::make_unique<pes::InteractiveGovernor>();
      case SchedulerKind::Ondemand:
        return std::make_unique<pes::OndemandGovernor>();
      case SchedulerKind::Ebs:
        return std::make_unique<pes::EbsScheduler>();
      case SchedulerKind::Pes:
        if (!model)
            throw std::invalid_argument("PES driver needs a model");
        return std::make_unique<pes::PesScheduler>(*model);
      case SchedulerKind::Oracle:
        return std::make_unique<pes::OracleScheduler>();
    }
    throw std::invalid_argument("unknown scheduler kind");
}

} // namespace perfbench
