#include "core/experiment.hh"

#include <algorithm>
#include <thread>

#include "core/ebs_scheduler.hh"
#include "core/governors.hh"
#include "core/oracle_scheduler.hh"
#include "core/predictor_training.hh"
#include "util/logging.hh"

namespace pes {

Experiment::Experiment(AcmpPlatform platform)
    : platform_(std::move(platform)), power_(platform_),
      generator_(platform_)
{
}

const LogisticModel &
Experiment::trainedModel()
{
    if (!model_) {
        model_ = trainEventModel(generator_, seenApps(),
                                 kTrainingTracesPerApp);
    }
    return *model_;
}

std::unique_ptr<SchedulerDriver>
Experiment::makeScheduler(SchedulerKind kind,
                          std::optional<PesScheduler::Config> pes_config)
{
    switch (kind) {
      case SchedulerKind::Interactive:
        return std::make_unique<InteractiveGovernor>();
      case SchedulerKind::Ondemand:
        return std::make_unique<OndemandGovernor>();
      case SchedulerKind::Ebs:
        return std::make_unique<EbsScheduler>();
      case SchedulerKind::Pes:
        return std::make_unique<PesScheduler>(
            trainedModel(),
            pes_config.value_or(PesScheduler::Config{}));
      case SchedulerKind::Oracle:
        return std::make_unique<OracleScheduler>();
    }
    panic("makeScheduler: invalid kind");
}

SimResult
Experiment::runTrace(const AppProfile &profile,
                     const InteractionTrace &trace,
                     SchedulerDriver &driver)
{
    const WebApp &app = generator_.appFor(profile);
    SimConfig config;
    config.renderScale = profile.renderScale;
    RuntimeSimulator simulator(platform_, power_, app, config);
    return simulator.run(trace, driver);
}

int
Experiment::defaultSweepThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

void
Experiment::setSweepThreads(int threads)
{
    sweepThreads_ = std::max(1, threads);
}

FleetOutcome
Experiment::runFleetSweep(const std::vector<AppProfile> &profiles,
                          const std::vector<SchedulerKind> &kinds,
                          bool collect_results)
{
    FleetConfig config;
    config.devices = {platform_};
    config.apps = profiles;
    config.schedulers = kinds;
    config.users = kEvalTracesPerApp;
    config.seedMode = SeedMode::Evaluation;
    config.warmDrivers = true;
    config.collectResults = collect_results;
    config.threads = sweepThreads_;
    config.trainingTracesPerApp = kTrainingTracesPerApp;
    for (const SchedulerKind kind : kinds) {
        if (kind == SchedulerKind::Pes) {
            config.pretrainedModel = &trainedModel();
            config.pretrainedModelDevice = platform_.name();
            break;
        }
    }
    FleetOutcome outcome = FleetRunner(std::move(config)).run();
    // The pool downgrades worker exceptions to diagnostics so batch
    // tools can report partial sweeps; the experiment harness (and the
    // paper-figure benches on top of it) has no partial mode — numbers
    // from an incomplete sweep must never look like results.
    panic_if(!outcome.diagnostics.empty(), "fleet sweep failed: %s",
             outcome.diagnostics.front().c_str());
    return outcome;
}

void
Experiment::runAppUnder(const AppProfile &profile, SchedulerDriver &driver,
                        ResultSet &out)
{
    for (const InteractionTrace &trace :
         generator_.evaluationSet(profile, kEvalTracesPerApp)) {
        out.add(runTrace(profile, trace, driver));
    }
}

} // namespace pes
