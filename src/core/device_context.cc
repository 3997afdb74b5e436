#include "core/device_context.hh"

#include "core/ebs_scheduler.hh"
#include "core/governors.hh"
#include "core/oracle_scheduler.hh"
#include "core/pes_scheduler.hh"
#include "core/predictor_training.hh"
#include "util/logging.hh"

namespace pes {

DeviceContext::DeviceContext(AcmpPlatform platform,
                             int training_traces_per_app,
                             const LogisticModel *borrowed_model)
    : platform_(std::move(platform)), power_(platform_),
      generator_(platform_), trainingTracesPerApp_(training_traces_per_app),
      model_(borrowed_model)
{
}

const LogisticModel &
DeviceContext::model()
{
    if (!model_) {
        ownedModel_ = trainEventModel(generator_, seenApps(),
                                      trainingTracesPerApp_);
        model_ = &*ownedModel_;
    }
    return *model_;
}

std::unique_ptr<SchedulerDriver>
DeviceContext::makeDriver(SchedulerKind kind) const
{
    switch (kind) {
      case SchedulerKind::Interactive:
        return std::make_unique<InteractiveGovernor>();
      case SchedulerKind::Ondemand:
        return std::make_unique<OndemandGovernor>();
      case SchedulerKind::Ebs:
        return std::make_unique<EbsScheduler>();
      case SchedulerKind::Pes:
        panic_if(!model_, "makeDriver: PES needs the event model first");
        return std::make_unique<PesScheduler>(*model_);
      case SchedulerKind::Oracle:
        return std::make_unique<OracleScheduler>();
    }
    panic("makeDriver: invalid kind");
}

std::unique_ptr<RuntimeSimulator>
DeviceContext::makeEngine(const AppProfile &profile,
                          TraceGenerator &generator) const
{
    SimConfig config;
    config.renderScale = profile.renderScale;
    return std::make_unique<RuntimeSimulator>(
        platform_, power_, generator.appFor(profile), config);
}

SimResult
DeviceContext::replay(const AppProfile &profile,
                      const InteractionTrace &trace, SchedulerDriver &driver)
{
    return makeEngine(profile, generator_)->run(trace, driver);
}

} // namespace pes
