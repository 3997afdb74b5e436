#include "runner/fleet_config.hh"

#include <algorithm>
#include <climits>
#include <thread>

#include "core/device_context.hh"
#include "population/population_spec.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace pes {

int
FleetConfig::effectiveUsers() const
{
    return userSeeds.empty() ? users : static_cast<int>(userSeeds.size());
}

int
FleetConfig::cellCount() const
{
    const size_t devs = devices.empty() ? 1 : devices.size();
    return static_cast<int>(devs * apps.size() * schedulers.size());
}

int
FleetConfig::jobCount() const
{
    const long long total =
        static_cast<long long>(cellCount()) * effectiveUsers();
    fatal_if(total > INT_MAX, "fleet: %lld sessions exceed the job limit",
             total);
    return static_cast<int>(total);
}

uint64_t
fleetUserSeed(const FleetConfig &config, int user_index)
{
    if (!config.userSeeds.empty()) {
        panic_if(user_index < 0 ||
                 user_index >= static_cast<int>(config.userSeeds.size()),
                 "fleetUserSeed: user %d outside the explicit seed list",
                 user_index);
        return config.userSeeds[static_cast<size_t>(user_index)];
    }
    const uint64_t idx = static_cast<uint64_t>(user_index);
    switch (config.seedMode) {
      case SeedMode::Fleet:
        // Population sweeps fold the population digest into every user
        // seed so two populations never share a user, and so reduction
        // can re-verify record seeds from the manifest tag alone.
        if (config.populationDigest != 0) {
            return populationUserSeed(config.populationDigest,
                                      config.baseSeed, idx);
        }
        return hashCombine(config.baseSeed, idx);
      case SeedMode::Evaluation:
        return TraceGenerator::kEvaluationSeedBase + idx;
    }
    panic("fleetUserSeed: invalid seed mode");
}

std::vector<JobSpec>
enumerateJobs(const FleetConfig &config)
{
    fatal_if(config.apps.empty(), "fleet: no application profiles");
    fatal_if(config.schedulers.empty(), "fleet: no schedulers");
    const int users = config.effectiveUsers();
    fatal_if(users < 1, "fleet: users must be >= 1");

    const int devs =
        config.devices.empty() ? 1 : static_cast<int>(config.devices.size());
    std::vector<JobSpec> jobs;
    jobs.reserve(static_cast<size_t>(config.jobCount()));
    int index = 0;
    for (int d = 0; d < devs; ++d) {
        for (size_t a = 0; a < config.apps.size(); ++a) {
            for (size_t s = 0; s < config.schedulers.size(); ++s) {
                for (int u = 0; u < users; ++u) {
                    JobSpec job;
                    job.index = index++;
                    job.deviceIndex = d;
                    job.appIndex = static_cast<int>(a);
                    job.schedulerIndex = static_cast<int>(s);
                    job.userIndex = u;
                    job.userSeed = fleetUserSeed(config, u);
                    jobs.push_back(job);
                }
            }
        }
    }
    return jobs;
}

FleetConfig
evaluationFleet(DeviceContext &device, std::vector<AppProfile> apps,
                std::vector<SchedulerKind> schedulers)
{
    FleetConfig config;
    config.devices = {device.platform()};
    config.apps = std::move(apps);
    config.schedulers = std::move(schedulers);
    config.users = TraceGenerator::kEvalTracesPerApp;
    config.seedMode = SeedMode::Evaluation;
    config.warmDrivers = true;
    config.collectResults = true;
    config.threads = defaultSweepThreads();
    for (const SchedulerKind kind : config.schedulers) {
        if (kind == SchedulerKind::Pes) {
            config.pretrainedModel = &device.model();
            config.pretrainedModelDevice = device.platform().name();
            break;
        }
    }
    return config;
}

std::vector<SchedulerKind>
parseSchedulerList(const std::string &spec)
{
    std::vector<SchedulerKind> kinds;
    for (const std::string &raw : split(spec, ',')) {
        const std::string name = trim(raw);
        if (name.empty())
            continue;
        const auto kind = schedulerKindFromName(name);
        fatal_if(!kind, "unknown scheduler '%s' (expected one of "
                 "interactive, ondemand, ebs, pes, oracle)", name.c_str());
        kinds.push_back(*kind);
    }
    fatal_if(kinds.empty(), "empty scheduler list '%s'", spec.c_str());
    return kinds;
}

std::vector<AppProfile>
parseAppList(const std::string &spec)
{
    std::vector<AppProfile> apps;
    for (const std::string &raw : split(spec, ',')) {
        const std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        if (name == "seen") {
            for (const AppProfile &p : seenApps())
                apps.push_back(p);
        } else if (name == "unseen") {
            for (const AppProfile &p : unseenApps())
                apps.push_back(p);
        } else if (name == "all") {
            for (const AppProfile &p : appRegistry())
                apps.push_back(p);
        } else if (name == "extra") {
            for (const AppProfile &p : extraApps())
                apps.push_back(p);
        } else {
            apps.push_back(appByName(name));
        }
    }
    fatal_if(apps.empty(), "empty application list '%s'", spec.c_str());
    return apps;
}

const std::vector<DeviceInfo> &
deviceRegistry()
{
    static const std::vector<DeviceInfo> registry{
        {AcmpPlatform::exynos5410(), "exynos5410", {"exynos"}},
        {AcmpPlatform::tegraParker(), "tegra-parker", {"parker", "tx2"}},
    };
    return registry;
}

std::optional<AcmpPlatform>
deviceByPlatformName(const std::string &name)
{
    for (const DeviceInfo &info : deviceRegistry()) {
        if (info.platform.name() == name)
            return info.platform;
    }
    return std::nullopt;
}

std::vector<AcmpPlatform>
parseDeviceList(const std::string &spec)
{
    const auto lookup = [](const std::string &name) -> const DeviceInfo * {
        for (const DeviceInfo &info : deviceRegistry()) {
            if (name == info.cliName)
                return &info;
            for (const std::string &alias : info.aliases) {
                if (name == alias)
                    return &info;
            }
        }
        return nullptr;
    };
    std::vector<AcmpPlatform> devices;
    for (const std::string &raw : split(spec, ',')) {
        const std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        const DeviceInfo *info = lookup(name);
        if (!info) {
            std::string known;
            for (const DeviceInfo &d : deviceRegistry())
                known += (known.empty() ? "" : ", ") + d.cliName;
            fatal("unknown device '%s' (expected one of %s)",
                  name.c_str(), known.c_str());
        }
        devices.push_back(info->platform);
    }
    fatal_if(devices.empty(), "empty device list '%s'", spec.c_str());
    return devices;
}

Flags
sweepFlags(FleetConfig &config, const std::vector<std::string> &names)
{
    const std::string schedulers = "pes,ebs";
    const std::string apps = "cnn,amazon,social_feed";
    config.schedulers = parseSchedulerList(schedulers);
    config.apps = parseAppList(apps);
    config.users = 100;
    config.threads = defaultSweepThreads();
    // The list parsers fatal() on unknown names themselves.
    const auto axis = [](auto &field, auto parse) {
        return [&field, parse](const std::string &value) {
            field = parse(value);
            return true;
        };
    };
    Flags all = {
        customFlag("schedulers", "LIST",
                   axis(config.schedulers, parseSchedulerList),
                   "interactive, ondemand, ebs, pes, oracle [" +
                       schedulers + "]"),
        customFlag("apps", "LIST", axis(config.apps, parseAppList),
                   "app names or seen/unseen/all/extra\n[" + apps + "]"),
        customFlag("devices", "LIST", axis(config.devices, parseDeviceList),
                   "exynos5410, tegra-parker [exynos5410]"),
        intFlag("users", "N", config.users, 1, 100000000,
                "users per cell [" + std::to_string(config.users) + "]"),
        intFlag("threads", "N", config.threads, 1, 4096,
                "worker threads [hardware threads]"),
        seedFlag("seed", "S", config.baseSeed, "population seed [0xf1ee7]"),
        customFlag("eval-population", "",
                   [&config](const std::string &) {
                       config.seedMode = SeedMode::Evaluation;
                       return true;
                   },
                   "the paper's Sec.-6.1 evaluation users"),
        switchFlag("warm", config.warmDrivers,
                   "one warmed driver per cell, sessions in order"),
        partFlag("shard", config.shardIndex, config.shardCount, 1000000,
                 "run shard K of N; `pes_fleet merge` joins them"),
        intFlag("checkpoint-every", "N", config.checkpointEvery, 0,
                100000000,
                "sessions per store checkpoint [" +
                    std::to_string(config.checkpointEvery) + "]"),
        intFlag("trace-cache-cap", "N", config.traceCacheCap, 0, LLONG_MAX,
                "LRU trace-cache bound (0 = unbounded)"),
    };
    if (names.empty())
        return all;
    Flags picked;
    for (const std::string &name : names) {
        const auto it = std::find_if(
            all.begin(), all.end(),
            [&name](const Flag &flag) { return flag.name == name; });
        panic_if(it == all.end(), "sweepFlags: no sweep flag '%s'",
                 name.c_str());
        picked.push_back(*it);
    }
    return picked;
}

int
defaultSweepThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

int
applyPopulation(const std::string &ref,
                std::optional<PopulationSpec> &holder, FleetConfig &config)
{
    if (ref.empty())
        return 0;
    fatal_if(config.seedMode == SeedMode::Evaluation,
             "--population cannot be combined with --eval-population "
             "(the evaluation seeds are a fixed cohort)");
    std::vector<IntegrityProblem> problems;
    holder = resolvePopulation(ref, problems);
    if (!holder)
        return failProblems(problems);
    config.population = &*holder;
    config.populationTag = populationTag(*holder);
    config.populationDigest = populationDigest(*holder);
    return 0;
}

} // namespace pes
