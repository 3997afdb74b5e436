/**
 * @file
 * Tests for the simulator hot path: pooled engines and drivers reset
 * to as-constructed state (bit-identical to fresh ones, for every
 * scheduler), the stats-only path (bit-identical to reducing full
 * results), single-flight trace synthesis (duplicate_synthesis pinned
 * to 0), and engine reuse across run() calls (no state leaks between
 * sessions).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/ebs_scheduler.hh"
#include "core/experiment.hh"
#include "corpus/corpus_store.hh"
#include "corpus/trace_cache.hh"
#include "results/result_format.hh"
#include "runner/fleet_config.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "sim/runtime_simulator.hh"
#include "trace/generator.hh"
#include "util/rng.hh"

namespace pes {
namespace {

namespace fs = std::filesystem;

const AcmpPlatform &
exynos()
{
    static const AcmpPlatform platform = AcmpPlatform::exynos5410();
    return platform;
}

/**
 * PES included deliberately: it is the only scheduler that exercises
 * speculation (the spec-frame arena) and carries warm state across a
 * pooled driver's resetFresh().
 */
FleetConfig
hotpathFleet()
{
    FleetConfig config;
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.schedulers = {SchedulerKind::Interactive, SchedulerKind::Ebs,
                         SchedulerKind::Pes};
    config.users = 2;
    return config;
}

std::string
runToBytes(FleetConfig config)
{
    FleetRunner runner(std::move(config));
    const FleetOutcome outcome = runner.run();
    const FleetReport report =
        makeFleetReport(runner.config(), outcome.metrics);
    return JsonReporter::toString(report) + CsvReporter::toString(report);
}

// --------------------------------------- pooled engines, pooled drivers

TEST(HotPath, ResetFreshPooledDriverMatchesFreshEngineAndDriver)
{
    // What a fleet worker does across ranges: one engine and one driver
    // replay a session, the driver resets to as-constructed state, and
    // both replay the next session. That second session must reduce
    // bit-identically to the same trace on a new engine and driver.
    Experiment exp;
    const AppProfile &profile = appByName("social_feed");
    const WebApp &app = exp.generator().appFor(profile);
    const InteractionTrace first = exp.generator().generate(profile, 1);
    const InteractionTrace second = exp.generator().generate(profile, 2);
    SimConfig sim_config;
    sim_config.renderScale = profile.renderScale;
    const uint64_t second_noise = hashCombine(2, 0x5eed);

    for (const SchedulerKind kind :
         {SchedulerKind::Interactive, SchedulerKind::Ondemand,
          SchedulerKind::Ebs, SchedulerKind::Pes, SchedulerKind::Oracle}) {
        SCOPED_TRACE(schedulerKindName(kind));
        RuntimeSimulator pooled_engine(exp.platform(), exp.power(), app,
                                       sim_config);
        const auto pooled = exp.makeScheduler(kind);
        pooled_engine.setSpecNoiseSeed(hashCombine(1, 0x5eed));
        const SessionStats warmup = pooled_engine.runStats(first, *pooled);
        ASSERT_TRUE(pooled->resetFresh());
        pooled_engine.setSpecNoiseSeed(second_noise);
        const SessionStats reused = pooled_engine.runStats(second, *pooled);

        RuntimeSimulator fresh_engine(exp.platform(), exp.power(), app,
                                      sim_config);
        const auto fresh = exp.makeScheduler(kind);
        fresh_engine.setSpecNoiseSeed(second_noise);
        const SessionStats expected = fresh_engine.runStats(second, *fresh);

        EXPECT_TRUE(sessionStatsEqual(reused, expected));
        if (kind == SchedulerKind::Pes) {
            // Otherwise the speculation state resetFresh() must clear
            // was never exercised.
            EXPECT_GT(warmup.predictionsMade, 0);
            EXPECT_GT(expected.predictionsMade, 0);
        }
    }
}

TEST(HotPath, StatsOnlyFastPathMatchesCollectedResults)
{
    for (const int threads : {1, 8}) {
        FleetConfig stats_only = hotpathFleet();
        stats_only.threads = threads;
        ASSERT_FALSE(stats_only.collectResults);  // default: runStats

        FleetConfig collected = hotpathFleet();
        collected.threads = threads;
        collected.collectResults = true;

        EXPECT_EQ(runToBytes(stats_only), runToBytes(collected))
            << "threads=" << threads;
    }
}

TEST(HotPath, CorpusReplayByteIdenticalAcrossEngineModes)
{
    // Record the population once, then replay it on the stats-only path
    // and with full results: both reports must match byte for byte
    // (live synthesis vs corpus replay is covered by test_corpus; this
    // pins the engine's two entry points on the replay path).
    const fs::path dir =
        fs::temp_directory_path() / "pes_hotpath_corpus";
    fs::remove_all(dir);
    std::string error;
    auto store = CorpusStore::create(dir.string(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    {
        TraceGenerator generator(exynos());
        TraceProvenance provenance;
        provenance.device = exynos().name();
        const FleetConfig seeds = hotpathFleet();
        for (const AppProfile &profile : seeds.apps) {
            for (int u = 0; u < seeds.users; ++u) {
                ASSERT_TRUE(store->add(
                    generator.generate(profile, fleetUserSeed(seeds, u)),
                    provenance, &error))
                    << error;
            }
        }
        ASSERT_TRUE(store->save(&error)) << error;
    }

    FleetConfig replay = hotpathFleet();
    replay.threads = 4;
    replay.corpus = &*store;
    const std::string stats_bytes = runToBytes(replay);

    FleetConfig collected = replay;
    collected.collectResults = true;
    EXPECT_EQ(runToBytes(collected), stats_bytes);

    fs::remove_all(dir);
}

// ------------------------------------------- single-flight trace cache

TEST(HotPath, SingleFlightNeverDuplicatesSynthesis)
{
    // Hammer one key from many threads at once. The latch protocol
    // guarantees exactly one loader invocation: everyone else waits and
    // adopts, so duplicate_synthesis stays 0 BY CONSTRUCTION, not by
    // lucky timing (the sleep inside the loader widens the race window
    // that the pre-single-flight cache would lose).
    constexpr int kThreads = 16;
    TraceCache cache;
    std::atomic<int> loads{0};
    const auto loader = [&] {
        loads.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        InteractionTrace trace;
        trace.appName = "cnn";
        trace.userSeed = 7;
        return trace;
    };

    std::vector<TraceHandle> handles(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&, i] {
                handles[static_cast<size_t>(i)] =
                    cache.getOrLoad("exynos5410", "cnn", 7, loader);
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    EXPECT_EQ(loads.load(), 1);
    EXPECT_EQ(cache.duplicateSynthesis(), 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
    for (const TraceHandle &h : handles) {
        ASSERT_TRUE(h);
        EXPECT_EQ(h.get(), handles[0].get());  // one shared trace
    }
}

TEST(HotPath, SingleFlightLoaderFailurePropagatesToEveryWaiter)
{
    // A throwing loader must fail the winner AND every waiter parked on
    // the latch (nobody hangs), and must not poison the key: the next
    // getOrLoad retries the loader.
    constexpr int kThreads = 8;
    TraceCache cache;
    std::atomic<int> loads{0};
    std::atomic<int> failures{0};
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&] {
                try {
                    cache.getOrLoad("exynos5410", "cnn", 9, [&] {
                        loads.fetch_add(1);
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(10));
                        throw std::runtime_error("synthetic load failure");
                        return InteractionTrace{};
                    });
                } catch (const std::runtime_error &) {
                    failures.fetch_add(1);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    // Every thread fails (winners rethrow their own exception, waiters
    // the latched one); late arrivals may retry the erased key, so the
    // loader can run more than once — but never concurrently wasted.
    EXPECT_EQ(failures.load(), kThreads);
    EXPECT_GE(loads.load(), 1);
    EXPECT_EQ(cache.size(), 0u);

    const TraceHandle retried =
        cache.getOrLoad("exynos5410", "cnn", 9, [&] {
            InteractionTrace trace;
            trace.appName = "cnn";
            trace.userSeed = 9;
            return trace;
        });
    ASSERT_TRUE(retried);
    EXPECT_EQ(cache.size(), 1u);
}

// --------------------------------------------------- engine reusability

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        const EventRecord &x = a.events[i];
        const EventRecord &y = b.events[i];
        EXPECT_EQ(x.traceIndex, y.traceIndex) << "event " << i;
        EXPECT_EQ(x.type, y.type) << "event " << i;
        EXPECT_EQ(x.arrival, y.arrival) << "event " << i;
        EXPECT_EQ(x.frameReady, y.frameReady) << "event " << i;
        EXPECT_EQ(x.displayed, y.displayed) << "event " << i;
        EXPECT_EQ(x.qosTarget, y.qosTarget) << "event " << i;
        EXPECT_EQ(x.configIndex, y.configIndex) << "event " << i;
        EXPECT_EQ(x.busyEnergy, y.busyEnergy) << "event " << i;
        EXPECT_EQ(x.execMs, y.execMs) << "event " << i;
        EXPECT_EQ(x.servedSpeculatively, y.servedSpeculatively);
        EXPECT_EQ(x.squashedSpeculation, y.squashedSpeculation);
    }
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.busyEnergy, b.busyEnergy);
    EXPECT_EQ(a.idleEnergy, b.idleEnergy);
    EXPECT_EQ(a.overheadEnergy, b.overheadEnergy);
    EXPECT_EQ(a.wasteEnergy, b.wasteEnergy);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.endOfRunWasteMs, b.endOfRunWasteMs);
    EXPECT_EQ(a.endOfRunWasteMj, b.endOfRunWasteMj);
    EXPECT_EQ(a.avgQueueLength, b.avgQueueLength);
    EXPECT_EQ(a.fellBackToReactive, b.fellBackToReactive);
}

TEST(HotPath, EngineReusedAcrossRunsLeaksNoState)
{
    TraceGenerator generator(exynos());
    const WebApp &app = generator.appFor(appByName("cnn"));
    const PowerModel power(exynos());
    const InteractionTrace first = generator.generate(appByName("cnn"), 1);
    const InteractionTrace second =
        generator.generate(appByName("cnn"), 2);

    // One engine runs session 1 then session 2; a fresh engine runs
    // only session 2. If reset() left ANY session state behind (DOM
    // mutations, queue contents, meter segments, arena slices), the
    // reused engine's second result would diverge.
    RuntimeSimulator reused(exynos(), power, app);
    {
        EbsScheduler driver;
        (void)reused.run(first, driver);
    }
    EbsScheduler reused_driver;
    const SimResult from_reused = reused.run(second, reused_driver);

    RuntimeSimulator fresh(exynos(), power, app);
    EbsScheduler fresh_driver;
    const SimResult from_fresh = fresh.run(second, fresh_driver);

    expectSameResult(from_reused, from_fresh);
}

TEST(HotPath, RunStatsIsBitIdenticalToReducingTheFullResult)
{
    TraceGenerator generator(exynos());
    const WebApp &app = generator.appFor(appByName("social_feed"));
    const PowerModel power(exynos());
    const InteractionTrace trace =
        generator.generate(appByName("social_feed"), 11);

    RuntimeSimulator sim(exynos(), power, app);
    EbsScheduler full_driver;
    const SessionStats full =
        SessionStats::reduce(sim.run(trace, full_driver));

    // Same reused engine, stats-only path: the reduction must match
    // bit for bit, sketch included (the report contract).
    EbsScheduler stats_driver;
    EXPECT_TRUE(sessionStatsEqual(sim.runStats(trace, stats_driver), full));
}

} // namespace
} // namespace pes
