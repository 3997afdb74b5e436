/**
 * @file
 * Unit tests for the fleet-runner subsystem: job enumeration, the
 * thread pool, aggregator merge correctness, reporter round-trips, and
 * end-to-end determinism across thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/device_context.hh"
#include "runner/fleet_config.hh"
#include "runner/fleet_runner.hh"
#include "runner/metrics_aggregator.hh"
#include "runner/reporters.hh"
#include "runner/thread_pool.hh"
#include "util/logging.hh"

namespace pes {
namespace {

FleetConfig
smallFleet()
{
    FleetConfig config;
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.schedulers = {SchedulerKind::Interactive, SchedulerKind::Ebs};
    config.users = 3;
    return config;
}

// ------------------------------------------------------ job enumeration

TEST(FleetConfig, EnumeratesFullCrossProduct)
{
    FleetConfig config = smallFleet();
    config.devices = {AcmpPlatform::exynos5410(),
                      AcmpPlatform::tegraParker()};
    const auto jobs = enumerateJobs(config);
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u * 3u);
    ASSERT_EQ(config.jobCount(), static_cast<int>(jobs.size()));

    // Canonical order: index dense and ascending; users innermost so
    // each (device, app, scheduler) cell is contiguous.
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, static_cast<int>(i));
    for (size_t i = 1; i < jobs.size(); ++i) {
        if (jobs[i].userIndex != 0) {
            EXPECT_EQ(jobs[i].deviceIndex, jobs[i - 1].deviceIndex);
            EXPECT_EQ(jobs[i].appIndex, jobs[i - 1].appIndex);
            EXPECT_EQ(jobs[i].schedulerIndex,
                      jobs[i - 1].schedulerIndex);
        }
    }
}

TEST(FleetConfig, SeedsAreDeterministicAndPerUser)
{
    FleetConfig config = smallFleet();
    const auto a = enumerateJobs(config);
    const auto b = enumerateJobs(config);
    ASSERT_EQ(a.size(), b.size());
    std::set<uint64_t> seeds;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].userSeed, b[i].userSeed);
        // Same user => same seed across cells (schedulers compared on
        // identical traffic), different users => different seeds.
        EXPECT_EQ(a[i].userSeed, fleetUserSeed(config, a[i].userIndex));
        seeds.insert(a[i].userSeed);
    }
    EXPECT_EQ(seeds.size(), 3u);
}

TEST(FleetConfig, EvaluationModeUsesPaperPopulation)
{
    FleetConfig config = smallFleet();
    config.seedMode = SeedMode::Evaluation;
    EXPECT_EQ(fleetUserSeed(config, 0),
              TraceGenerator::kEvaluationSeedBase);
    EXPECT_EQ(fleetUserSeed(config, 2),
              TraceGenerator::kEvaluationSeedBase + 2);
}

TEST(FleetConfig, ParsersAcceptNamesAndGroups)
{
    const auto kinds = parseSchedulerList("pes, EBS,oracle");
    ASSERT_EQ(kinds.size(), 3u);
    EXPECT_EQ(kinds[0], SchedulerKind::Pes);
    EXPECT_EQ(kinds[1], SchedulerKind::Ebs);
    EXPECT_EQ(kinds[2], SchedulerKind::Oracle);

    EXPECT_EQ(parseAppList("seen").size(), 12u);
    EXPECT_EQ(parseAppList("unseen").size(), 6u);
    EXPECT_EQ(parseAppList("all").size(), 18u);
    const auto extra = parseAppList("extra");
    ASSERT_GE(extra.size(), 1u);
    EXPECT_EQ(extra[0].name, "social_feed");
    EXPECT_EQ(parseAppList("cnn,social_feed").size(), 2u);

    EXPECT_EQ(parseDeviceList("exynos5410,tegra-parker").size(), 2u);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    std::atomic<int> counter{0};
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    {
        ThreadPool pool(4);
        for (size_t i = 0; i < hits.size(); ++i) {
            pool.submit([&, i](int worker) {
                ASSERT_GE(worker, 0);
                ASSERT_LT(worker, 4);
                hits[i]+= 1;
                counter += 1;
            });
        }
        pool.wait();
        EXPECT_EQ(counter.load(), 257);
    }
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, CapturesWorkerExceptionsInsteadOfTerminating)
{
    std::atomic<int> completed{0};
    ThreadPool pool(3);
    for (int i = 0; i < 20; ++i) {
        pool.submit([&, i](int) {
            if (i % 5 == 0)
                throw std::runtime_error("task " + std::to_string(i) +
                                         " failed");
            completed += 1;
        });
    }
    pool.wait();
    // Throwing tasks become diagnostics; the rest still ran.
    EXPECT_EQ(completed.load(), 16);
    const std::vector<std::string> errors = pool.errors();
    ASSERT_EQ(errors.size(), 4u);
    for (const std::string &e : errors) {
        EXPECT_NE(e.find("worker"), std::string::npos) << e;
        EXPECT_NE(e.find("failed"), std::string::npos) << e;
    }
    // The pool survives and keeps serving tasks after failures.
    pool.submit([&](int) { completed += 1; });
    pool.wait();
    EXPECT_EQ(completed.load(), 17);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&](int) { counter += 1; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&](int) { counter += 1; });
    pool.submit([&](int) { counter += 1; });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, StatsCountEveryTaskAndBusyTimeWhenInstrumented)
{
    // The runner's pool.tasks/pool.busy_us series come from here.
    ThreadPool bare(3);
    ThreadPool instrumented(3, true);
    for (ThreadPool *pool : {&bare, &instrumented}) {
        for (int i = 0; i < 40; ++i) {
            pool->submit([](int) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            });
        }
        pool->wait();
        const ThreadPoolStats stats = pool->stats();
        EXPECT_EQ(stats.tasks, 40u);
        EXPECT_GE(stats.maxQueueDepth, 1u);
    }
    EXPECT_DOUBLE_EQ(bare.stats().busyMs, 0.0);
    EXPECT_DOUBLE_EQ(bare.stats().idleMs, 0.0);
    EXPECT_GT(instrumented.stats().busyMs, 0.0);
}

// ----------------------------------------------------------- aggregator

SessionStats
fakeSession(int events, int violations, double energy, double latency)
{
    SessionStats s;
    s.events = events;
    s.violations = violations;
    s.totalEnergyMj = energy;
    s.meanLatencyMs = latency;
    s.p95LatencyMs = latency * 2.0;
    s.durationMs = 1000.0;
    return s;
}

TEST(MetricsAggregator, AggregatesKnownInputs)
{
    MetricsAggregator agg;
    agg.add("dev", "app", "S", fakeSession(10, 1, 100.0, 50.0));
    agg.add("dev", "app", "S", fakeSession(30, 5, 300.0, 150.0));

    const CellSummary c = agg.cell("dev", "app", "S");
    EXPECT_EQ(c.sessions, 2);
    EXPECT_EQ(c.events, 40);
    EXPECT_EQ(c.violations, 6);
    EXPECT_DOUBLE_EQ(c.violationRate, 6.0 / 40.0);
    EXPECT_DOUBLE_EQ(c.meanEnergyMj, 200.0);
    EXPECT_DOUBLE_EQ(c.minEnergyMj, 100.0);
    EXPECT_DOUBLE_EQ(c.maxEnergyMj, 300.0);
    // Event-weighted: (50*10 + 150*30) / 40.
    EXPECT_DOUBLE_EQ(c.meanLatencyMs, 125.0);
    EXPECT_EQ(agg.sessions(), 2);
    EXPECT_EQ(agg.events(), 40);

    // Unknown cell reads as empty.
    EXPECT_EQ(agg.cell("dev", "nope", "S").sessions, 0);
}

TEST(MetricsAggregator, ReducesSimResultFaithfully)
{
    SimResult r;
    r.appName = "a";
    r.schedulerName = "S";
    r.totalEnergy = 1234.0;
    r.duration = 5000.0;
    for (int i = 0; i < 4; ++i) {
        EventRecord e;
        e.arrival = 100.0 * i;
        e.displayed = e.arrival + 50.0 * (i + 1);  // 50/100/150/200 ms.
        e.qosTarget = 120.0;
        r.events.push_back(e);
    }
    const SessionStats s = SessionStats::reduce(r);
    EXPECT_EQ(s.events, 4);
    EXPECT_EQ(s.violations, 2);  // 150 and 200 exceed 120.
    EXPECT_DOUBLE_EQ(s.meanLatencyMs, 125.0);
    EXPECT_DOUBLE_EQ(s.maxLatencyMs, 200.0);
    EXPECT_DOUBLE_EQ(s.totalEnergyMj, 1234.0);
}

// ------------------------------------------------------------ reporters

FleetReport
sampleReport()
{
    MetricsAggregator agg;
    agg.add("Exynos 5410", "cnn", "PES", fakeSession(10, 1, 100.5, 50.25));
    agg.add("Exynos 5410", "cnn", "PES", fakeSession(20, 2, 200.5, 80.5));
    agg.add("Exynos 5410", "social_feed", "EBS",
            fakeSession(30, 3, 300.125, 90.75));

    FleetConfig config;
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.schedulers = {SchedulerKind::Pes, SchedulerKind::Ebs};
    config.users = 10;
    config.baseSeed = 0x123456789abcdef0ull;
    return makeFleetReport(config, agg);
}

TEST(Reporters, JsonRoundTrip)
{
    const FleetReport report = sampleReport();
    const std::string text = JsonReporter::toString(report);

    const auto parsed = JsonReporter::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->baseSeed, report.baseSeed);
    EXPECT_EQ(parsed->seedMode, report.seedMode);
    EXPECT_EQ(parsed->users, report.users);
    EXPECT_EQ(parsed->sessions, report.sessions);
    EXPECT_EQ(parsed->events, report.events);
    EXPECT_EQ(parsed->devices, report.devices);
    EXPECT_EQ(parsed->apps, report.apps);
    EXPECT_EQ(parsed->schedulers, report.schedulers);
    ASSERT_EQ(parsed->cells.size(), report.cells.size());
    for (size_t i = 0; i < report.cells.size(); ++i) {
        EXPECT_EQ(parsed->cells[i].app, report.cells[i].app);
        EXPECT_EQ(parsed->cells[i].scheduler, report.cells[i].scheduler);
        EXPECT_EQ(parsed->cells[i].sessions, report.cells[i].sessions);
        EXPECT_NEAR(parsed->cells[i].meanEnergyMj,
                    report.cells[i].meanEnergyMj, 1e-6);
        EXPECT_NEAR(parsed->cells[i].violationRate,
                    report.cells[i].violationRate, 1e-9);
    }

    // Serialize -> parse -> serialize is a fixed point (stable bytes).
    EXPECT_EQ(JsonReporter::toString(*parsed), text);

    EXPECT_FALSE(JsonReporter::parse("not json").has_value());
    EXPECT_FALSE(JsonReporter::parse("{\"cells\": 3}").has_value());
}

TEST(Reporters, CsvRoundTrip)
{
    const FleetReport report = sampleReport();
    const std::string text = CsvReporter::toString(report);

    const auto cells = CsvReporter::parse(text);
    ASSERT_TRUE(cells.has_value());
    ASSERT_EQ(cells->size(), report.cells.size());
    for (size_t i = 0; i < report.cells.size(); ++i) {
        EXPECT_EQ((*cells)[i].device, report.cells[i].device);
        EXPECT_EQ((*cells)[i].app, report.cells[i].app);
        EXPECT_EQ((*cells)[i].scheduler, report.cells[i].scheduler);
        EXPECT_EQ((*cells)[i].events, report.cells[i].events);
        EXPECT_NEAR((*cells)[i].meanEnergyMj,
                    report.cells[i].meanEnergyMj, 1e-6);
    }
    EXPECT_FALSE(CsvReporter::parse("bogus,rows\n1,2\n").has_value());
}

// -------------------------------------------------- end-to-end fleets

TEST(FleetRunner, DeterministicAcrossThreadCounts)
{
    FleetConfig config = smallFleet();
    config.threads = 1;
    FleetRunner serial(config);
    config.threads = 8;
    FleetRunner parallel(config);

    const FleetOutcome a = serial.run();
    const FleetOutcome b = parallel.run();
    ASSERT_EQ(a.jobCount, b.jobCount);
    EXPECT_EQ(a.jobCount, 12);

    // Byte-identical reports regardless of worker count.
    const std::string ja =
        JsonReporter::toString(makeFleetReport(serial.config(), a.metrics));
    const std::string jb = JsonReporter::toString(
        makeFleetReport(parallel.config(), b.metrics));
    EXPECT_EQ(ja, jb);
    EXPECT_EQ(
        CsvReporter::toString(makeFleetReport(serial.config(), a.metrics)),
        CsvReporter::toString(
            makeFleetReport(parallel.config(), b.metrics)));
}

TEST(FleetRunner, CollectedResultsFollowJobOrder)
{
    FleetConfig config = smallFleet();
    config.users = 2;
    config.threads = 4;
    config.collectResults = true;
    FleetRunner runner(config);
    const FleetOutcome outcome = runner.run();

    const auto &jobs = runner.jobs();
    const auto &results = outcome.results.results();
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].appName,
                  config.apps[static_cast<size_t>(jobs[i].appIndex)].name);
        EXPECT_EQ(results[i].schedulerName,
                  schedulerKindName(config.schedulers[static_cast<size_t>(
                      jobs[i].schedulerIndex)]));
        EXPECT_GT(results[i].events.size(), 0u);
    }
    EXPECT_EQ(outcome.metrics.sessions(), static_cast<int>(jobs.size()));
}

TEST(FleetRunner, WarmEvaluationMatchesSerialReplay)
{
    // The evaluation fleet must reproduce the serial protocol exactly:
    // per (app, scheduler) cell, one warmed driver replays the Sec.-6.1
    // evaluation users in order. Every scheduler, the paper's included.
    setQuiet(true);
    const std::vector<AppProfile> profiles = parseAppList("bbc,ebay");
    const std::vector<SchedulerKind> kinds =
        parseSchedulerList("interactive,ondemand,ebs,pes,oracle");

    DeviceContext device;
    device.model();
    ResultSet serial;
    for (const AppProfile &profile : profiles) {
        const auto traces = device.generator().evaluationSet(
            profile, TraceGenerator::kEvalTracesPerApp);
        for (const SchedulerKind kind : kinds) {
            const auto driver = device.makeDriver(kind);
            for (const InteractionTrace &trace : traces)
                serial.add(device.replay(profile, trace, *driver));
        }
    }

    FleetConfig config = evaluationFleet(device, profiles, kinds);
    config.threads = 3;
    const ResultSet fleet = FleetRunner(std::move(config)).run().results;

    ASSERT_EQ(fleet.results().size(), serial.results().size());
    for (size_t i = 0; i < serial.results().size(); ++i) {
        const SimResult &s = serial.results()[i];
        const SimResult &f = fleet.results()[i];
        SCOPED_TRACE(s.appName + "/" + s.schedulerName + " session " +
                     std::to_string(i));
        EXPECT_EQ(f.appName, s.appName);
        EXPECT_EQ(f.schedulerName, s.schedulerName);
        EXPECT_EQ(f.totalEnergy, s.totalEnergy);
        EXPECT_EQ(f.duration, s.duration);
        EXPECT_EQ(f.predictionsMade, s.predictionsMade);
        ASSERT_EQ(f.events.size(), s.events.size());
        for (size_t e = 0; e < s.events.size(); ++e)
            EXPECT_EQ(f.events[e].displayed, s.events[e].displayed);
    }
}

} // namespace
} // namespace pes
