/**
 * @file
 * Tests for the telemetry subsystem: the no-feedback contract (reports
 * byte-identical with telemetry on or off, any thread count), trace
 * JSON well-formedness against our own parser, the committed
 * logical-clock trace golden, RunTelemetry serialization round-trips,
 * and canonical-order counter merging.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "results/result_store.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_sink.hh"
#include "util/json.hh"

namespace pes {
namespace {

/** Whole file as a string ("" when unreadable). */
std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The golden mini sweep (tools/regen_golden.sh; keep in sync). */
FleetConfig
miniConfig(int threads)
{
    FleetConfig config;
    config.schedulers = {SchedulerKind::Ebs, SchedulerKind::Interactive};
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.users = 3;
    config.threads = threads;
    config.baseSeed = 0xf1ee7;
    return config;
}

/** Run @p config and serialize its report (JSON + CSV concatenated). */
std::string
reportBytes(FleetConfig config)
{
    FleetRunner runner(std::move(config));
    const FleetOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.diagnostics.empty());
    const FleetReport report =
        makeFleetReport(runner.config(), outcome.metrics);
    return JsonReporter::toString(report) + CsvReporter::toString(report);
}

// ------------------------------------------------ no-feedback contract

TEST(TelemetryDeterminism, ReportsByteIdenticalOnVsOffAnyThreads)
{
    const std::string plain_t1 = reportBytes(miniConfig(1));

    for (const int threads : {1, 8}) {
        TelemetryRegistry telemetry;
        TraceEventSink sink(TraceEventSink::Clock::Wall);
        FleetConfig armed = miniConfig(threads);
        armed.telemetry = &telemetry;
        armed.traceSink = &sink;
        EXPECT_EQ(reportBytes(std::move(armed)), plain_t1)
            << "telemetry changed report bytes at threads=" << threads;
        EXPECT_GT(sink.eventCount(), 0u);
    }
}

TEST(TelemetryDeterminism, DisabledRegistryRecordsNothing)
{
    TelemetryRegistry telemetry;
    telemetry.setEnabled(false);
    FleetConfig config = miniConfig(2);
    config.telemetry = &telemetry;
    FleetRunner runner(std::move(config));
    runner.run();
    const TelemetrySnapshot snap = telemetry.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.durations.empty());
}

// -------------------------------------------------------- trace sink

TEST(TraceSink, EmittedJsonParsesWithOwnParser)
{
    TelemetryRegistry telemetry;
    TraceEventSink sink(TraceEventSink::Clock::Wall);
    FleetConfig config = miniConfig(2);
    config.telemetry = &telemetry;
    config.traceSink = &sink;
    FleetRunner runner(std::move(config));
    runner.run();

    std::ostringstream os;
    sink.write(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << "trace JSON is malformed";
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    // Metadata names every lane; every span carries the Chrome
    // trace-event required keys; stage spans sit on lane 0.
    int metadata = 0, stages = 0, jobs = 0;
    for (const JsonValue &e : events->arr) {
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        if (ph->str == "M") {
            ++metadata;
            continue;
        }
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("name"), nullptr);
        if (ph->str == "X" && e.find("cat")->str == "stage") {
            ++stages;
            EXPECT_EQ(e.find("tid")->number64(), 0u);
        }
        if (ph->str == "X" && e.find("cat")->str == "job")
            ++jobs;
    }
    EXPECT_EQ(metadata, 2 + 2);  // runner + store + 2 worker lanes
    EXPECT_EQ(stages, 5);        // plan, setup, execute, persist, reduce
    EXPECT_EQ(jobs, 12);         // one span per session
}

TEST(TraceSink, LogicalClockMatchesCommittedGolden)
{
    TraceEventSink sink(TraceEventSink::Clock::Logical);
    // threads=1: a single worker drains the queue in canonical order,
    // so every logical tick is fully determined (the golden contract).
    FleetConfig config = miniConfig(1);
    config.traceSink = &sink;
    FleetRunner runner(std::move(config));
    runner.run();

    std::ostringstream os;
    sink.write(os);
    const std::string golden = readFile(
        PES_SOURCE_DIR "/tests/data/golden/mini_sweep.trace.json");
    ASSERT_FALSE(golden.empty())
        << "missing committed trace golden; run tools/regen_golden.sh";
    EXPECT_EQ(os.str(), golden)
        << "logical-clock trace changed; if intentional, regenerate "
           "via `cmake --build build --target regen-golden` and commit";
}

TEST(TraceSink, InstantEventsRecordCacheEvictions)
{
    TraceEventSink sink(TraceEventSink::Clock::Logical);
    FleetConfig config = miniConfig(1);
    config.traceSink = &sink;
    config.traceCacheCap = 2;  // 4 distinct traces -> must evict
    FleetRunner runner(std::move(config));
    runner.run();

    std::ostringstream os;
    sink.write(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    int evictions = 0;
    for (const JsonValue &e : doc->find("traceEvents")->arr) {
        if (e.find("ph")->str == "i" &&
            e.find("name")->str == "cache evict")
            ++evictions;
    }
    EXPECT_GT(evictions, 0);
}

// ------------------------------------------------------ RunTelemetry

/** Unique temporary directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(std::filesystem::temp_directory_path() /
               ("pes_telemetry_test_" + name))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::filesystem::path path;
};

/**
 * The mini sweep persisted to a fresh result store in @p dir, with
 * telemetry armed and optionally on the logical clock: a run that
 * records every series kind. Returns its serialized summary.
 */
std::string
storeBackedArtifact(const std::filesystem::path &dir, int threads,
                    bool logical)
{
    TelemetryRegistry telemetry;
    TraceEventSink sink(logical ? TraceEventSink::Clock::Logical
                                : TraceEventSink::Clock::Wall);
    FleetConfig config = miniConfig(threads);
    config.telemetry = &telemetry;
    config.traceSink = &sink;
    config.checkpointEvery = 5;
    std::string error;
    auto store = ResultStore::create(
        (dir / "store").string(), SweepSpec::fromConfig(config), &error);
    EXPECT_TRUE(store.has_value()) << error;
    config.resultStore = &*store;
    FleetRunner runner(std::move(config));
    const FleetOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.diagnostics.empty());
    return runTelemetryToString(makeRunTelemetry(runner.config(), outcome));
}

TEST(RunTelemetry, V5RoundTripIsAFixedPoint)
{
    // Every header field and all three series kinds.
    RunTelemetry t;
    t.tool = "stress";
    t.scenario = "burst@0.5";
    t.threads = 8;
    t.sessions = 1200;
    t.events = 65536;
    // Exact binary fractions: %.10g must round-trip them exactly.
    t.sessionsPerSec = 4800.0;
    t.eventsPerSec = 262144.5;
    t.planMs = 1.5;
    t.setupMs = 40.75;
    t.executeMs = 250.25;
    t.persistMs = 8.125;
    t.reduceMs = 2.5;
    t.totalMs = 303.125;
    TelemetrySnapshot snap;
    snap.counters = {{"cache.hits", 900},
                     {"pool.busy_us", 1999500},
                     {"store.checkpoint_bytes", 4096}};
    snap.gauges = {{"mem.peak_rss_kb", 20480.0},
                   {"pool.max_queue_depth", 64.0}};
    DurationStats d;
    d.record(1.0);
    d.record(2.0);
    snap.durations = {{"runner.job_ms", d}};
    t.setSnapshot(std::move(snap));

    const auto parsed = parseRunTelemetry(runTelemetryToString(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tool, t.tool);
    EXPECT_EQ(parsed->scenario, t.scenario);
    EXPECT_EQ(parsed->logicalClock, t.logicalClock);
    EXPECT_EQ(parsed->threads, t.threads);
    EXPECT_EQ(parsed->sessions, t.sessions);
    EXPECT_EQ(parsed->events, t.events);
    EXPECT_DOUBLE_EQ(parsed->sessionsPerSec, t.sessionsPerSec);
    EXPECT_DOUBLE_EQ(parsed->eventsPerSec, t.eventsPerSec);
    EXPECT_DOUBLE_EQ(parsed->planMs, t.planMs);
    EXPECT_DOUBLE_EQ(parsed->setupMs, t.setupMs);
    EXPECT_DOUBLE_EQ(parsed->executeMs, t.executeMs);
    EXPECT_DOUBLE_EQ(parsed->persistMs, t.persistMs);
    EXPECT_DOUBLE_EQ(parsed->reduceMs, t.reduceMs);
    EXPECT_DOUBLE_EQ(parsed->totalMs, t.totalMs);
    EXPECT_EQ(parsed->snapshot.counters, t.snapshot.counters);
    EXPECT_EQ(parsed->snapshot.gauges, t.snapshot.gauges);
    ASSERT_EQ(parsed->snapshot.durations.size(), 1u);
    const DurationStats &rd = parsed->snapshot.durations[0].second;
    EXPECT_EQ(rd.count, 2u);
    EXPECT_DOUBLE_EQ(rd.sumMs, 3.0);
    EXPECT_DOUBLE_EQ(rd.minMs, 1.0);
    EXPECT_DOUBLE_EQ(rd.maxMs, 2.0);
    EXPECT_EQ(rd.buckets, d.buckets);
    // Parsing refreshes the typed view from the parsed series.
    EXPECT_EQ(parsed->cacheHits, 900u);
    EXPECT_DOUBLE_EQ(parsed->poolBusyMs, 1999.5);
    EXPECT_EQ(parsed->checkpointBytes, 4096u);

    // Round-trip is a fixed point: re-serializing parses identically.
    EXPECT_EQ(runTelemetryToString(*parsed), runTelemetryToString(t));
}

TEST(RunTelemetry, RejectsMalformedWrongVersionAndV4Documents)
{
    EXPECT_FALSE(parseRunTelemetry("not json").has_value());
    EXPECT_FALSE(parseRunTelemetry("{}").has_value());
    std::string text = runTelemetryToString(RunTelemetry());
    const std::string needle = "\"telemetry_version\": 5";
    const size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(), "\"telemetry_version\": 999");
    EXPECT_FALSE(parseRunTelemetry(text).has_value());

    // A v4 document, bespoke blocks and all, is refused rather than
    // half-read.
    const std::string v4 =
        "{\"telemetry_version\": 4, \"tool\": \"run\", \"scenario\": \"\", "
        "\"logical_clock\": 0, \"threads\": 2, \"sessions\": 12, "
        "\"events\": 600, \"sessions_per_sec\": 100, "
        "\"events_per_sec\": 5000, \"stage_ms\": {\"plan\": 1, "
        "\"execute\": 120, \"persist\": 2, \"reduce\": 3, \"total\": 126}, "
        "\"trace_cache\": {\"hits\": 12, \"misses\": 4, \"evictions\": 0, "
        "\"duplicate_synthesis\": 0}, \"checkpoint\": {\"flushes\": 1, "
        "\"bytes\": 900}, \"mem\": {\"peak_rss_kb\": 9000}, "
        "\"thread_pool\": {\"tasks\": 8, \"max_queue_depth\": 8, "
        "\"busy_ms\": 110, \"idle_ms\": 2}, \"scaling\": "
        "{\"parallel_efficiency\": 0, \"cache_lock_waits\": 0, "
        "\"cache_lock_wait_ms\": 0, \"persist_lock_waits\": 0, "
        "\"persist_lock_wait_ms\": 0, \"queue_tasks\": 8, "
        "\"queue_wait_ms\": 14.9, \"queue_wait_mean_ms\": 1.9, "
        "\"workers\": []}, \"counters\": [], \"gauges\": [], "
        "\"durations\": []}";
    ASSERT_TRUE(parseJson(v4).has_value());
    EXPECT_FALSE(parseRunTelemetry(v4).has_value());
}

TEST(RunTelemetry, TopLevelKeysAreHeaderStagesAndSeriesOnly)
{
    const TempDir dir("keys");
    const std::string text = storeBackedArtifact(dir.path, 2, false);
    const auto doc = parseJson(text);
    ASSERT_TRUE(doc.has_value());
    std::vector<std::string> keys;
    for (const auto &member : doc->obj)
        keys.push_back(member.first);
    const std::vector<std::string> expected{
        "telemetry_version", "tool", "scenario", "logical_clock",
        "threads", "sessions", "events", "sessions_per_sec",
        "events_per_sec", "stage_ms", "counters", "gauges", "durations"};
    EXPECT_EQ(keys, expected);

    std::vector<std::string> stages;
    for (const auto &member : doc->find("stage_ms")->obj)
        stages.push_back(member.first);
    EXPECT_EQ(stages, (std::vector<std::string>{"plan", "setup", "execute",
                                                "persist", "reduce",
                                                "total"}));

    // Every series is named once across the three kinds, and the
    // header's sessions/events are not repeated as counters.
    std::set<std::string> names;
    size_t series = 0;
    for (const char *kind : {"counters", "gauges", "durations"}) {
        for (const JsonValue &row : doc->find(kind)->arr) {
            names.insert(row.find("name")->str);
            ++series;
        }
    }
    EXPECT_EQ(names.size(), series);
    EXPECT_EQ(names.count("sim.sessions"), 0u);
    EXPECT_EQ(names.count("sim.events"), 0u);
    EXPECT_EQ(names.count("mem.peak_rss_kb"), 1u);
    // One peak-RSS value per artifact.
    size_t rss = 0;
    for (size_t at = text.find("peak_rss"); at != std::string::npos;
         at = text.find("peak_rss", at + 1))
        ++rss;
    EXPECT_EQ(rss, 1u);
}

TEST(RunTelemetry, TypedViewEqualsItsSeries)
{
    const TempDir dir("view");
    const auto parsed =
        parseRunTelemetry(storeBackedArtifact(dir.path, 2, false));
    ASSERT_TRUE(parsed.has_value());
    const RunTelemetry &t = *parsed;
    const TelemetrySnapshot &s = t.snapshot;
    EXPECT_GT(t.cacheHits, 0u);
    EXPECT_GT(t.checkpointFlushes, 0u);
    EXPECT_GT(t.checkpointBytes, 0u);
    EXPECT_EQ(t.cacheHits, s.counter("cache.hits"));
    EXPECT_EQ(t.cacheMisses, s.counter("cache.misses"));
    EXPECT_EQ(t.cacheDuplicateSynthesis,
              s.counter("cache.duplicate_synthesis"));
    EXPECT_EQ(t.cacheLockWaits, s.counter("cache.lock_waits"));
    EXPECT_EQ(t.persistLockWaits, s.counter("store.push_lock_waits"));
    EXPECT_EQ(t.checkpointFlushes, s.counter("store.checkpoint_flushes"));
    EXPECT_EQ(t.checkpointBytes, s.counter("store.checkpoint_bytes"));
    EXPECT_DOUBLE_EQ(t.poolBusyMs,
                     static_cast<double>(s.counter("pool.busy_us")) / 1000);
    EXPECT_DOUBLE_EQ(t.poolIdleMs,
                     static_cast<double>(s.counter("pool.idle_us")) / 1000);
}

TEST(RunTelemetry, FoldEqualsMergingTheRegistries)
{
    const auto record = [](TelemetryShard &shard, int k) {
        shard.count("cache.hits", static_cast<uint64_t>(10 * k));
        shard.count(k == 1 ? "only.first" : "only.second", 1);
        shard.gauge("mem.peak_rss_kb", 1000.0 * (3 - k));
        shard.duration("runner.job_ms", 0.25 * k);
    };
    TelemetryRegistry first, second, both;
    record(*first.makeShard(), 1);
    record(*second.makeShard(), 2);
    record(*both.makeShard(), 1);
    record(*both.makeShard(), 2);

    RunTelemetry a;
    a.tool = "stress";
    a.threads = 4;
    a.sessions = 10;
    a.events = 100;
    a.setupMs = 5.0;
    a.executeMs = 50.0;
    a.setSnapshot(first.snapshot());
    RunTelemetry b = a;
    b.sessions = 30;
    b.events = 300;
    b.executeMs = 150.0;
    b.setSnapshot(second.snapshot());

    RunTelemetry rollup;
    foldRunTelemetry(rollup, a);
    foldRunTelemetry(rollup, b);
    EXPECT_EQ(rollup.tool, "stress");
    EXPECT_EQ(rollup.threads, 4);
    EXPECT_EQ(rollup.sessions, 40u);
    EXPECT_EQ(rollup.events, 400u);
    EXPECT_DOUBLE_EQ(rollup.setupMs, 10.0);
    EXPECT_DOUBLE_EQ(rollup.executeMs, 200.0);
    EXPECT_DOUBLE_EQ(rollup.sessionsPerSec, 40.0 / 0.2);

    const TelemetrySnapshot merged = both.snapshot();
    EXPECT_EQ(rollup.snapshot.counters, merged.counters);
    EXPECT_EQ(rollup.snapshot.gauges, merged.gauges);
    ASSERT_EQ(rollup.snapshot.durations.size(), merged.durations.size());
    for (size_t i = 0; i < merged.durations.size(); ++i) {
        const DurationStats &x = rollup.snapshot.durations[i].second;
        const DurationStats &y = merged.durations[i].second;
        EXPECT_EQ(rollup.snapshot.durations[i].first,
                  merged.durations[i].first);
        EXPECT_EQ(x.count, y.count);
        EXPECT_DOUBLE_EQ(x.sumMs, y.sumMs);
        EXPECT_DOUBLE_EQ(x.minMs, y.minMs);
        EXPECT_DOUBLE_EQ(x.maxMs, y.maxMs);
        EXPECT_EQ(x.buckets, y.buckets);
    }
    // The typed view follows the folded snapshot.
    EXPECT_EQ(rollup.cacheHits, 30u);
}

TEST(RunTelemetry, FoldSkipsNonFiniteStageTimes)
{
    // A non-finite part (NaN survives the JSON round-trip as a quoted
    // literal, e.g. from a telemetry file written by a crashed or
    // clock-skewed worker) must not poison the folded sums or rates.
    RunTelemetry clean;
    clean.sessions = 4;
    clean.executeMs = 10.0;
    RunTelemetry poisoned;
    poisoned.sessions = 6;
    poisoned.executeMs = std::numeric_limits<double>::quiet_NaN();
    poisoned.totalMs = std::numeric_limits<double>::infinity();
    const auto parsed = parseRunTelemetry(runTelemetryToString(poisoned));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(std::isnan(parsed->executeMs));

    RunTelemetry rollup;
    foldRunTelemetry(rollup, clean);
    foldRunTelemetry(rollup, *parsed);
    EXPECT_EQ(rollup.sessions, 10u);
    EXPECT_DOUBLE_EQ(rollup.executeMs, 10.0);
    EXPECT_DOUBLE_EQ(rollup.totalMs, 0.0);
    EXPECT_DOUBLE_EQ(rollup.sessionsPerSec, 1000.0);
}

TEST(RunTelemetry, LogicalClockArtifactHasNoWallOrSchedulingSeries)
{
    const TempDir dir_a("logical_a");
    const TempDir dir_b("logical_b");
    const std::string text = storeBackedArtifact(dir_a.path, 1, true);
    const auto t = parseRunTelemetry(text);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->logicalClock);
    EXPECT_EQ(t->sessions, 12u);
    EXPECT_GT(t->events, 0u);
    EXPECT_DOUBLE_EQ(t->setupMs, 0.0);
    EXPECT_DOUBLE_EQ(t->totalMs, 0.0);
    EXPECT_DOUBLE_EQ(t->sessionsPerSec, 0.0);

    // Counts that a single worker fixes stay; wall totals, lock waits,
    // race-lost syntheses, high-water marks and durations do not.
    EXPECT_GT(t->snapshot.counter("cache.hits"), 0u);
    EXPECT_GT(t->snapshot.counter("store.checkpoint_flushes"), 0u);
    EXPECT_GT(t->snapshot.counter("pool.tasks"), 0u);
    for (const auto &counter : t->snapshot.counters) {
        const std::string &name = counter.first;
        EXPECT_EQ(name.find("_us"), std::string::npos) << name;
        EXPECT_EQ(name.find("lock_waits"), std::string::npos) << name;
        EXPECT_NE(name, "cache.duplicate_synthesis");
    }
    EXPECT_TRUE(t->snapshot.gauges.empty());
    EXPECT_TRUE(t->snapshot.durations.empty());

    // The whole artifact is byte-reproducible in this mode.
    EXPECT_EQ(storeBackedArtifact(dir_b.path, 1, true), text);
}

// ------------------------------------------------- canonical merging

TEST(Telemetry, SnapshotMergesShardsCanonically)
{
    // Two registries, same per-shard content written in different
    // thread interleavings: snapshots must be byte-equal and
    // name-sorted.
    const auto build = [](bool reverse) {
        auto registry = std::make_unique<TelemetryRegistry>();
        std::vector<TelemetryShard *> shards;
        for (int i = 0; i < 4; ++i)
            shards.push_back(registry->makeShard());
        std::vector<std::thread> threads;
        for (int i = 0; i < 4; ++i) {
            const int at = reverse ? 3 - i : i;
            threads.emplace_back([shard = shards[at], at] {
                shard->count("zeta", static_cast<uint64_t>(at + 1));
                shard->count("alpha");
                shard->gauge("depth", static_cast<double>(at));
                shard->duration("lat", 1.0 * (at + 1));
            });
        }
        for (auto &t : threads)
            t.join();
        registry->count("alpha", 10);
        return registry;
    };

    const TelemetrySnapshot a = build(false)->snapshot();
    const TelemetrySnapshot b = build(true)->snapshot();

    ASSERT_EQ(a.counters.size(), 2u);
    EXPECT_EQ(a.counters[0].first, "alpha");  // name-sorted
    EXPECT_EQ(a.counters[0].second, 4u + 10u);
    EXPECT_EQ(a.counters[1].first, "zeta");
    EXPECT_EQ(a.counters[1].second, 1u + 2u + 3u + 4u);
    EXPECT_DOUBLE_EQ(a.gaugeValue("depth"), 3.0);  // max-merge
    ASSERT_EQ(a.durations.size(), 1u);
    EXPECT_EQ(a.durations[0].second.count, 4u);
    EXPECT_DOUBLE_EQ(a.durations[0].second.sumMs, 10.0);
    EXPECT_DOUBLE_EQ(a.durations[0].second.minMs, 1.0);
    EXPECT_DOUBLE_EQ(a.durations[0].second.maxMs, 4.0);

    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    ASSERT_EQ(a.durations.size(), b.durations.size());
    EXPECT_EQ(a.durations[0].second.buckets, b.durations[0].second.buckets);
}

TEST(Telemetry, DurationStatsBucketsByLog2Microseconds)
{
    DurationStats d;
    d.record(0.001);  // 1 us -> bucket 0
    d.record(0.003);  // 3 us -> bucket 1
    d.record(1.0);    // 1000 us -> bucket 9
    EXPECT_EQ(d.count, 3u);
    EXPECT_EQ(d.buckets[0], 1u);
    EXPECT_EQ(d.buckets[1], 1u);
    EXPECT_EQ(d.buckets[9], 1u);
    DurationStats e;
    e.record(1.0);
    e.merge(d);
    EXPECT_EQ(e.count, 4u);
    EXPECT_EQ(e.buckets[9], 2u);
    EXPECT_DOUBLE_EQ(e.minMs, 0.001);
    EXPECT_DOUBLE_EQ(e.maxMs, 1.0);
}

} // namespace
} // namespace pes
