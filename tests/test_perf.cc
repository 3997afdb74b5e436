/**
 * @file
 * Tests for the perf-history ledger and its gate: JSONL round-trip,
 * damaged-ledger classification (truncation, bad magic, version skew —
 * classified, never crashing), CV noise hand-math, the gate exit-code
 * contract (0 within noise / 2 regressed / 3 missing / 4 corrupt or
 * fingerprint mismatch), calibrated-tolerance round-trip and its
 * consumption by both gates, the telemetry -> ledger series mapping,
 * parallel-scaling attribution (efficiency derivation, contention
 * ledger, registry lock-wait series), and the no-feedback contract with
 * the contention instrumentation in place: telemetry-armed runs stay
 * byte-identical to bare runs at threads 1 and 8.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "results/report_diff.hh"
#include "results/tolerance.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "telemetry/perf_history.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/telemetry.hh"
#include "util/contention.hh"

namespace fs = std::filesystem;

namespace pes {
namespace {

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(fs::temp_directory_path() / ("pes_perf_test_" + name))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }

    fs::path path;
};

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    ASSERT_TRUE(os.good());
}

/** A two-point sample with quality metrics and replicate spread. */
PerfSample
makeSample()
{
    PerfSample sample;
    sample.label = "bench_sim";
    sample.rev = "abc1234";
    sample.machine = "Linux-x86_64-8cpu";
    sample.config = "cfg-0011223344556677";
    sample.sessions = 288;
    sample.events = 14916;
    PerfPoint t1;
    t1.threads = 1;
    t1.set("sessions_per_sec", {3130.0, 3100.5, 3150.25});
    t1.set("execute_ms", {92.0, 92.5, 91.75});
    t1.set("duplicate_synthesis", {0.0, 0.0, 0.0});
    PerfPoint t4;
    t4.threads = 4;
    t4.set("sessions_per_sec", {2376.25, 2400.0, 2350.5});
    t4.set("execute_ms", {121.25, 120.0, 122.5});
    t4.set("duplicate_synthesis", {1.0, 0.0, 1.0});
    sample.points = {t1, t4};
    sample.quality = {{"ebs.p95_session_latency_ms", 95.75},
                      {"ebs.violation_rate", 0.05}};
    return sample;
}

// -------------------------------------------------------- round-trip

TEST(PerfHistory, JsonLineRoundTripsEveryField)
{
    const PerfSample sample = makeSample();
    const std::string line = perfSampleToJsonLine(sample);
    // One JSONL record: exactly the trailing newline, no interior ones.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1);

    IntegrityProblem problem;
    const auto parsed = parsePerfSampleLine(line, &problem);
    ASSERT_TRUE(parsed.has_value()) << problem.message;
    EXPECT_EQ(parsed->label, sample.label);
    EXPECT_EQ(parsed->rev, sample.rev);
    EXPECT_EQ(parsed->machine, sample.machine);
    EXPECT_EQ(parsed->config, sample.config);
    EXPECT_EQ(parsed->sessions, sample.sessions);
    EXPECT_EQ(parsed->events, sample.events);
    EXPECT_EQ(parsed->replicates(), 3);
    ASSERT_EQ(parsed->points.size(), 2u);
    const PerfPoint *t4 = parsed->point(4);
    ASSERT_NE(t4, nullptr);
    const std::vector<double> *rates = t4->find("sessions_per_sec");
    ASSERT_NE(rates, nullptr);
    ASSERT_EQ(rates->size(), 3u);
    EXPECT_DOUBLE_EQ((*rates)[0], 2376.25);
    EXPECT_DOUBLE_EQ((*rates)[2], 2350.5);
    ASSERT_EQ(parsed->quality.size(), 2u);
    EXPECT_EQ(parsed->quality[1].first, "ebs.violation_rate");
    EXPECT_DOUBLE_EQ(parsed->quality[1].second, 0.05);

    // Round-trip is a fixed point.
    EXPECT_EQ(perfSampleToJsonLine(*parsed), line);
}

TEST(PerfHistory, AppendAndLoadAccumulateLedger)
{
    TempDir dir("ledger");
    const std::string path = (dir.path / "PERF.jsonl").string();

    PerfSample first = makeSample();
    PerfSample second = makeSample();
    second.rev = "def5678";
    std::string error;
    ASSERT_TRUE(appendPerfSample(path, first, &error)) << error;
    ASSERT_TRUE(appendPerfSample(path, second, &error)) << error;

    const PerfHistory history = loadPerfHistory(path);
    EXPECT_TRUE(history.problems.empty());
    ASSERT_EQ(history.samples.size(), 2u);
    ASSERT_NE(history.latest("bench_sim"), nullptr);
    EXPECT_EQ(history.latest("bench_sim")->rev, "def5678");
    EXPECT_EQ(history.latest("no_such_label"), nullptr);
}

TEST(PerfHistory, PointMetricsNameTheLedgerSeries)
{
    // What one RunTelemetry replicate contributes to the ledger: the
    // header's rates and stage times, then the registry's traffic,
    // through the typed view or straight from the snapshot.
    TelemetrySnapshot snap;
    snap.counters = {{"cache.evictions", 3}, {"cache.hits", 90},
                     {"cache.lock_wait_us", 1500}, {"cache.misses", 10},
                     {"pool.busy_us", 250000},
                     {"store.push_lock_wait_us", 500}};
    RunTelemetry t;
    t.setupMs = 4.0;
    t.setSnapshot(snap);

    const auto metrics = perfPointMetrics(t);
    std::vector<std::string> names;
    for (const auto &metric : metrics)
        names.push_back(metric.first);
    const std::vector<std::string> expected{
        "sessions_per_sec", "events_per_sec", "plan_ms", "setup_ms",
        "execute_ms", "persist_ms", "reduce_ms", "total_ms", "cache_hits",
        "cache_misses", "cache_evictions", "duplicate_synthesis",
        "cache_lock_waits", "cache_lock_wait_ms", "persist_lock_waits",
        "persist_lock_wait_ms", "pool_busy_ms", "pool_idle_ms"};
    EXPECT_EQ(names, expected);

    const auto value = [&metrics](const std::string &name) {
        for (const auto &metric : metrics)
            if (metric.first == name)
                return metric.second;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(value("setup_ms"), 4.0);
    EXPECT_DOUBLE_EQ(value("cache_hits"), 90.0);
    EXPECT_DOUBLE_EQ(value("cache_evictions"), 3.0);
    EXPECT_DOUBLE_EQ(value("cache_lock_wait_ms"), 1.5);
    EXPECT_DOUBLE_EQ(value("persist_lock_wait_ms"), 0.5);
    EXPECT_DOUBLE_EQ(value("pool_busy_ms"), 250.0);
}

// --------------------------------------------- damage classification

TEST(PerfHistory, MissingAndEmptyLedgersClassifyAsMissing)
{
    TempDir dir("missing");
    const PerfHistory absent =
        loadPerfHistory((dir.path / "nope.jsonl").string());
    ASSERT_EQ(absent.problems.size(), 1u);
    EXPECT_EQ(absent.problems[0].kind,
              IntegrityProblem::Kind::MissingFile);
    EXPECT_EQ(integrityExitCode(absent.problems), kExitMissing);

    const fs::path empty_path = dir.path / "empty.jsonl";
    writeFile(empty_path, "");
    const PerfHistory empty = loadPerfHistory(empty_path.string());
    ASSERT_EQ(empty.problems.size(), 1u);
    EXPECT_EQ(empty.problems[0].kind,
              IntegrityProblem::Kind::MissingFile);
}

TEST(PerfHistory, DamagedLinesClassifyAndGoodLinesStillLoad)
{
    TempDir dir("damage");
    const fs::path path = dir.path / "PERF.jsonl";
    const std::string good = perfSampleToJsonLine(makeSample());

    // Truncated write, bad magic, version skew, binary garbage — each
    // classified; the good lines around them still load.
    std::string skew = good;
    const size_t at = skew.find("\"perf_version\": 1");
    ASSERT_NE(at, std::string::npos);
    skew.replace(at, 17, "\"perf_version\": 999");
    writeFile(path, good +
                        good.substr(0, good.size() / 2) + "\n" +
                        "{\"not_a_perf_sample\": true}\n" +
                        skew +
                        "\x01\x02\xff garbage\n" +
                        good);

    const PerfHistory history = loadPerfHistory(path.string());
    EXPECT_EQ(history.samples.size(), 2u);
    ASSERT_EQ(history.problems.size(), 4u);
    EXPECT_EQ(history.problems[0].kind, IntegrityProblem::Kind::Corrupt);
    EXPECT_EQ(history.problems[1].kind, IntegrityProblem::Kind::Corrupt);
    EXPECT_EQ(history.problems[2].kind,
              IntegrityProblem::Kind::Mismatch);
    EXPECT_EQ(history.problems[3].kind, IntegrityProblem::Kind::Corrupt);
    // Problems carry the file:line locus for the CI log.
    EXPECT_NE(history.problems[0].message.find(":2:"),
              std::string::npos);
    // Any corruption gates as kExitCorrupt.
    EXPECT_EQ(integrityExitCode(history.problems), kExitCorrupt);
}

// ------------------------------------------------------- noise math

TEST(PerfNoise, CoefficientOfVariationHandMath)
{
    // {100, 102, 98}: mean 100, sample stddev sqrt((0+4+4)/2) = 2.
    const PerfNoise noise = perfNoise({100.0, 102.0, 98.0});
    EXPECT_DOUBLE_EQ(noise.mean, 100.0);
    EXPECT_DOUBLE_EQ(noise.stddev, 2.0);
    EXPECT_DOUBLE_EQ(noise.cv, 0.02);

    const PerfNoise single = perfNoise({5.0});
    EXPECT_DOUBLE_EQ(single.mean, 5.0);
    EXPECT_DOUBLE_EQ(single.stddev, 0.0);
    EXPECT_DOUBLE_EQ(single.cv, 0.0);

    const PerfNoise zero = perfNoise({0.0, 0.0});
    EXPECT_DOUBLE_EQ(zero.cv, 0.0);
}

// ----------------------------------------------- directions / gating

TEST(PerfMetrics, DirectionAndDefaultGating)
{
    EXPECT_EQ(perfMetricDirection("t4.sessions_per_sec"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(perfMetricDirection("t4.parallel_efficiency"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(perfMetricDirection("t2.execute_ms"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(perfMetricDirection("t2.cache_lock_waits"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(perfMetricDirection("t2.duplicate_synthesis"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(perfMetricDirection("quality.ebs.violation_rate"),
              MetricDirection::LowerIsBetter);

    EXPECT_TRUE(perfMetricGatedByDefault("t4.sessions_per_sec"));
    EXPECT_TRUE(perfMetricGatedByDefault("t4.parallel_efficiency"));
    EXPECT_TRUE(perfMetricGatedByDefault("quality.ebs.violation_rate"));
    // Attribution counters are advisory: compared, never gate-failing.
    EXPECT_FALSE(perfMetricGatedByDefault("t2.execute_ms"));
    EXPECT_FALSE(perfMetricGatedByDefault("t2.cache_lock_waits"));
    EXPECT_FALSE(perfMetricGatedByDefault("t2.duplicate_synthesis"));
}

// ---------------------------------------------- compare / exit codes

TEST(PerfCompare, SelfComparisonIsCleanExitZero)
{
    const PerfSample sample = makeSample();
    const PerfComparison cmp =
        comparePerfSamples(sample, sample, PerfCompareOptions());
    EXPECT_TRUE(cmp.comparable);
    EXPECT_TRUE(cmp.clean());
    EXPECT_EQ(cmp.regressed, 0);
    EXPECT_GT(cmp.identical, 0);
    EXPECT_EQ(perfGateExitCode(cmp), 0);
}

TEST(PerfCompare, GatedRegressionExitsDrift)
{
    const PerfSample base = makeSample();
    PerfSample test = base;
    // 50% throughput collapse at t4: far beyond any noise band.
    test.points[1].set("sessions_per_sec", {1200.0, 1190.0, 1210.0});

    const PerfComparison cmp =
        comparePerfSamples(base, test, PerfCompareOptions());
    EXPECT_TRUE(cmp.comparable);
    EXPECT_FALSE(cmp.clean());
    EXPECT_GE(cmp.regressed, 1);
    EXPECT_EQ(perfGateExitCode(cmp), kExitDrift);

    bool named = false;
    for (const PerfMetricDelta &d : cmp.deltas)
        if (d.name == "t4.sessions_per_sec") {
            named = true;
            EXPECT_TRUE(d.gated);
            EXPECT_EQ(d.outcome, DiffOutcome::Regressed);
        }
    EXPECT_TRUE(named);
}

TEST(PerfCompare, ImprovementPassesAsStaleBaseline)
{
    const PerfSample base = makeSample();
    PerfSample test = base;
    test.points[1].set("sessions_per_sec", {4000.0, 4010.0, 3990.0});

    const PerfComparison cmp =
        comparePerfSamples(base, test, PerfCompareOptions());
    EXPECT_TRUE(cmp.clean());
    EXPECT_GE(cmp.improved, 1);
    EXPECT_EQ(cmp.regressed, 0);
    EXPECT_EQ(perfGateExitCode(cmp), 0);
}

TEST(PerfCompare, AdvisoryRegressionStillExitsZero)
{
    const PerfSample base = makeSample();
    PerfSample test = base;
    // execute_ms doubles — advisory, so recorded but not gate-failing.
    test.points[1].set("execute_ms", {242.5, 240.0, 245.0});

    const PerfComparison cmp =
        comparePerfSamples(base, test, PerfCompareOptions());
    EXPECT_TRUE(cmp.clean());
    EXPECT_EQ(perfGateExitCode(cmp), 0);
    for (const PerfMetricDelta &d : cmp.deltas)
        if (d.name == "t4.execute_ms") {
            EXPECT_FALSE(d.gated);
            EXPECT_EQ(d.outcome, DiffOutcome::Regressed);
        }
}

TEST(PerfCompare, ExplicitMetricSelectionGatesAdvisory)
{
    const PerfSample base = makeSample();
    PerfSample test = base;
    test.points[1].set("execute_ms", {242.5, 240.0, 245.0});

    PerfCompareOptions options;
    options.metrics = {"t4.execute_ms"};
    const PerfComparison cmp = comparePerfSamples(base, test, options);
    EXPECT_FALSE(cmp.clean());
    EXPECT_EQ(perfGateExitCode(cmp), kExitDrift);
}

TEST(PerfCompare, NoiseBandScalesWithReplicateCv)
{
    // Noiseless base, 3% drop: outside the 2% floor -> Regressed.
    PerfSample base = makeSample();
    base.points = {base.points[1]};
    base.points[0].metrics.clear();
    base.points[0].set("sessions_per_sec", {1000.0, 1000.0, 1000.0});
    base.quality.clear();
    PerfSample test = base;
    test.points[0].set("sessions_per_sec", {970.0, 970.0, 970.0});
    const PerfComparison tight =
        comparePerfSamples(base, test, PerfCompareOptions());
    EXPECT_FALSE(tight.clean());

    // Same 3% drop under 2% CV: band = 3 sigmas x 0.02 = 6% -> within.
    base.points[0].set("sessions_per_sec", {1000.0, 1020.0, 980.0});
    const PerfComparison loose =
        comparePerfSamples(base, test, PerfCompareOptions());
    EXPECT_TRUE(loose.clean());
    EXPECT_EQ(perfGateExitCode(loose), 0);
}

TEST(PerfCompare, QualityMetricsAreExactByDefault)
{
    const PerfSample base = makeSample();
    PerfSample test = base;
    test.quality[1].second = 0.051;  // tiny violation-rate increase

    const PerfComparison cmp =
        comparePerfSamples(base, test, PerfCompareOptions());
    EXPECT_FALSE(cmp.clean());
    EXPECT_EQ(perfGateExitCode(cmp), kExitDrift);

    // A quality improvement passes.
    test.quality[1].second = 0.049;
    EXPECT_TRUE(
        comparePerfSamples(base, test, PerfCompareOptions()).clean());
}

TEST(PerfCompare, FingerprintOrConfigMismatchExitsCorrupt)
{
    const PerfSample base = makeSample();

    PerfSample other_machine = base;
    other_machine.machine = "Darwin-arm64-10cpu";
    const PerfComparison machine_cmp =
        comparePerfSamples(base, other_machine, PerfCompareOptions());
    EXPECT_FALSE(machine_cmp.comparable);
    ASSERT_FALSE(machine_cmp.problems.empty());
    EXPECT_EQ(machine_cmp.problems[0].kind,
              IntegrityProblem::Kind::Mismatch);
    EXPECT_EQ(perfGateExitCode(machine_cmp), kExitCorrupt);

    PerfSample other_config = base;
    other_config.config = "cfg-ffffffffffffffff";
    EXPECT_EQ(perfGateExitCode(comparePerfSamples(
                  base, other_config, PerfCompareOptions())),
              kExitCorrupt);

    PerfSample other_label = base;
    other_label.label = "stress";
    EXPECT_EQ(perfGateExitCode(comparePerfSamples(
                  base, other_label, PerfCompareOptions())),
              kExitCorrupt);
}

TEST(PerfCompare, OneSidedMetricsAreNotesNotFailures)
{
    const PerfSample base = makeSample();
    PerfSample test = base;
    test.points[1].set("persist_lock_waits", {3.0, 4.0, 2.0});

    const PerfComparison cmp =
        comparePerfSamples(base, test, PerfCompareOptions());
    EXPECT_TRUE(cmp.comparable);
    EXPECT_GE(cmp.missing, 1);
    EXPECT_TRUE(cmp.clean());
}

// ------------------------------------------- calibrated tolerances

TEST(Tolerance, JsonRoundTripAndVersionSkew)
{
    ToleranceSpec spec;
    spec.sigmas = 4.0;
    spec.replicates = 5;
    spec.widen("sessions_per_sec", 0.08, 0.0);
    spec.widen("mean_energy_mj", 0.015, 0.5);

    const std::string json = toleranceSpecToJson(spec);
    const auto parsed = parseToleranceSpec(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->sigmas, 4.0);
    EXPECT_EQ(parsed->replicates, 5);
    ASSERT_NE(parsed->find("sessions_per_sec"), nullptr);
    EXPECT_DOUBLE_EQ(parsed->find("sessions_per_sec")->rel, 0.08);
    EXPECT_DOUBLE_EQ(parsed->find("mean_energy_mj")->abs, 0.5);
    EXPECT_EQ(parsed->find("unknown_metric"), nullptr);

    // widen() never narrows.
    ToleranceSpec widened = *parsed;
    widened.widen("sessions_per_sec", 0.02, 0.0);
    EXPECT_DOUBLE_EQ(widened.find("sessions_per_sec")->rel, 0.08);

    std::string skew = json;
    const size_t at = skew.find("\"tolerance_version\": 1");
    ASSERT_NE(at, std::string::npos);
    skew.replace(at, 22, "\"tolerance_version\": 99");
    EXPECT_FALSE(parseToleranceSpec(skew).has_value());
    EXPECT_FALSE(parseToleranceSpec("not json").has_value());
}

TEST(Tolerance, CalibratedBandWidensThePerfGate)
{
    // A 3% drop fails under default noise-free bands but passes once a
    // calibrated spec declares 10% as normal for that metric.
    PerfSample base = makeSample();
    base.points[0].set("sessions_per_sec", {1000.0, 1000.0, 1000.0});
    base.points[1].set("sessions_per_sec", {900.0, 900.0, 900.0});
    PerfSample test = base;
    test.points[1].set("sessions_per_sec", {873.0, 873.0, 873.0});

    EXPECT_FALSE(
        comparePerfSamples(base, test, PerfCompareOptions()).clean());

    ToleranceSpec spec;
    // Unqualified name: the gate strips the "t<threads>." qualifier.
    spec.widen("sessions_per_sec", 0.10, 0.0);
    PerfCompareOptions options;
    options.tolerance = &spec;
    const PerfComparison cmp = comparePerfSamples(base, test, options);
    EXPECT_TRUE(cmp.clean());
    EXPECT_EQ(perfGateExitCode(cmp), 0);
}

TEST(Tolerance, CalibrationDerivesBandsFromReplicateReports)
{
    // Three replicates whose single cell varies mean_energy_mj as
    // {100, 102, 98}: stddev 2, mean 100 -> rel band = 3 x 0.02.
    const auto makeReport = [](double energy) {
        FleetReport r;
        r.baseSeed = 42;
        r.seedMode = "fleet";
        r.users = 3;
        r.sessions = 3;
        r.events = 100;
        r.devices = {"Exynos 5410"};
        r.apps = {"cnn"};
        r.schedulers = {"EBS"};
        CellSummary c;
        c.device = "Exynos 5410";
        c.app = "cnn";
        c.scheduler = "EBS";
        c.sessions = 3;
        c.events = 100;
        c.meanEnergyMj = energy;
        r.cells.push_back(c);
        return r;
    };
    std::vector<FleetReport> replicates = {
        makeReport(100.0), makeReport(102.0), makeReport(98.0)};
    std::vector<std::string> notes;
    const ToleranceSpec spec =
        calibrateTolerances(replicates, 3.0, &notes);
    EXPECT_EQ(spec.replicates, 3);
    const MetricTolerance *band = spec.find("mean_energy_mj");
    ASSERT_NE(band, nullptr);
    EXPECT_NEAR(band->rel, 0.06, 1e-12);

    // The same spec feeds the report diff: a 5% energy drift passes
    // under the calibrated band, fails under the default 1e-6.
    const FleetReport base = makeReport(100.0);
    const FleetReport drifted = makeReport(105.0);
    DiffOptions loose;
    loose.tolerance = &spec;
    loose.relTolerance = 0.0;
    EXPECT_TRUE(diffReports(base, drifted, loose).clean());
    EXPECT_FALSE(diffReports(base, drifted, DiffOptions()).clean());
}

// ------------------------------------------------ scaling attribution

TEST(Scaling, ParallelEfficiencyHandMath)
{
    PerfSample sample;
    PerfPoint t1;
    t1.threads = 1;
    t1.set("sessions_per_sec", {100.0, 100.0});
    PerfPoint t4;
    t4.threads = 4;
    t4.set("sessions_per_sec", {200.0, 220.0});
    sample.points = {t1, t4};

    derivePerfParallelEfficiency(sample);
    const std::vector<double> *eff1 =
        sample.point(1)->find("parallel_efficiency");
    ASSERT_NE(eff1, nullptr);
    EXPECT_DOUBLE_EQ((*eff1)[0], 1.0);
    const std::vector<double> *eff4 =
        sample.point(4)->find("parallel_efficiency");
    ASSERT_NE(eff4, nullptr);
    ASSERT_EQ(eff4->size(), 2u);
    EXPECT_DOUBLE_EQ((*eff4)[0], 0.5);    // 200 / (4 x 100)
    EXPECT_DOUBLE_EQ((*eff4)[1], 0.55);   // 220 / (4 x 100)

    // Without a t1 anchor the derivation is a no-op.
    PerfSample unanchored;
    unanchored.points = {t4};
    derivePerfParallelEfficiency(unanchored);
    EXPECT_EQ(unanchored.point(4)->find("parallel_efficiency"), nullptr);
}

TEST(Scaling, ContentionGuardCountsBlockedAcquisitions)
{
    std::mutex mutex;
    LockContention ledger;
    {
        // Uncontended: the try_lock fast path records nothing.
        ContentionGuard guard(mutex, ledger);
    }
    EXPECT_EQ(ledger.waits, 0u);
    EXPECT_DOUBLE_EQ(ledger.waitMs, 0.0);

    // Contended: a thread arriving while the mutex is held must block
    // and record exactly one wait (with the blocked time accrued).
    std::unique_lock<std::mutex> holder(mutex);
    std::thread blocked([&] { ContentionGuard guard(mutex, ledger); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    holder.unlock();
    blocked.join();
    EXPECT_EQ(ledger.waits, 1u);
    EXPECT_GT(ledger.waitMs, 0.0);

    ledger.reset();
    EXPECT_EQ(ledger.waits, 0u);
    EXPECT_DOUBLE_EQ(ledger.waitMs, 0.0);
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

TEST(Scaling, SingleThreadRunsAreContentionFree)
{
    TelemetryRegistry telemetry;
    FleetConfig config = miniConfig(1);
    config.telemetry = &telemetry;
    FleetRunner runner(std::move(config));
    const RunTelemetry t = makeRunTelemetry(runner.config(), runner.run());
    // One worker, no overlap: try_lock always wins, deterministically.
    // The run shared its traces, so the cache series are really there.
    EXPECT_GT(t.cacheHits, 0u);
    EXPECT_EQ(t.cacheLockWaits, 0u);
    EXPECT_EQ(t.snapshot.counter("cache.lock_wait_us"), 0u);
    EXPECT_EQ(t.persistLockWaits, 0u);
}

TEST(Scaling, DuplicateSynthesisSurfacesInTelemetry)
{
    TelemetryRegistry telemetry;
    FleetConfig config = miniConfig(2);
    config.telemetry = &telemetry;
    FleetRunner runner(std::move(config));
    const RunTelemetry t = makeRunTelemetry(runner.config(), runner.run());
    // The series is recorded and the summary's typed view reads it (its
    // value is scheduling-dependent: race losers synthesize twice).
    EXPECT_NE(runTelemetryToString(t).find("\"cache.duplicate_synthesis\""),
              std::string::npos);
    EXPECT_EQ(t.cacheDuplicateSynthesis,
              telemetry.snapshot().counter("cache.duplicate_synthesis"));
}

// ------------------------------------------------ no-feedback contract

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

TEST(NoFeedback, ContentionInstrumentationNeverChangesReportBytes)
{
    // The contention ledgers and worker accounting ride the armed
    // path; arming telemetry must still not move a single report byte,
    // serial or heavily threaded.
    const std::string bare = reportBytes(miniConfig(1));
    for (const int threads : {1, 8}) {
        TelemetryRegistry telemetry;
        FleetConfig armed = miniConfig(threads);
        armed.telemetry = &telemetry;
        EXPECT_EQ(reportBytes(std::move(armed)), bare)
            << "instrumented run diverged at threads=" << threads;
    }
}

} // namespace
} // namespace pes
