/**
 * @file
 * Tests for the report-diffing subsystem and the golden-baseline
 * regression harness: cell alignment and outcome classification,
 * tolerance boundary semantics (exactly-at passes, just-over fails),
 * bit-exact mode (1-ulp drift), missing/extra cells, axis-mismatch
 * refusal, NaN/inf round-trip and diff handling, the exit-code
 * contract, fuzz-style robustness of the diff input path (truncated
 * and bit-flipped reports and stores must classify, never crash), and
 * byte-identical regeneration of the committed golden mini-sweep.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "results/report_diff.hh"
#include "results/result_format.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "runner/fleet_config.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "trace/app_profile.hh"
#include "util/json.hh"

namespace fs = std::filesystem;

namespace pes {
namespace {

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(fs::temp_directory_path() / ("pes_diff_test_" + name))
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

std::string
readFile(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

CellSummary
makeCell(const std::string &app, const std::string &scheduler,
         double energy)
{
    CellSummary c;
    c.device = "Exynos 5410";
    c.app = app;
    c.scheduler = scheduler;
    c.sessions = 3;
    c.events = 100;
    c.violations = 5;
    c.violationRate = 0.05;
    c.meanEnergyMj = energy;
    c.stddevEnergyMj = energy / 10.0;
    c.minEnergyMj = energy * 0.9;
    c.maxEnergyMj = energy * 1.1;
    c.meanBusyEnergyMj = energy * 0.7;
    c.meanIdleEnergyMj = energy * 0.3;
    c.meanOverheadEnergyMj = 1.5;
    c.meanWasteEnergyMj = 12.25;
    c.meanDurationMs = 60000.0;
    c.meanLatencyMs = 42.5;
    c.p50SessionLatencyMs = 40.0;
    c.p95SessionLatencyMs = 95.75;
    c.maxLatencyMs = 210.0;
    c.avgQueueLength = 1.25;
    c.predictionAccuracy = 0.9;
    c.mispredictsPerSession = 2.0;
    c.mispredictWasteMsPerSession = 17.5;
    c.fallbackRate = 0.0;
    return c;
}

/** A small two-app, two-scheduler report with distinct cell values. */
FleetReport
makeReport()
{
    FleetReport r;
    r.baseSeed = 42;
    r.seedMode = "fleet";
    r.warmDrivers = false;
    r.users = 3;
    r.sessions = 12;
    r.events = 400;
    r.devices = {"Exynos 5410"};
    r.apps = {"cnn", "social_feed"};
    r.schedulers = {"EBS", "Interactive"};
    r.cells.push_back(makeCell("cnn", "EBS", 1000.0));
    r.cells.push_back(makeCell("cnn", "Interactive", 1100.0));
    r.cells.push_back(makeCell("social_feed", "EBS", 500.0));
    r.cells.push_back(makeCell("social_feed", "Interactive", 525.0));
    return r;
}

// ------------------------------------------------ outcome classification

TEST(ReportDiff, SelfDiffIsIdenticalInBothModes)
{
    const FleetReport r = makeReport();
    for (const bool exact : {false, true}) {
        DiffOptions options;
        options.exact = exact;
        const DiffSummary summary = diffReports(r, r, options);
        EXPECT_TRUE(summary.comparable);
        EXPECT_TRUE(summary.clean());
        EXPECT_EQ(summary.identical, 4);
        EXPECT_EQ(summary.regressed, 0);
        EXPECT_EQ(diffExitCode(summary), 0) << "exact=" << exact;
        // Every cell is reported, auditable, with no metric deltas.
        ASSERT_EQ(summary.cells.size(), 4u);
        for (const CellDiff &cell : summary.cells) {
            EXPECT_EQ(cell.outcome, DiffOutcome::Identical);
            EXPECT_TRUE(cell.metrics.empty());
        }
    }
}

TEST(ReportDiff, ExactlyAtToleranceIsWithinJustOverIsNot)
{
    const FleetReport base = makeReport();

    // Absolute boundary: |delta| == absTolerance passes...
    FleetReport test = base;
    test.cells[0].meanEnergyMj = 1001.0;  // delta exactly 1.0
    DiffOptions options;
    options.relTolerance = 0.0;
    options.absTolerance = 1.0;
    DiffSummary at = diffReports(base, test, options);
    EXPECT_EQ(at.withinTolerance, 1);
    EXPECT_EQ(at.regressed, 0);
    EXPECT_EQ(diffExitCode(at), 0);

    // ...and the next representable delta past it fails.
    test.cells[0].meanEnergyMj = std::nextafter(
        1001.0, std::numeric_limits<double>::infinity());
    DiffSummary over = diffReports(base, test, options);
    EXPECT_EQ(over.regressed, 1);
    EXPECT_EQ(diffExitCode(over), kExitDrift);

    // Relative boundary: delta/base == relTolerance passes, just over
    // fails.
    test.cells[0].meanEnergyMj = 1010.0;  // rel delta == 10/1000
    options.absTolerance = 0.0;
    options.relTolerance = 10.0 / 1000.0;
    EXPECT_EQ(diffExitCode(diffReports(base, test, options)), 0);
    test.cells[0].meanEnergyMj = 1010.0001;
    EXPECT_EQ(diffExitCode(diffReports(base, test, options)),
              kExitDrift);
}

TEST(ReportDiff, MissingAndExtraCellsAreFlagged)
{
    const FleetReport base = makeReport();
    FleetReport test = base;
    test.cells.erase(test.cells.begin() + 1);  // drop (cnn, Interactive)

    DiffSummary summary = diffReports(base, test, DiffOptions{});
    EXPECT_EQ(summary.missing, 1);
    EXPECT_EQ(summary.identical, 3);
    EXPECT_FALSE(summary.clean());
    EXPECT_EQ(diffExitCode(summary), kExitDrift);
    ASSERT_EQ(summary.cells.size(), 4u);
    EXPECT_EQ(summary.cells[1].outcome, DiffOutcome::Missing);
    EXPECT_EQ(summary.cells[1].app, "cnn");
    EXPECT_EQ(summary.cells[1].scheduler, "Interactive");

    // The reverse direction is Extra, appended after the base cells.
    summary = diffReports(test, base, DiffOptions{});
    EXPECT_EQ(summary.extra, 1);
    EXPECT_EQ(diffExitCode(summary), kExitDrift);
    ASSERT_EQ(summary.cells.size(), 4u);
    EXPECT_EQ(summary.cells.back().outcome, DiffOutcome::Extra);
    EXPECT_EQ(summary.cells.back().scheduler, "Interactive");
}

TEST(ReportDiff, SweepMismatchesRefuseToCompare)
{
    const FleetReport base = makeReport();
    const auto expectRefused = [&](const FleetReport &test,
                                   const char *what) {
        const DiffSummary summary =
            diffReports(base, test, DiffOptions{});
        EXPECT_FALSE(summary.comparable) << what;
        EXPECT_FALSE(summary.problems.empty()) << what;
        for (const IntegrityProblem &p : summary.problems)
            EXPECT_EQ(p.kind, IntegrityProblem::Kind::Mismatch) << what;
        EXPECT_EQ(diffExitCode(summary), kExitCorrupt) << what;
        EXPECT_TRUE(summary.cells.empty()) << what;
    };

    FleetReport test = base;
    test.baseSeed = 43;
    expectRefused(test, "base seed");

    test = base;
    test.seedMode = "evaluation";
    expectRefused(test, "seed mode");

    test = base;
    test.warmDrivers = true;
    expectRefused(test, "driver mode");

    test = base;
    test.users = 4;
    expectRefused(test, "user axis");

    test = base;
    test.apps = {"cnn"};
    expectRefused(test, "app axis");

    test = base;
    test.schedulers = {"Interactive", "EBS"};  // order matters
    expectRefused(test, "scheduler order");

    // Scenario identity: a stress cell never diffs against the
    // baseline or another family/severity.
    test = base;
    test.scenario = "rage_tap_storm@0.5";
    expectRefused(test, "scenario vs baseline");
}

TEST(ReportDiff, DuplicateCellsRefuseToCompare)
{
    // A repeated (device, app, scheduler) key means the report is
    // malformed; silently keeping one copy would let a conflicting
    // duplicate pass an --exact gate clean.
    const FleetReport base = makeReport();
    FleetReport test = base;
    CellSummary dup = makeCell("cnn", "EBS", 99999.0);  // conflicts
    test.cells.push_back(dup);

    DiffOptions exact;
    exact.exact = true;
    DiffSummary summary = diffReports(base, test, exact);
    EXPECT_FALSE(summary.comparable);
    ASSERT_EQ(summary.problems.size(), 1u);
    EXPECT_NE(summary.problems[0].message.find("repeats cell"),
              std::string::npos);
    EXPECT_EQ(diffExitCode(summary), kExitCorrupt);

    // Base-side duplicates refuse too (they would be counted twice).
    summary = diffReports(test, base, exact);
    EXPECT_FALSE(summary.comparable);
    EXPECT_EQ(diffExitCode(summary), kExitCorrupt);

    // End-to-end: the same malformed report fed through a file, as a
    // CSV with a conflicting appended row.
    const TempDir dir("dupes");
    std::string csv = CsvReporter::toString(base);
    const size_t first_row = csv.find("Exynos 5410,cnn,EBS,");
    ASSERT_NE(first_row, std::string::npos);
    const size_t row_end = csv.find('\n', first_row);
    csv += csv.substr(first_row, row_end - first_row) + "9\n";
    writeFile(dir.path / "dup.csv", csv);
    const DiffInput input =
        loadDiffInput((dir.path / "dup.csv").string());
    ASSERT_TRUE(input.report.has_value());
    writeFile(dir.path / "ok.csv", CsvReporter::toString(base));
    const DiffInput ok = loadDiffInput((dir.path / "ok.csv").string());
    ASSERT_TRUE(ok.report.has_value());
    EXPECT_EQ(diffExitCode(diffReports(*ok.report, *input.report,
                                       exact)),
              kExitCorrupt);
}

TEST(ReportDiff, UnknownMetricFilterRefusesToCompare)
{
    DiffOptions options;
    options.metrics = {"mean_energy_mj", "no_such_metric"};
    const DiffSummary summary =
        diffReports(makeReport(), makeReport(), options);
    EXPECT_FALSE(summary.comparable);
    ASSERT_EQ(summary.problems.size(), 1u);
    EXPECT_NE(summary.problems[0].message.find("no_such_metric"),
              std::string::npos);
    EXPECT_EQ(diffExitCode(summary), kExitCorrupt);
}

TEST(ReportDiff, MetricFilterLimitsTheComparison)
{
    const FleetReport base = makeReport();
    FleetReport test = base;
    test.cells[0].meanEnergyMj = 2000.0;  // gross energy drift

    DiffOptions options;
    options.metrics = {"p95_session_latency_ms"};
    EXPECT_EQ(diffExitCode(diffReports(base, test, options)), 0);

    options.metrics = {"mean_energy_mj"};
    const DiffSummary summary = diffReports(base, test, options);
    EXPECT_EQ(diffExitCode(summary), kExitDrift);
    ASSERT_EQ(summary.cells[0].metrics.size(), 1u);
    EXPECT_EQ(summary.cells[0].metrics[0].metric, "mean_energy_mj");
}

TEST(ReportDiff, ExactModeCatchesOneUlpDrift)
{
    const FleetReport base = makeReport();
    FleetReport test = base;
    test.cells[2].p95SessionLatencyMs = std::nextafter(
        base.cells[2].p95SessionLatencyMs,
        std::numeric_limits<double>::infinity());

    // Noise-tolerant mode calls 1 ulp noise...
    EXPECT_EQ(diffExitCode(diffReports(base, test, DiffOptions{})), 0);

    // ...exact mode calls it a determinism failure and names it.
    DiffOptions exact;
    exact.exact = true;
    const DiffSummary summary = diffReports(base, test, exact);
    EXPECT_EQ(summary.regressed, 1);
    EXPECT_EQ(diffExitCode(summary), kExitDrift);
    ASSERT_EQ(summary.cells[2].metrics.size(), 1u);
    EXPECT_EQ(summary.cells[2].metrics[0].metric,
              "p95_session_latency_ms");
    EXPECT_EQ(summary.cells[2].metrics[0].outcome,
              DiffOutcome::Regressed);
}

TEST(ReportDiff, DirectionsClassifyImprovedVsRegressed)
{
    EXPECT_EQ(metricDirection("mean_energy_mj"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(metricDirection("prediction_accuracy"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(metricDirection("sessions"), MetricDirection::Structural);
    EXPECT_EQ(metricDirection("events"), MetricDirection::Structural);

    const FleetReport base = makeReport();

    // Energy dropped 10%: better, but still drift (stale baseline).
    FleetReport test = base;
    test.cells[0].meanEnergyMj = 900.0;
    DiffOptions energy_only;
    energy_only.metrics = {"mean_energy_mj"};
    DiffSummary summary = diffReports(base, test, energy_only);
    EXPECT_EQ(summary.improved, 1);
    EXPECT_EQ(summary.regressed, 0);
    EXPECT_EQ(diffExitCode(summary), kExitDrift);

    // Prediction accuracy dropped: worse.
    test = base;
    test.cells[0].predictionAccuracy = 0.5;
    DiffOptions accuracy_only;
    accuracy_only.metrics = {"prediction_accuracy"};
    summary = diffReports(base, test, accuracy_only);
    EXPECT_EQ(summary.regressed, 1);

    // A session-count change is structural: never an "improvement",
    // whichever way it moves.
    test = base;
    test.cells[0].sessions = 4;
    DiffOptions sessions_only;
    sessions_only.metrics = {"sessions"};
    summary = diffReports(base, test, sessions_only);
    EXPECT_EQ(summary.regressed, 1);
    EXPECT_EQ(summary.improved, 0);
}

TEST(ReportDiff, NanCellsAreNotMisclassified)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // NaN on both sides is identical — not drift — in both modes.
    FleetReport base = makeReport();
    base.cells[0].predictionAccuracy = nan;
    FleetReport test = base;
    test.cells[0].predictionAccuracy = std::nan("0x7ff");  // payload noise
    for (const bool exact : {false, true}) {
        DiffOptions options;
        options.exact = exact;
        const DiffSummary summary = diffReports(base, test, options);
        EXPECT_EQ(summary.identical, 4) << "exact=" << exact;
        EXPECT_EQ(diffExitCode(summary), 0) << "exact=" << exact;
    }

    // NaN against a finite value can never be "within tolerance".
    test.cells[0].predictionAccuracy = 0.9;
    const DiffSummary summary = diffReports(base, test, DiffOptions{});
    EXPECT_EQ(summary.regressed, 1);
    ASSERT_EQ(summary.cells[0].metrics.size(), 1u);
    EXPECT_TRUE(std::isnan(summary.cells[0].metrics[0].absDelta));
    EXPECT_EQ(diffExitCode(summary), kExitDrift);
}

// ------------------------------------------------- NaN/inf round trips

TEST(ReportDiff, NonFiniteValuesRoundTripThroughJsonAndCsv)
{
    FleetReport report = makeReport();
    report.cells[0].predictionAccuracy =
        std::numeric_limits<double>::quiet_NaN();
    report.cells[1].maxLatencyMs =
        std::numeric_limits<double>::infinity();
    report.cells[2].meanWasteEnergyMj =
        -std::numeric_limits<double>::infinity();

    // JSON: the document must stay parseable and decode the same
    // non-finite values (not 0.0, not a parse failure).
    const std::string json = JsonReporter::toString(report);
    EXPECT_NE(json.find("\"NaN\""), std::string::npos);
    EXPECT_NE(json.find("\"Infinity\""), std::string::npos);
    EXPECT_NE(json.find("\"-Infinity\""), std::string::npos);
    const auto parsed = JsonReporter::parse(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(std::isnan(parsed->cells[0].predictionAccuracy));
    EXPECT_TRUE(std::isinf(parsed->cells[1].maxLatencyMs));
    EXPECT_GT(parsed->cells[1].maxLatencyMs, 0.0);
    EXPECT_TRUE(std::isinf(parsed->cells[2].meanWasteEnergyMj));
    EXPECT_LT(parsed->cells[2].meanWasteEnergyMj, 0.0);

    // CSV: bare strtod-parseable tokens round-trip the same way.
    const std::string csv = CsvReporter::toString(report);
    const auto csv_report = CsvReporter::parseReport(csv);
    ASSERT_TRUE(csv_report.has_value());
    EXPECT_TRUE(std::isnan(csv_report->cells[0].predictionAccuracy));
    EXPECT_TRUE(std::isinf(csv_report->cells[1].maxLatencyMs));
    EXPECT_LT(csv_report->cells[2].meanWasteEnergyMj, 0.0);

    // And a self-diff of the round-tripped reports is clean: NaN cells
    // must not read as drift.
    EXPECT_EQ(diffExitCode(diffReports(*parsed, *csv_report,
                                       DiffOptions{})),
              0);
}

TEST(ReportDiff, CsvAndJsonOfTheSameRunDiffIdentically)
{
    // Both sinks format numbers identically, so parsing the two files
    // of one run must produce bit-equal metric values.
    const FleetReport report = makeReport();
    const auto from_json = JsonReporter::parse(
        JsonReporter::toString(report));
    const auto from_csv = CsvReporter::parseReport(
        CsvReporter::toString(report));
    ASSERT_TRUE(from_json.has_value());
    ASSERT_TRUE(from_csv.has_value());
    DiffOptions exact;
    exact.exact = true;
    const DiffSummary summary =
        diffReports(*from_json, *from_csv, exact);
    EXPECT_TRUE(summary.comparable);
    EXPECT_EQ(summary.identical, 4);
    EXPECT_EQ(diffExitCode(summary), 0);
}

// ------------------------------------------------------ diff inputs

TEST(ReportDiff, ExitCodesClassifyInputProblems)
{
    const TempDir dir("inputs");

    // Missing input -> 3.
    const DiffInput missing =
        loadDiffInput((dir.path / "nope.json").string());
    EXPECT_FALSE(missing.report.has_value());
    ASSERT_EQ(missing.problems.size(), 1u);
    EXPECT_EQ(missing.problems[0].kind,
              IntegrityProblem::Kind::MissingFile);
    EXPECT_EQ(integrityExitCode(missing.problems), kExitMissing);

    // Unparseable input -> 4.
    writeFile(dir.path / "garbage.json", "this is not a report");
    const DiffInput corrupt =
        loadDiffInput((dir.path / "garbage.json").string());
    EXPECT_FALSE(corrupt.report.has_value());
    ASSERT_EQ(corrupt.problems.size(), 1u);
    EXPECT_EQ(corrupt.problems[0].kind,
              IntegrityProblem::Kind::Corrupt);
    EXPECT_EQ(integrityExitCode(corrupt.problems), kExitCorrupt);

    // Valid JSON and CSV reports load.
    const FleetReport report = makeReport();
    writeFile(dir.path / "ok.json", JsonReporter::toString(report));
    writeFile(dir.path / "ok.csv", CsvReporter::toString(report));
    EXPECT_TRUE(loadDiffInput((dir.path / "ok.json").string())
                    .report.has_value());
    EXPECT_TRUE(loadDiffInput((dir.path / "ok.csv").string())
                    .report.has_value());
}

/** A store whose records belong to their sweep (seeds re-derived). */
std::optional<ResultStore>
makeCleanStore(const std::string &dir)
{
    SweepSpec sweep;
    sweep.baseSeed = FleetConfig::kDefaultBaseSeed;
    sweep.seedMode = "fleet";
    sweep.users = 2;
    sweep.devices = {"Exynos 5410"};
    sweep.apps = {"cnn"};
    sweep.schedulers = {"EBS", "Interactive"};

    FleetConfig seeds;
    std::vector<SessionRecord> records;
    for (const char *scheduler : {"EBS", "Interactive"}) {
        for (uint32_t user = 0; user < 2; ++user) {
            SessionRecord rec;
            rec.device = "Exynos 5410";
            rec.app = "cnn";
            rec.scheduler = scheduler;
            rec.userIndex = user;
            rec.userSeed =
                fleetUserSeed(seeds, static_cast<int>(user));
            rec.stats.events = 50 + static_cast<int>(user);
            rec.stats.violations = 2;
            rec.stats.totalEnergyMj = 1234.5678901234567 + user;
            rec.stats.durationMs = 60000.25;
            rec.stats.meanLatencyMs = 41.999999999999993;
            rec.stats.p95LatencyMs = 97.75;
            rec.stats.maxLatencyMs = 203.0;
            rec.stats.avgQueueLength = 1.5;
            records.push_back(std::move(rec));
        }
    }
    std::string error;
    auto store = ResultStore::create(dir, sweep, &error);
    if (!store)
        return std::nullopt;
    if (!store->appendPart(records, "s0", {{"writer", "test_diff"}},
                           &error))
        return std::nullopt;
    return store;
}

TEST(ReportDiff, StoreInputsDiffLikeReports)
{
    const TempDir dir("stores");
    ASSERT_TRUE(makeCleanStore((dir.path / "a").string()).has_value());
    ASSERT_TRUE(makeCleanStore((dir.path / "b").string()).has_value());

    // Store vs store: bit-exact clean (the determinism gate).
    const DiffInput a = loadDiffInput((dir.path / "a").string());
    const DiffInput b = loadDiffInput((dir.path / "b").string());
    ASSERT_TRUE(a.report.has_value())
        << (a.problems.empty() ? "" : a.problems[0].message);
    ASSERT_TRUE(b.report.has_value());
    DiffOptions exact;
    exact.exact = true;
    EXPECT_EQ(diffExitCode(diffReports(*a.report, *b.report, exact)), 0);

    // Store vs its own serialized report: %.10g formatting rounds the
    // stored full-precision doubles, so exact mode is for same-kind
    // inputs — but the default noise band must call this clean.
    writeFile(dir.path / "a.json", JsonReporter::toString(*a.report));
    const DiffInput file = loadDiffInput((dir.path / "a.json").string());
    ASSERT_TRUE(file.report.has_value());
    const DiffSummary summary =
        diffReports(*a.report, *file.report, DiffOptions{});
    EXPECT_TRUE(summary.comparable);
    EXPECT_EQ(diffExitCode(summary), 0);
}

// ------------------------------------------------- fuzz-style robustness

TEST(ReportDiff, TruncatedAndBitFlippedReportsClassifyNeverCrash)
{
    const TempDir dir("fuzz_report");
    const std::string json = JsonReporter::toString(makeReport());
    const fs::path target = dir.path / "input.json";

    // Every truncation point (section boundaries included) must yield
    // either a loaded report or a classified problem.
    for (size_t cut = 0; cut < json.size(); cut += 3) {
        writeFile(target, json.substr(0, cut));
        const DiffInput input = loadDiffInput(target.string());
        EXPECT_NE(input.report.has_value(), !input.problems.empty())
            << "cut at " << cut;
        if (!input.report) {
            EXPECT_EQ(input.problems[0].kind,
                      IntegrityProblem::Kind::Corrupt)
                << "cut at " << cut;
        }
    }

    // Bit flips: may still parse (a digit became another digit) or
    // must classify as corrupt — never crash, never half-load.
    for (size_t pos = 0; pos < json.size(); pos += 7) {
        std::string mutated = json;
        mutated[pos] ^= 0x20;
        writeFile(target, mutated);
        const DiffInput input = loadDiffInput(target.string());
        EXPECT_NE(input.report.has_value(), !input.problems.empty())
            << "flip at " << pos;
    }
}

TEST(ReportDiff, CorruptStoresClassifyNeverCrash)
{
    const TempDir dir("fuzz_store");
    const std::string store_dir = (dir.path / "store").string();
    ASSERT_TRUE(makeCleanStore(store_dir).has_value());
    const fs::path part = fs::path(store_dir) / "part-s0-0.psum";
    const std::string part_bytes = readFile(part);
    ASSERT_FALSE(part_bytes.empty());

    // Truncate the part at every section boundary (and inside each).
    const size_t cuts[] = {0, 2, 5, 10, 30, part_bytes.size() / 2,
                           part_bytes.size() - 9,
                           part_bytes.size() - 1};
    for (const size_t cut : cuts) {
        ASSERT_LT(cut, part_bytes.size());
        writeFile(part, part_bytes.substr(0, cut));
        const DiffInput input = loadDiffInput(store_dir);
        EXPECT_FALSE(input.report.has_value()) << "cut at " << cut;
        EXPECT_FALSE(input.problems.empty()) << "cut at " << cut;
        for (const IntegrityProblem &p : input.problems) {
            EXPECT_NE(p.kind, IntegrityProblem::Kind::MissingFile)
                << "cut at " << cut;
        }
    }

    // Bit-flip every 9th byte: record-count, checksum and payload
    // corruption must all classify (validate catches the mismatch
    // against the manifest row).
    for (size_t pos = 0; pos < part_bytes.size(); pos += 9) {
        std::string mutated = part_bytes;
        mutated[pos] ^= 0x11;
        writeFile(part, mutated);
        const DiffInput input = loadDiffInput(store_dir);
        EXPECT_FALSE(input.report.has_value()) << "flip at " << pos;
        EXPECT_FALSE(input.problems.empty()) << "flip at " << pos;
    }
    writeFile(part, part_bytes);

    // A deleted part is a missing-file finding (exit 3)...
    fs::remove(part);
    DiffInput input = loadDiffInput(store_dir);
    EXPECT_FALSE(input.report.has_value());
    ASSERT_FALSE(input.problems.empty());
    EXPECT_EQ(integrityExitCode(input.problems), kExitMissing);
    writeFile(part, part_bytes);

    // ...and a torn manifest is corrupt (exit 4).
    const fs::path manifest =
        fs::path(store_dir) / ResultStore::kManifestName;
    const std::string manifest_bytes = readFile(manifest);
    writeFile(manifest, manifest_bytes.substr(0, 20));
    input = loadDiffInput(store_dir);
    EXPECT_FALSE(input.report.has_value());
    ASSERT_FALSE(input.problems.empty());
    EXPECT_EQ(integrityExitCode(input.problems), kExitCorrupt);
}

// ----------------------------------------------- machine-readable output

TEST(ReportDiff, DiffJsonIsParseableAndNamesTheDrift)
{
    const FleetReport base = makeReport();
    FleetReport test = base;
    test.cells[0].meanEnergyMj = 2000.0;
    test.cells.pop_back();  // one missing cell too

    DiffOptions options;
    const DiffSummary summary = diffReports(base, test, options);
    std::ostringstream ss;
    writeDiffJson(summary, options, ss);
    const auto parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.has_value()) << ss.str();

    const JsonValue *exit_code = parsed->find("exit_code");
    ASSERT_NE(exit_code, nullptr);
    EXPECT_EQ(static_cast<int>(exit_code->number()), kExitDrift);
    const JsonValue *counts = parsed->find("summary");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(static_cast<int>(counts->find("regressed")->number()), 1);
    EXPECT_EQ(static_cast<int>(counts->find("missing")->number()), 1);
    const JsonValue *cells = parsed->find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->arr.size(), 2u);  // the drifted + the missing cell
    EXPECT_EQ(cells->arr[0].find("outcome")->str, "regressed");
    EXPECT_EQ(cells->arr[0].find("metrics")->arr[0].find("metric")->str,
              "mean_energy_mj");
    EXPECT_EQ(cells->arr[1].find("outcome")->str, "missing");
}

// --------------------------------------------------- golden baseline

/** The committed mini-sweeps, exactly as tools/regen_golden.sh runs
 *  them (keep the two in sync): @p schedulers on two apps. */
FleetConfig
goldenConfig(std::vector<SchedulerKind> schedulers = {
                 SchedulerKind::Ebs, SchedulerKind::Interactive})
{
    FleetConfig config;
    config.schedulers = std::move(schedulers);
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.users = 3;
    config.threads = 4;
    config.baseSeed = 0xf1ee7;
    return config;
}

/** Run @p config in-process and compare with the golden @p name. */
void
expectMatchesGolden(const FleetConfig &config, const std::string &name)
{
    FleetRunner runner(config);
    const FleetOutcome outcome = runner.run();
    const FleetReport report =
        makeFleetReport(runner.config(), outcome.metrics);

    const std::string dir = PES_SOURCE_DIR "/tests/data/golden/";
    const std::string golden_json = readFile(dir + name + ".json");
    const std::string golden_csv = readFile(dir + name + ".csv");
    ASSERT_FALSE(golden_json.empty())
        << "missing committed golden baseline " << name
        << "; run tools/regen_golden.sh";
    EXPECT_EQ(JsonReporter::toString(report), golden_json)
        << name << " output changed; if intentional, regenerate via "
           "`cmake --build build --target regen-golden` and commit";
    EXPECT_EQ(CsvReporter::toString(report), golden_csv);
}

TEST(GoldenBaseline, RegenerationIsByteIdentical)
{
    expectMatchesGolden(goldenConfig(), "mini_sweep");
}

TEST(GoldenBaseline, PesOracleRegenerationIsByteIdentical)
{
    expectMatchesGolden(
        goldenConfig({SchedulerKind::Pes, SchedulerKind::Oracle}),
        "mini_sweep_pes");
}

TEST(GoldenBaseline, FreshRunDiffsCleanAgainstCommittedBaseline)
{
    FleetRunner runner(goldenConfig());
    const FleetOutcome outcome = runner.run();
    const FleetReport fresh =
        makeFleetReport(runner.config(), outcome.metrics);

    const DiffInput golden = loadDiffInput(
        PES_SOURCE_DIR "/tests/data/golden/mini_sweep.json");
    ASSERT_TRUE(golden.report.has_value());

    // The in-memory fresh report vs the parsed golden file: the golden
    // side went through %.10g, so gate with the noise band here; the
    // CI byte-exact gate re-serializes before diffing.
    DiffSummary summary =
        diffReports(*golden.report, fresh, DiffOptions{});
    EXPECT_TRUE(summary.comparable);
    EXPECT_EQ(diffExitCode(summary), 0);

    // Round-tripping the fresh report through the serializer makes the
    // comparison bit-exact — byte-identical files, identical cells.
    const auto fresh_parsed =
        JsonReporter::parse(JsonReporter::toString(fresh));
    ASSERT_TRUE(fresh_parsed.has_value());
    DiffOptions exact;
    exact.exact = true;
    summary = diffReports(*golden.report, *fresh_parsed, exact);
    EXPECT_EQ(summary.identical,
              static_cast<int>(golden.report->cells.size()));
    EXPECT_EQ(diffExitCode(summary), 0);
}

} // namespace
} // namespace pes
