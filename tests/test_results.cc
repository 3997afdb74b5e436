/**
 * @file
 * Tests for the result-persistence subsystem: .psum round-trip
 * fidelity, failure diagnostics (truncation, corruption, version skew,
 * missing parts), the ResultStore manifest and merge, deterministic
 * reduction, and the fleet-level guarantees — JSON/CSV reports are
 * byte-identical across (a) a single whole run, (b) a sharded run plus
 * merge, and (c) a killed-and-resumed run, at any thread count, and
 * trace-cache eviction never changes report bytes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "results/result_format.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "telemetry/telemetry.hh"
#include "trace/app_profile.hh"

namespace fs = std::filesystem;

namespace pes {
namespace {

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(fs::temp_directory_path() / ("pes_results_test_" + name))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }

    fs::path path;
};

SessionRecord
makeRecord(const std::string &scheduler = "ebs", uint32_t user = 0)
{
    SessionRecord rec;
    rec.device = "Exynos 5410";
    rec.app = "cnn";
    rec.scheduler = scheduler;
    rec.userIndex = user;
    rec.userSeed = 0x9e3779b97f4a7c15ull + user;
    rec.stats.events = 37;
    rec.stats.violations = 3;
    rec.stats.totalEnergyMj = 1234.5678901234567;
    rec.stats.busyEnergyMj = 1000.1;
    rec.stats.idleEnergyMj = 200.0000000000002;
    rec.stats.overheadEnergyMj = 4.25;
    rec.stats.wasteEnergyMj = 30.125;
    rec.stats.durationMs = 60000.5;
    rec.stats.meanLatencyMs = 41.999999999999993;  // not representable
    rec.stats.p95LatencyMs = 97.75;
    rec.stats.maxLatencyMs = 203.0;
    rec.stats.predictionsMade = 30;
    rec.stats.predictionsCorrect = 26;
    rec.stats.mispredictions = 4;
    rec.stats.mispredictWasteMs = 17.375;
    rec.stats.avgQueueLength = 1.6180339887498949;
    rec.stats.fellBackToReactive = user % 2 == 1;
    return rec;
}

PsumParams
testParams()
{
    return {{"writer", "unit test"}, {"shard", "0/1"}};
}

SweepSpec
testSweep(int users = 2)
{
    SweepSpec sweep;
    sweep.baseSeed = FleetConfig::kDefaultBaseSeed;
    sweep.seedMode = "fleet";
    sweep.users = users;
    sweep.devices = {"Exynos 5410"};
    sweep.apps = {"cnn"};
    sweep.schedulers = {"interactive", "ebs"};
    return sweep;
}

// --------------------------------------------------- .psum round trips

TEST(PsumFormat, RoundTripPreservesEveryField)
{
    std::vector<SessionRecord> records;
    records.push_back(makeRecord("ebs", 0));
    records.push_back(makeRecord("interactive", 1));
    const PsumParams params = testParams();

    PsumReader reader;
    ASSERT_TRUE(reader.openBytes(PsumWriter::toBytes(records, params)))
        << reader.error();
    EXPECT_EQ(reader.header().version, kPsumVersion);
    EXPECT_EQ(reader.header().params, params);
    EXPECT_EQ(reader.header().recordCount, records.size());
    EXPECT_EQ(reader.header().recordsChecksum,
              recordsChecksum(records));

    const auto loaded = reader.readRecords();
    ASSERT_TRUE(loaded.has_value()) << reader.error();
    ASSERT_EQ(loaded->size(), records.size());
    // Exact equality: every double survives as its bit pattern.
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_TRUE((*loaded)[i] == records[i]) << "record " << i;
}

TEST(PsumFormat, EmptyBatchRoundTrips)
{
    PsumReader reader;
    ASSERT_TRUE(reader.openBytes(PsumWriter::toBytes({}, {})))
        << reader.error();
    EXPECT_EQ(reader.header().recordCount, 0u);
    const auto loaded = reader.readRecords();
    ASSERT_TRUE(loaded.has_value()) << reader.error();
    EXPECT_TRUE(loaded->empty());
}

TEST(PsumFormat, TruncationFailsCleanlyAtEveryBoundary)
{
    const std::string bytes =
        PsumWriter::toBytes({makeRecord("ebs", 0), makeRecord("ebs", 1)},
                            testParams());
    // Cut inside every section: magic, version, head, records payload,
    // trailing checksum.
    const size_t cuts[] = {0, 2, 5, 10, 30, bytes.size() / 2,
                           bytes.size() - 9, bytes.size() - 1};
    for (const size_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        PsumReader reader;
        if (reader.openBytes(bytes.substr(0, cut))) {
            // Head may parse when the cut lands in the records payload;
            // decoding must then fail instead.
            EXPECT_FALSE(reader.readRecords().has_value())
                << "cut at " << cut;
        }
        EXPECT_FALSE(reader.error().empty()) << "cut at " << cut;
    }
}

TEST(PsumFormat, RecordsChecksumMismatchDetected)
{
    std::string bytes = PsumWriter::toBytes({makeRecord()}, testParams());
    bytes[bytes.size() - 12] ^= 0x40;  // inside the records payload

    PsumReader reader;
    ASSERT_TRUE(reader.openBytes(bytes)) << reader.error();
    EXPECT_FALSE(reader.readRecords().has_value());
    EXPECT_NE(reader.error().find("checksum"), std::string::npos)
        << reader.error();
}

TEST(PsumFormat, HeadChecksumMismatchDetected)
{
    std::string bytes = PsumWriter::toBytes({makeRecord()}, testParams());
    bytes[14] ^= 0x01;  // inside the head payload

    PsumReader reader;
    EXPECT_FALSE(reader.openBytes(bytes));
    EXPECT_FALSE(reader.error().empty());
}

TEST(PsumFormat, VersionSkewRejectedWithDiagnostic)
{
    std::string bytes = PsumWriter::toBytes({makeRecord()}, testParams());
    bytes[4] = static_cast<char>(kPsumVersion + 1);

    PsumReader reader;
    EXPECT_FALSE(reader.openBytes(bytes));
    EXPECT_NE(reader.error().find("version"), std::string::npos)
        << reader.error();
}

TEST(PsumFormat, BadMagicRejected)
{
    std::string bytes = PsumWriter::toBytes({makeRecord()}, testParams());
    bytes[0] = 'X';

    PsumReader reader;
    EXPECT_FALSE(reader.openBytes(bytes));
    EXPECT_NE(reader.error().find("magic"), std::string::npos)
        << reader.error();
}

// -------------------------------------------------------- ResultStore

TEST(ResultStore, AppendStreamsAndSurvivesReopen)
{
    const TempDir dir("append");
    std::string error;
    auto store = ResultStore::create(dir.str(), testSweep(), &error);
    ASSERT_TRUE(store.has_value()) << error;

    ASSERT_TRUE(store->appendPart({makeRecord("interactive", 0),
                                   makeRecord("interactive", 1)},
                                  "s0", testParams(), &error))
        << error;
    ASSERT_TRUE(store->appendPart({makeRecord("ebs", 0)}, "s0",
                                  testParams(), &error))
        << error;
    // Empty batches are ignored, not errors.
    ASSERT_TRUE(store->appendPart({}, "s0", testParams(), &error));
    EXPECT_EQ(store->parts().size(), 2u);
    EXPECT_EQ(store->recordCount(), 3u);

    auto reopened = ResultStore::open(dir.str(), &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    EXPECT_TRUE(reopened->sweep() == testSweep());
    EXPECT_EQ(reopened->recordCount(), 3u);

    int seen = 0;
    ASSERT_TRUE(reopened->forEachRecord(
        [&](const SessionRecord &rec) {
            EXPECT_EQ(rec.app, "cnn");
            ++seen;
            return true;
        },
        &error))
        << error;
    EXPECT_EQ(seen, 3);

    std::vector<StoreProblem> problems;
    EXPECT_TRUE(reopened->validate(problems)) << problems.size();
}

TEST(ResultStore, ValidateClassifiesMissingVsCorruptVsMismatch)
{
    const TempDir dir("classify");
    std::string error;
    auto store = ResultStore::create(dir.str(), testSweep(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    ASSERT_TRUE(store->appendPart({makeRecord("ebs", 0)}, "a",
                                  testParams(), &error));
    ASSERT_TRUE(store->appendPart({makeRecord("ebs", 1)}, "b",
                                  testParams(), &error));
    ASSERT_TRUE(store->appendPart({makeRecord("interactive", 0)}, "c",
                                  testParams(), &error));

    fs::remove(dir.path / "part-a-0.psum");
    {
        std::ofstream os(dir.path / "part-b-0.psum",
                         std::ios::binary | std::ios::trunc);
        os << "not a psum file";
    }
    // Swap part c's content for a valid but different batch: parses
    // fine, disagrees with the manifest checksum.
    ASSERT_TRUE(PsumWriter::writeFile({makeRecord("interactive", 1)},
                                      testParams(),
                                      (dir.path / "part-c-0.psum")
                                          .string(),
                                      &error))
        << error;

    auto reopened = ResultStore::open(dir.str(), &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    std::vector<StoreProblem> problems;
    EXPECT_FALSE(reopened->validate(problems));
    ASSERT_EQ(problems.size(), 3u);
    EXPECT_EQ(problems[0].kind, StoreProblem::Kind::MissingFile);
    EXPECT_NE(problems[0].message.find("missing"), std::string::npos);
    EXPECT_EQ(problems[1].kind, StoreProblem::Kind::Corrupt);
    EXPECT_EQ(problems[2].kind, StoreProblem::Kind::Mismatch);
}

TEST(ResultStore, ValidateClassifiesOrphanedParts)
{
    const TempDir dir("orphan");
    std::string error;
    auto store = ResultStore::create(dir.str(), testSweep(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    ASSERT_TRUE(store->appendPart({makeRecord("ebs", 0)}, "a",
                                  testParams(), &error));

    // A crash between a part write and the manifest save leaves a
    // healthy .psum on disk with no row indexing it.
    ASSERT_TRUE(PsumWriter::writeFile({makeRecord("ebs", 1)},
                                      testParams(),
                                      (dir.path / "part-lost.psum")
                                          .string(),
                                      &error))
        << error;

    std::vector<StoreProblem> problems;
    EXPECT_FALSE(store->validate(problems));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_EQ(problems[0].kind, StoreProblem::Kind::Orphaned);
    EXPECT_NE(problems[0].message.find("part-lost.psum"),
              std::string::npos);
    // Orphans mean content needs reconciling, not re-syncing files.
    EXPECT_EQ(integrityExitCode(problems), kExitCorrupt);
}

TEST(ResultStore, OpenAdoptsReadableOrphansAndRemovesTornOnes)
{
    const TempDir dir("adopt");
    std::string error;
    auto store = ResultStore::create(dir.str(), testSweep(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    ASSERT_TRUE(store->appendPart({makeRecord("ebs", 0)}, "a",
                                  testParams(), &error));

    // One healthy orphan (crash after the write completed) and one
    // torn orphan (crash mid-write / trailing garbage).
    ASSERT_TRUE(PsumWriter::writeFile({makeRecord("ebs", 1)},
                                      testParams(),
                                      (dir.path / "part-lost.psum")
                                          .string(),
                                      &error))
        << error;
    {
        std::ofstream os(dir.path / "part-torn.psum",
                         std::ios::binary | std::ios::trunc);
        os << "half a checkpoint";
    }

    auto reopened = ResultStore::open(dir.str(), &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    std::vector<StoreProblem> problems;
    EXPECT_TRUE(reopened->validate(problems))
        << (problems.empty() ? "" : problems[0].message);
    EXPECT_EQ(reopened->recordCount(), 2u);  // orphan adopted
    EXPECT_FALSE(fs::exists(dir.path / "part-torn.psum"));

    // The adopted record is readable content, not just a row.
    int seen = 0;
    ASSERT_TRUE(reopened->forEachRecord(
        [&](const SessionRecord &) {
            ++seen;
            return true;
        },
        &error))
        << error;
    EXPECT_EQ(seen, 2);
}

TEST(ResultStore, ConcurrentAppendersAllLandInTheManifest)
{
    // Multi-writer crash-safety: appendPart reloads the manifest under
    // the store lock, so writers that interleave never clobber each
    // other's rows (the coordinator's workers share one store).
    const TempDir dir("multiwriter");
    std::string error;
    auto a = ResultStore::create(dir.str(), testSweep(), &error);
    ASSERT_TRUE(a.has_value()) << error;
    auto b = ResultStore::open(dir.str(), &error);
    ASSERT_TRUE(b.has_value()) << error;

    ASSERT_TRUE(a->appendPart({makeRecord("ebs", 0)}, "w1",
                              testParams(), &error))
        << error;
    // b's in-memory manifest predates a's append; its own append must
    // preserve a's row anyway.
    ASSERT_TRUE(b->appendPart({makeRecord("ebs", 1)}, "w2",
                              testParams(), &error))
        << error;
    ASSERT_TRUE(a->appendPart({makeRecord("interactive", 0)}, "w1",
                              testParams(), &error))
        << error;

    auto reopened = ResultStore::open(dir.str(), &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    EXPECT_EQ(reopened->parts().size(), 3u);
    EXPECT_EQ(reopened->recordCount(), 3u);
    std::vector<StoreProblem> problems;
    EXPECT_TRUE(reopened->validate(problems))
        << (problems.empty() ? "" : problems[0].message);
}

TEST(ResultStore, PublishFenceBlocksZombieAppends)
{
    const TempDir dir("fence");
    std::string error;
    auto store = ResultStore::create(dir.str(), testSweep(), &error);
    ASSERT_TRUE(store.has_value()) << error;

    store->setPublishFence([](std::string *why) {
        *why = "range 3 no longer owned";
        return false;
    });
    EXPECT_FALSE(store->appendPart({makeRecord("ebs", 0)}, "z",
                                   testParams(), &error));
    EXPECT_NE(error.find("lease fenced"), std::string::npos) << error;
    EXPECT_EQ(store->parts().size(), 0u);

    // The refused part file must not linger as an orphan.
    std::vector<StoreProblem> problems;
    EXPECT_TRUE(store->validate(problems))
        << (problems.empty() ? "" : problems[0].message);

    store->setPublishFence({});
    EXPECT_TRUE(store->appendPart({makeRecord("ebs", 0)}, "z",
                                  testParams(), &error))
        << error;
    EXPECT_EQ(store->parts().size(), 1u);
}

TEST(ResultStore, CreateAndMergeRejectDifferentSweeps)
{
    const TempDir dir("sweepguard");
    std::string error;
    auto store = ResultStore::create(dir.str(), testSweep(2), &error);
    ASSERT_TRUE(store.has_value()) << error;

    // Re-creating over the same directory with other axes must fail.
    EXPECT_FALSE(
        ResultStore::create(dir.str(), testSweep(3), &error).has_value());
    EXPECT_NE(error.find("different"), std::string::npos) << error;

    const TempDir other("sweepguard2");
    auto foreign = ResultStore::create(other.str(), testSweep(3), &error);
    ASSERT_TRUE(foreign.has_value()) << error;
    EXPECT_FALSE(store->mergeFrom(*foreign, &error));
    EXPECT_NE(error.find("different"), std::string::npos) << error;
}

TEST(ResultReduce, DeduplicatesReRunsAndFlagsConflicts)
{
    const TempDir dir("dedup");
    std::string error;
    // Seeds must match the sweep population for reduction to accept
    // the records.
    FleetConfig seeds;
    const SweepSpec sweep = testSweep(2);
    const auto seeded = [&](const std::string &scheduler, uint32_t user) {
        SessionRecord rec = makeRecord(scheduler, user);
        rec.userSeed = fleetUserSeed(seeds, static_cast<int>(user));
        return rec;
    };
    auto store = ResultStore::create(dir.str(), sweep, &error);
    ASSERT_TRUE(store.has_value()) << error;
    ASSERT_TRUE(store->appendPart({seeded("interactive", 0),
                                   seeded("interactive", 1),
                                   seeded("ebs", 0), seeded("ebs", 1)},
                                  "s0", testParams(), &error));
    // An identical re-run (killed-run checkpoint overlap) deduplicates
    // silently.
    ASSERT_TRUE(store->appendPart({seeded("ebs", 1)}, "s0", testParams(),
                                  &error));

    StoreReduction reduction;
    ASSERT_TRUE(reduceStore(*store, reduction, &error)) << error;
    EXPECT_EQ(reduction.sessions, 4u);
    EXPECT_EQ(reduction.duplicates, 1u);
    EXPECT_EQ(reduction.missing, 0u);
    EXPECT_TRUE(reduction.problems.empty());
    EXPECT_EQ(reduction.metrics.sessions(), 4);

    // A conflicting duplicate (same key, different stats) is flagged:
    // deterministic re-runs can never produce one.
    SessionRecord conflict = seeded("ebs", 0);
    conflict.stats.totalEnergyMj += 1.0;
    ASSERT_TRUE(store->appendPart({conflict}, "s0", testParams(),
                                  &error));
    StoreReduction again;
    ASSERT_TRUE(reduceStore(*store, again, &error)) << error;
    EXPECT_EQ(again.duplicates, 2u);
    ASSERT_EQ(again.problems.size(), 1u);
    EXPECT_NE(again.problems[0].find("conflict"), std::string::npos);
}

TEST(ResultReduce, ReportsRecordsOutsideTheSweep)
{
    const TempDir dir("foreign");
    std::string error;
    auto store = ResultStore::create(dir.str(), testSweep(1), &error);
    ASSERT_TRUE(store.has_value()) << error;
    SessionRecord rec = makeRecord("oracle", 0);  // not a sweep scheduler
    ASSERT_TRUE(store->appendPart({rec}, "s0", testParams(), &error));

    StoreReduction reduction;
    ASSERT_TRUE(reduceStore(*store, reduction, &error)) << error;
    EXPECT_EQ(reduction.sessions, 0u);
    ASSERT_EQ(reduction.problems.size(), 1u);
    EXPECT_NE(reduction.problems[0].find("cross-product"),
              std::string::npos);
    // Both sweep cells have no valid records at all.
    EXPECT_EQ(reduction.missing, 2u);
}

// ------------------------------------------- fleet-level byte fidelity

FleetConfig
fidelityFleet()
{
    FleetConfig config;
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.schedulers = {SchedulerKind::Interactive, SchedulerKind::Ebs};
    config.users = 3;
    config.threads = 4;
    return config;
}

std::string
reportBytes(const FleetConfig &config, const MetricsAggregator &metrics)
{
    return JsonReporter::toString(makeFleetReport(config, metrics)) +
        CsvReporter::toString(makeFleetReport(config, metrics));
}

std::string
storeReportBytes(const ResultStore &store)
{
    StoreReduction reduction;
    std::string error;
    EXPECT_TRUE(reduceStore(store, reduction, &error)) << error;
    EXPECT_TRUE(reduction.problems.empty());
    return JsonReporter::toString(
               makeStoreReport(store, reduction.metrics)) +
        CsvReporter::toString(makeStoreReport(store, reduction.metrics));
}

TEST(FleetResults, ShardedRunsMergeToTheWholeRunBytes)
{
    for (const bool warm : {false, true}) {
        FleetConfig whole = fidelityFleet();
        whole.warmDrivers = warm;
        FleetRunner whole_runner(whole);
        const std::string whole_bytes =
            reportBytes(whole_runner.config(),
                        whole_runner.run().metrics);

        // The same sweep as three shards on "three machines" (distinct
        // stores, different thread counts), then merged.
        const TempDir dir(warm ? "shards_warm" : "shards");
        std::string error;
        std::vector<std::string> shard_dirs;
        for (int k = 0; k < 3; ++k) {
            FleetConfig shard = fidelityFleet();
            shard.warmDrivers = warm;
            shard.shardIndex = k;
            shard.shardCount = 3;
            shard.threads = 1 + k;
            shard.checkpointEvery = 2;
            const std::string shard_dir =
                (dir.path / ("s" + std::to_string(k))).string();
            auto store = ResultStore::create(
                shard_dir, SweepSpec::fromConfig(shard), &error);
            ASSERT_TRUE(store.has_value()) << error;
            shard.resultStore = &*store;
            FleetRunner runner(shard);
            const FleetOutcome outcome = runner.run();
            EXPECT_TRUE(outcome.diagnostics.empty());
            EXPECT_GT(outcome.persistedRecords, 0u);
            shard_dirs.push_back(shard_dir);
        }

        auto merged = ResultStore::create(
            (dir.path / "merged").string(),
            SweepSpec::fromConfig(whole), &error);
        ASSERT_TRUE(merged.has_value()) << error;
        for (const std::string &shard_dir : shard_dirs) {
            auto src = ResultStore::open(shard_dir, &error);
            ASSERT_TRUE(src.has_value()) << error;
            ASSERT_TRUE(merged->mergeFrom(*src, &error)) << error;
        }
        EXPECT_EQ(merged->recordCount(),
                  static_cast<uint64_t>(whole_runner.jobs().size()));
        EXPECT_EQ(storeReportBytes(*merged), whole_bytes)
            << (warm ? "warm" : "fresh");
    }
}

TEST(FleetResults, ResumeSkipsCompletedJobsAndReproducesTheWholeRun)
{
    FleetConfig whole = fidelityFleet();
    FleetRunner whole_runner(whole);
    const std::string whole_bytes =
        reportBytes(whole_runner.config(), whole_runner.run().metrics);
    const int total = static_cast<int>(whole_runner.jobs().size());

    // "Kill" a sweep partway: execute only shard 0 of 2 into the store
    // (checkpointing every session), as an interrupted run would have.
    const TempDir dir("resume");
    std::string error;
    FleetConfig partial = fidelityFleet();
    partial.shardIndex = 0;
    partial.shardCount = 2;
    partial.checkpointEvery = 1;
    auto store = ResultStore::create(dir.str(),
                                     SweepSpec::fromConfig(partial),
                                     &error);
    ASSERT_TRUE(store.has_value()) << error;
    partial.resultStore = &*store;
    FleetRunner partial_runner(partial);
    const FleetOutcome partial_outcome = partial_runner.run();
    EXPECT_TRUE(partial_outcome.diagnostics.empty());
    const int done = partial_outcome.jobCount;
    ASSERT_GT(done, 0);
    ASSERT_LT(done, total);

    // Resume the WHOLE sweep against the same store: the plan must
    // skip exactly the persisted sessions and execute the rest.
    FleetConfig rest = fidelityFleet();
    rest.resume = true;
    rest.checkpointEvery = 1;
    auto reopened = ResultStore::open(dir.str(), &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    rest.resultStore = &*reopened;
    FleetRunner rest_runner(rest);
    const FleetPlan plan = rest_runner.plan();
    EXPECT_EQ(plan.resumeSkipped, done);
    EXPECT_EQ(plan.plannedJobs, total - done);

    const FleetOutcome rest_outcome = rest_runner.run();
    EXPECT_TRUE(rest_outcome.diagnostics.empty());
    EXPECT_EQ(rest_outcome.jobCount, total - done);
    // The resumed run reduces FROM the store, so its own metrics
    // already cover the whole sweep...
    EXPECT_EQ(reportBytes(rest_runner.config(), rest_outcome.metrics),
              whole_bytes);
    // ...and so does an after-the-fact reduction of the store.
    EXPECT_EQ(storeReportBytes(*reopened), whole_bytes);

    // Resuming again is a no-op: everything is already persisted.
    FleetConfig again = fidelityFleet();
    again.resume = true;
    again.resultStore = &*reopened;
    FleetRunner again_runner(again);
    EXPECT_EQ(again_runner.plan().plannedJobs, 0);
    const FleetOutcome noop = again_runner.run();
    EXPECT_EQ(noop.jobCount, 0);
    EXPECT_EQ(reportBytes(again_runner.config(), noop.metrics),
              whole_bytes);
}

TEST(FleetResults, TraceCacheEvictionNeverChangesReportBytes)
{
    FleetConfig unbounded = fidelityFleet();
    FleetRunner unbounded_runner(unbounded);
    const std::string unbounded_bytes = reportBytes(
        unbounded_runner.config(), unbounded_runner.run().metrics);

    FleetConfig capped = fidelityFleet();
    capped.traceCacheCap = 2;  // 6 distinct traces in this sweep
    TelemetryRegistry telemetry;
    capped.telemetry = &telemetry;
    FleetRunner capped_runner(capped);
    const FleetOutcome outcome = capped_runner.run();
    EXPECT_GT(telemetry.snapshot().counter("cache.evictions"), 0u);
    EXPECT_EQ(reportBytes(capped_runner.config(), outcome.metrics),
              unbounded_bytes);
}

} // namespace
} // namespace pes
