/**
 * @file
 * Tests for the trace-corpus subsystem: .ptrc round-trip fidelity,
 * failure diagnostics (truncation, corruption, version skew, missing
 * files), the CorpusStore manifest, the TraceCache, deterministic
 * mutation, and the two fleet-level guarantees — corpus replay and
 * shared-trace sweeps produce byte-identical reports to per-job live
 * synthesis.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "corpus/corpus_store.hh"
#include "corpus/trace_cache.hh"
#include "corpus/trace_mutator.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "trace/generator.hh"

namespace fs = std::filesystem;

namespace pes {
namespace {

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(fs::temp_directory_path() / ("pes_corpus_test_" + name))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }

    fs::path path;
};

/** The shared test platform (TraceGenerator holds a pointer into it). */
const AcmpPlatform &
exynos()
{
    static const AcmpPlatform platform = AcmpPlatform::exynos5410();
    return platform;
}

InteractionTrace
makeTrace(const std::string &app = "cnn", uint64_t seed = 42)
{
    TraceGenerator generator(exynos());
    return generator.generate(appByName(app), seed);
}

TraceProvenance
exynosProvenance()
{
    TraceProvenance provenance;
    provenance.device = exynos().name();
    provenance.params = {{"source", "synthetic"}, {"note", "unit test"}};
    return provenance;
}

// --------------------------------------------------- .ptrc round trips

TEST(TraceFormat, RoundTripPreservesEveryField)
{
    const InteractionTrace trace = makeTrace();
    ASSERT_GT(trace.events.size(), 0u);
    const TraceProvenance provenance = exynosProvenance();

    TraceReader reader;
    ASSERT_TRUE(reader.openBytes(TraceWriter::toBytes(trace, provenance)))
        << reader.error();
    EXPECT_EQ(reader.header().version, kPtrcVersion);
    EXPECT_EQ(reader.header().app, trace.appName);
    EXPECT_EQ(reader.header().userSeed, trace.userSeed);
    EXPECT_EQ(reader.header().provenance.device, provenance.device);
    EXPECT_EQ(reader.header().provenance.params, provenance.params);
    EXPECT_EQ(reader.header().eventCount, trace.events.size());
    EXPECT_EQ(reader.header().eventsChecksum, traceChecksum(trace));

    const auto loaded = reader.readTrace();
    ASSERT_TRUE(loaded.has_value()) << reader.error();
    // Exact equality: every double survives as its bit pattern.
    EXPECT_TRUE(*loaded == trace);
}

TEST(TraceFormat, EmptyTraceRoundTrips)
{
    InteractionTrace trace;
    trace.appName = "cnn";
    trace.userSeed = 7;

    TraceReader reader;
    ASSERT_TRUE(
        reader.openBytes(TraceWriter::toBytes(trace, exynosProvenance())))
        << reader.error();
    EXPECT_EQ(reader.header().eventCount, 0u);
    const auto loaded = reader.readTrace();
    ASSERT_TRUE(loaded.has_value()) << reader.error();
    EXPECT_TRUE(*loaded == trace);
}

TEST(TraceFormat, TruncationFailsCleanlyAtEveryBoundary)
{
    const std::string bytes =
        TraceWriter::toBytes(makeTrace(), exynosProvenance());
    // Cut inside every section: magic, version, provenance, events
    // payload, trailing checksum.
    const size_t cuts[] = {0, 2, 5, 10, 30, bytes.size() / 2,
                           bytes.size() - 9, bytes.size() - 1};
    for (const size_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        TraceReader reader;
        if (reader.openBytes(bytes.substr(0, cut))) {
            EXPECT_FALSE(reader.readTrace().has_value())
                << "cut at " << cut << " parsed fully";
        }
        EXPECT_FALSE(reader.error().empty()) << "cut at " << cut;
    }
}

TEST(TraceFormat, EventChecksumMismatchDetected)
{
    std::string bytes =
        TraceWriter::toBytes(makeTrace(), exynosProvenance());
    // Flip one byte inside the events payload (just before the final
    // 8-byte checksum); the header still parses, decoding must not.
    bytes[bytes.size() - 10] ^= 0x01;
    TraceReader reader;
    ASSERT_TRUE(reader.openBytes(bytes)) << reader.error();
    EXPECT_FALSE(reader.readTrace().has_value());
    EXPECT_NE(reader.error().find("checksum"), std::string::npos)
        << reader.error();
}

TEST(TraceFormat, ProvenanceChecksumMismatchDetected)
{
    std::string bytes =
        TraceWriter::toBytes(makeTrace(), exynosProvenance());
    bytes[14] ^= 0x40;  // inside the provenance payload
    TraceReader reader;
    EXPECT_FALSE(reader.openBytes(bytes));
    EXPECT_FALSE(reader.error().empty());
}

TEST(TraceFormat, VersionSkewRejectedWithDiagnostic)
{
    std::string bytes =
        TraceWriter::toBytes(makeTrace(), exynosProvenance());
    bytes[4] = 99;  // little-endian version field follows the magic
    TraceReader reader;
    EXPECT_FALSE(reader.openBytes(bytes));
    EXPECT_NE(reader.error().find("version"), std::string::npos)
        << reader.error();
}

TEST(TraceFormat, CorruptEventCountRejectedAtOpen)
{
    const std::string good =
        TraceWriter::toBytes(makeTrace(), exynosProvenance());
    // Locate the event-count field: magic + version + provLen field +
    // provenance payload + its checksum + events length field.
    uint32_t prov_len = 0;
    for (int i = 0; i < 4; ++i)
        prov_len |= static_cast<uint32_t>(
                        static_cast<uint8_t>(good[8 + i]))
            << (8 * i);
    const size_t count_pos = 4 + 4 + 4 + prov_len + 8 + 8;

    // A huge count must fail at open() with a diagnostic — not reach
    // readTrace() and drive a giant allocation.
    std::string huge = good;
    for (int i = 0; i < 8; ++i)
        huge[count_pos + static_cast<size_t>(i)] = '\x7f';
    TraceReader reader;
    EXPECT_FALSE(reader.openBytes(huge));
    EXPECT_FALSE(reader.error().empty());

    // An off-by-one count (still plausible-looking) must fail the
    // fixed-width length cross-check.
    std::string off = good;
    off[count_pos] = static_cast<char>(
        static_cast<uint8_t>(off[count_pos]) + 1);
    TraceReader reader2;
    EXPECT_FALSE(reader2.openBytes(off));
    EXPECT_NE(reader2.error().find("count"), std::string::npos)
        << reader2.error();
}

TEST(TraceFormat, BadMagicRejected)
{
    std::string bytes =
        TraceWriter::toBytes(makeTrace(), exynosProvenance());
    bytes[0] = 'X';
    TraceReader reader;
    EXPECT_FALSE(reader.openBytes(bytes));
    EXPECT_NE(reader.error().find("magic"), std::string::npos)
        << reader.error();
}

// --------------------------------------------------------- CorpusStore

TEST(CorpusStore, AddFindLoadAcrossReopen)
{
    const TempDir dir("store");
    const InteractionTrace t1 = makeTrace("cnn", 42);
    const InteractionTrace t2 = makeTrace("social_feed", 43);
    {
        std::string error;
        auto store = CorpusStore::create(dir.str(), &error);
        ASSERT_TRUE(store.has_value()) << error;
        ASSERT_TRUE(store->add(t1, exynosProvenance(), &error)) << error;
        ASSERT_TRUE(store->add(t2, exynosProvenance(), &error)) << error;
        ASSERT_TRUE(store->save(&error)) << error;
    }

    std::string error;
    const auto store = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    ASSERT_EQ(store->entries().size(), 2u);
    // Canonical (app, device, seed) order.
    EXPECT_EQ(store->entries()[0].app, "cnn");
    EXPECT_EQ(store->entries()[1].app, "social_feed");

    const CorpusEntry *entry =
        store->find("cnn", AcmpPlatform::exynos5410().name(), 42);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->eventCount, t1.events.size());
    EXPECT_EQ(entry->checksum, traceChecksum(t1));

    const auto loaded = store->load(*entry, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(*loaded == t1);

    EXPECT_EQ(store->find("cnn", "nope", 42), nullptr);
    EXPECT_EQ(store->find("cnn", entry->device, 999), nullptr);

    // Streaming iteration visits every entry in order.
    std::vector<std::string> seen;
    ASSERT_TRUE(store->forEach(
        [&](const CorpusEntry &e, const InteractionTrace &t) {
            seen.push_back(e.app);
            EXPECT_EQ(t.appName, e.app);
            return true;
        },
        &error))
        << error;
    EXPECT_EQ(seen, (std::vector<std::string>{"cnn", "social_feed"}));
}

TEST(CorpusStore, RejectsSlugCollisionsBetweenDistinctKeys)
{
    const TempDir dir("slug_collision");
    std::string error;
    auto store = CorpusStore::create(dir.str(), &error);
    ASSERT_TRUE(store.has_value()) << error;

    const InteractionTrace original = makeTrace("cnn", 42);
    ASSERT_TRUE(store->add(original, exynosProvenance(), &error))
        << error;

    // Same lossy file slug, different key: the add must fail instead
    // of silently overwriting the first recording's file.
    InteractionTrace imposter = makeTrace("cnn", 42);
    imposter.appName = "CNN";
    EXPECT_FALSE(store->add(imposter, exynosProvenance(), &error));
    EXPECT_NE(error.find("collision"), std::string::npos) << error;

    // The original recording is intact.
    const CorpusEntry *entry = store->find("cnn", exynos().name(), 42);
    ASSERT_NE(entry, nullptr);
    const auto loaded = store->load(*entry, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(*loaded == original);
}

TEST(CorpusStore, ManifestReferencingMissingFileFailsCleanly)
{
    const TempDir dir("missing");
    std::string error;
    auto store = CorpusStore::create(dir.str(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    ASSERT_TRUE(store->add(makeTrace(), exynosProvenance(), &error));
    ASSERT_TRUE(store->save(&error)) << error;

    fs::remove(dir.path / store->entries()[0].file);

    std::vector<std::string> problems;
    EXPECT_FALSE(store->validate(problems));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("missing"), std::string::npos)
        << problems[0];

    EXPECT_FALSE(store->load(store->entries()[0], &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(CorpusStore, ValidateCatchesCorruptTraceFile)
{
    const TempDir dir("corrupt");
    std::string error;
    auto store = CorpusStore::create(dir.str(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    ASSERT_TRUE(store->add(makeTrace(), exynosProvenance(), &error));
    ASSERT_TRUE(store->save(&error)) << error;

    // Flip a byte in the middle of the recorded file.
    const fs::path file = dir.path / store->entries()[0].file;
    std::fstream io(file,
                    std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(io.is_open());
    io.seekp(static_cast<std::streamoff>(fs::file_size(file) / 2));
    io.put('\xff');
    io.close();

    std::vector<std::string> problems;
    EXPECT_FALSE(store->validate(problems));
    ASSERT_GE(problems.size(), 1u);
}

TEST(CorpusStore, OpenRejectsMissingDirectoryAndManifest)
{
    std::string error;
    EXPECT_FALSE(
        CorpusStore::open("/nonexistent/corpus/dir", &error).has_value());
    EXPECT_FALSE(error.empty());

    const TempDir dir("nomanifest");
    error.clear();
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error).has_value());
    EXPECT_NE(error.find("manifest"), std::string::npos) << error;
}

TEST(CorpusStore, MalformedManifestRejected)
{
    const TempDir dir("badmanifest");
    {
        std::ofstream os(dir.path / CorpusStore::kManifestName);
        os << "{\"version\": 999, \"traces\": []}";
    }
    std::string error;
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    {
        std::ofstream os(dir.path / CorpusStore::kManifestName);
        os << "not json at all";
    }
    error.clear();
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error).has_value());
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------- TraceCache

TEST(TraceCache, SynthesizesOncePerKeyAndSharesPointers)
{
    TraceCache cache;
    TraceGenerator generator(exynos());
    const std::string device = exynos().name();
    const AppProfile &profile = appByName("cnn");

    const TraceHandle a = cache.getOrGenerate(device, profile, 42,
                                              generator);
    const TraceHandle b = cache.getOrGenerate(device, profile, 42,
                                              generator);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // Distinct user => distinct entry.
    cache.getOrGenerate(device, profile, 43, generator);
    EXPECT_EQ(cache.size(), 2u);

    EXPECT_NE(cache.lookup(device, "cnn", 42), nullptr);
    EXPECT_EQ(cache.lookup(device, "cnn", 999), nullptr);

    // insert() is first-insert-wins: an existing key keeps its trace
    // (handles stay valid), a fresh key is adopted and serves later
    // getOrGenerate calls as hits.
    InteractionTrace would_replace = makeTrace("cnn", 42);
    would_replace.events.clear();
    EXPECT_FALSE(cache.insert(device, std::move(would_replace)));
    EXPECT_EQ(cache.getOrGenerate(device, profile, 42, generator).get(),
              a.get());

    InteractionTrace fresh = makeTrace("cnn", 42);
    fresh.userSeed = 4242;
    EXPECT_TRUE(cache.insert(device, std::move(fresh)));
    EXPECT_NE(cache.lookup(device, "cnn", 4242), nullptr);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, LruCapEvictsColdEntriesAndHandlesStayValid)
{
    TraceCache cache;
    cache.setCapacity(2, 0);
    TraceGenerator generator(exynos());
    const std::string device = exynos().name();
    const AppProfile &profile = appByName("cnn");

    const TraceHandle a = cache.getOrGenerate(device, profile, 1,
                                              generator);
    cache.getOrGenerate(device, profile, 2, generator);
    // Touch user 1 so user 2 is the LRU victim when 3 arrives.
    cache.getOrGenerate(device, profile, 1, generator);
    cache.getOrGenerate(device, profile, 3, generator);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_NE(cache.lookup(device, "cnn", 1), nullptr);
    EXPECT_EQ(cache.lookup(device, "cnn", 2), nullptr);
    EXPECT_NE(cache.lookup(device, "cnn", 3), nullptr);

    // An evicted key re-materializes deterministically on re-miss.
    const TraceHandle again = cache.getOrGenerate(device, profile, 2,
                                                  generator);
    EXPECT_TRUE(*again == *cache.lookup(device, "cnn", 2));

    // The held handle survives eviction of its entry: evict user 1 by
    // loading two more users, then verify the trace is still readable.
    cache.getOrGenerate(device, profile, 4, generator);
    cache.getOrGenerate(device, profile, 5, generator);
    EXPECT_EQ(cache.lookup(device, "cnn", 1), nullptr);
    EXPECT_GT(a->events.size(), 0u);
    EXPECT_EQ(a->userSeed, 1u);

    // A byte cap evicts too (every trace is far bigger than 1 byte).
    cache.setCapacity(0, 1);
    EXPECT_EQ(cache.size(), 1u);  // newest entry is never evicted
}

// ------------------------------------------------------- TraceMutator

TEST(TraceMutator, OperatorsAreDeterministicPerSeed)
{
    const InteractionTrace trace = makeTrace("bbc", 77);
    const InteractionTrace other = makeTrace("bbc", 78);
    const TraceMutator m1(123);
    const TraceMutator m2(123);
    const TraceMutator m3(456);

    // Same seed => byte-identical outputs (the corpus reproducibility
    // guarantee), checked through the serialized form.
    const TraceProvenance prov = exynosProvenance();
    EXPECT_EQ(TraceWriter::toBytes(m1.timeScale(trace, 0.5), prov),
              TraceWriter::toBytes(m2.timeScale(trace, 0.5), prov));
    EXPECT_EQ(TraceWriter::toBytes(m1.dropEvents(trace, 0.3), prov),
              TraceWriter::toBytes(m2.dropEvents(trace, 0.3), prov));
    EXPECT_EQ(TraceWriter::toBytes(m1.injectBursts(trace, 0.4, 3), prov),
              TraceWriter::toBytes(m2.injectBursts(trace, 0.4, 3), prov));
    EXPECT_EQ(
        TraceWriter::toBytes(m1.concatenate(trace, other, 1000.0), prov),
        TraceWriter::toBytes(m2.concatenate(trace, other, 1000.0), prov));
    EXPECT_EQ(
        TraceWriter::toBytes(m1.jitterWorkloads(trace, 0.4), prov),
        TraceWriter::toBytes(m2.jitterWorkloads(trace, 0.4), prov));
    EXPECT_NE(m1.jitterWorkloads(trace, 0.4).userSeed,
              m3.jitterWorkloads(trace, 0.4).userSeed);

    // Different mutator seed => a different variant (distinct user seed
    // at minimum, so mutants never collide in a store).
    EXPECT_NE(m1.dropEvents(trace, 0.3).userSeed,
              m3.dropEvents(trace, 0.3).userSeed);
    EXPECT_NE(m1.dropEvents(trace, 0.3).events.size(),
              trace.events.size());
}

TEST(TraceMutator, OperatorInvariants)
{
    const InteractionTrace trace = makeTrace("youtube", 55);
    ASSERT_GT(trace.events.size(), 4u);
    const TraceMutator mutator(9);

    const InteractionTrace scaled = mutator.timeScale(trace, 0.5);
    ASSERT_EQ(scaled.events.size(), trace.events.size());
    EXPECT_DOUBLE_EQ(scaled.duration(), trace.duration() * 0.5);
    EXPECT_TRUE(scaled.events[1].callbackWork ==
                trace.events[1].callbackWork);
    EXPECT_NE(scaled.userSeed, trace.userSeed);

    const InteractionTrace dropped = mutator.dropEvents(trace, 0.5);
    EXPECT_LT(dropped.events.size(), trace.events.size());
    EXPECT_TRUE(dropped.events[0] == trace.events[0]);  // load kept

    const InteractionTrace bursty = mutator.injectBursts(trace, 1.0, 2);
    EXPECT_GT(bursty.events.size(), trace.events.size());
    for (size_t i = 1; i < bursty.events.size(); ++i)
        EXPECT_LE(bursty.events[i - 1].arrival, bursty.events[i].arrival);

    const InteractionTrace both =
        mutator.concatenate(trace, trace, 2500.0);
    ASSERT_EQ(both.events.size(), 2 * trace.events.size());
    const TraceEvent &first_of_second =
        both.events[trace.events.size()];
    EXPECT_DOUBLE_EQ(first_of_second.arrival,
                     trace.duration() + 2500.0 +
                         trace.events[0].arrival);
}

TEST(TraceMutator, JitterPerturbsWorkloadsOnly)
{
    const InteractionTrace trace = makeTrace("bbc", 13);
    ASSERT_GT(trace.events.size(), 2u);
    const TraceMutator mutator(21);

    const InteractionTrace jittered =
        mutator.jitterWorkloads(trace, 0.5);
    ASSERT_EQ(jittered.events.size(), trace.events.size());
    EXPECT_NE(jittered.userSeed, trace.userSeed);
    bool any_changed = false;
    for (size_t i = 0; i < trace.events.size(); ++i) {
        const TraceEvent &before = trace.events[i];
        const TraceEvent &after = jittered.events[i];
        // The timeline and event identity never move — only the
        // Eqn.-1 workload terms.
        EXPECT_EQ(after.arrival, before.arrival);
        EXPECT_EQ(after.type, before.type);
        EXPECT_EQ(after.node, before.node);
        EXPECT_EQ(after.classKey, before.classKey);
        EXPECT_EQ(after.issuesNetwork, before.issuesNetwork);
        any_changed |= after.callbackWork != before.callbackWork;
    }
    EXPECT_TRUE(any_changed);

    // Magnitude 0 is the identity on every workload bit.
    const InteractionTrace zero = mutator.jitterWorkloads(trace, 0.0);
    ASSERT_EQ(zero.events.size(), trace.events.size());
    for (size_t i = 0; i < trace.events.size(); ++i)
        EXPECT_TRUE(zero.events[i] == trace.events[i]);
}

TEST(TraceMutator, MutantsRoundTripThroughPtrc)
{
    const InteractionTrace trace = makeTrace("amazon", 91);
    const TraceMutator mutator(31337);
    const TraceProvenance prov = exynosProvenance();

    for (const InteractionTrace &mutant :
         {mutator.timeScale(trace, 1.7), mutator.dropEvents(trace, 0.25),
          mutator.injectBursts(trace, 0.5, 3),
          mutator.concatenate(trace, trace, 100.0),
          mutator.jitterWorkloads(trace, 0.6)}) {
        TraceReader reader;
        ASSERT_TRUE(reader.openBytes(TraceWriter::toBytes(mutant, prov)))
            << reader.error();
        const auto loaded = reader.readTrace();
        ASSERT_TRUE(loaded.has_value()) << reader.error();
        EXPECT_TRUE(*loaded == mutant);
    }
}

// ------------------------------------------- fleet-level byte fidelity

FleetConfig
fidelityFleet()
{
    FleetConfig config;
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.schedulers = {SchedulerKind::Interactive, SchedulerKind::Ebs};
    config.users = 2;
    config.threads = 4;
    return config;
}

std::string
reportBytes(FleetRunner &runner, const FleetOutcome &outcome)
{
    return JsonReporter::toString(
               makeFleetReport(runner.config(), outcome.metrics)) +
        CsvReporter::toString(
            makeFleetReport(runner.config(), outcome.metrics));
}

TEST(FleetCorpus, RecordedReplayIsByteIdenticalToLiveSynthesis)
{
    // Live synthesis (per-job, no sharing).
    FleetConfig live = fidelityFleet();
    live.maxSharedTraces = 1;
    FleetRunner live_runner(live);
    const std::string live_bytes =
        reportBytes(live_runner, live_runner.run());

    // Record the same population, then replay the sweep off disk.
    const TempDir dir("fidelity");
    std::string error;
    auto store = CorpusStore::create(dir.str(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    {
        TraceGenerator generator(exynos());
        TraceProvenance provenance;
        provenance.device = exynos().name();
        const FleetConfig seeds = fidelityFleet();
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

    FleetConfig replay = fidelityFleet();
    replay.corpus = &*store;
    FleetRunner replay_runner(replay);
    const FleetOutcome outcome = replay_runner.run();
    EXPECT_EQ(outcome.tracesFromCorpus, 4u);  // 2 apps x 2 users
    EXPECT_EQ(reportBytes(replay_runner, outcome), live_bytes);
}

TEST(FleetCorpus, CappedCacheReplayReloadsFromCorpusNotSynthesis)
{
    // Record the population, then swap one recording for a mutated
    // variant under the same key: the corpus now differs from live
    // synthesis, so a post-eviction miss that wrongly re-synthesized
    // (instead of reloading the recording) would change report bytes.
    const TempDir dir("capped_replay");
    std::string error;
    auto store = CorpusStore::create(dir.str(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    const FleetConfig seeds = fidelityFleet();
    {
        TraceGenerator generator(exynos());
        TraceProvenance provenance;
        provenance.device = exynos().name();
        for (const AppProfile &profile : seeds.apps) {
            for (int u = 0; u < seeds.users; ++u) {
                ASSERT_TRUE(store->add(
                    generator.generate(profile, fleetUserSeed(seeds, u)),
                    provenance, &error))
                    << error;
            }
        }
        const CorpusEntry *entry = store->find(
            seeds.apps[0].name, exynos().name(), fleetUserSeed(seeds, 0));
        ASSERT_NE(entry, nullptr);
        auto original = store->load(*entry, &error);
        ASSERT_TRUE(original.has_value()) << error;
        InteractionTrace mutant =
            TraceMutator(7).timeScale(*original, 1.3);
        mutant.userSeed = original->userSeed;  // keep the corpus key
        ASSERT_TRUE(store->add(mutant, provenance, &error)) << error;
        ASSERT_TRUE(store->save(&error)) << error;
    }

    FleetConfig uncapped = fidelityFleet();
    uncapped.corpus = &*store;
    FleetRunner uncapped_runner(uncapped);
    const std::string uncapped_bytes =
        reportBytes(uncapped_runner, uncapped_runner.run());

    FleetConfig capped = fidelityFleet();
    capped.corpus = &*store;
    capped.traceCacheCap = 1;  // 4 distinct traces: every job re-misses
    FleetRunner capped_runner(capped);
    const FleetOutcome outcome = capped_runner.run();
    EXPECT_TRUE(outcome.diagnostics.empty());
    EXPECT_GT(outcome.traceCacheEvictions, 0u);
    EXPECT_EQ(reportBytes(capped_runner, outcome), uncapped_bytes);
}

TEST(FleetCorpus, SharedTraceSweepMatchesPerJobSynthesis)
{
    FleetConfig per_job = fidelityFleet();
    per_job.maxSharedTraces = 1;
    FleetRunner per_job_runner(per_job);
    const FleetOutcome a = per_job_runner.run();
    EXPECT_EQ(a.traceCacheHits + a.traceCacheMisses, 0u);

    // Single worker makes the hit/miss split exact (multi-threaded runs
    // may double-synthesize a racing key; bytes are identical either
    // way). Comparing 1-thread-shared against 4-thread-per-job also
    // recrosses the thread-count determinism guarantee.
    FleetConfig shared = fidelityFleet();
    shared.threads = 1;
    FleetRunner shared_runner(shared);
    const FleetOutcome b = shared_runner.run();

    EXPECT_EQ(reportBytes(shared_runner, b),
              reportBytes(per_job_runner, a));
    EXPECT_EQ(b.traceCacheMisses, 4u);  // 2 apps x 2 users
    EXPECT_EQ(b.traceCacheHits,
              static_cast<uint64_t>(b.jobCount) - b.traceCacheMisses);
}

TEST(FleetCorpus, AutoSharingOnlyWhenItPaysAndStaysBounded)
{
    // A lone scheduler never reuses a trace: no cache traffic.
    FleetConfig lone = fidelityFleet();
    lone.schedulers = {SchedulerKind::Interactive};
    FleetRunner lone_runner(lone);
    const FleetOutcome a = lone_runner.run();
    EXPECT_EQ(a.traceCacheHits + a.traceCacheMisses, 0u);

    // Over the resident-set budget: falls back to per-job synthesis.
    FleetConfig big = fidelityFleet();
    big.maxSharedTraces = 1;
    FleetRunner big_runner(big);
    const FleetOutcome b = big_runner.run();
    EXPECT_EQ(b.traceCacheHits + b.traceCacheMisses, 0u);

    // Warm sweeps always share regardless of the budget (their
    // protocol depends on record-once replay).
    FleetConfig warm = fidelityFleet();
    warm.maxSharedTraces = 1;
    warm.warmDrivers = true;
    FleetRunner warm_runner(warm);
    const FleetOutcome c = warm_runner.run();
    EXPECT_GT(c.traceCacheHits + c.traceCacheMisses, 0u);
}

TEST(FleetCorpus, ExplicitSeedListDrivesTheUserAxis)
{
    FleetConfig config = fidelityFleet();
    config.userSeeds = {1111, 2222, 3333};
    EXPECT_EQ(config.effectiveUsers(), 3);
    const auto jobs = enumerateJobs(config);
    ASSERT_EQ(jobs.size(), 2u * 2u * 3u);
    EXPECT_EQ(jobs[0].userSeed, 1111u);
    EXPECT_EQ(jobs[1].userSeed, 2222u);
    EXPECT_EQ(jobs[2].userSeed, 3333u);
}

// --------------------------------------------------- manifest segments

/** A small corpus of @p users recorded traces for segmentation tests. */
CorpusStore
recordedCorpus(const std::string &dir, int users)
{
    std::string error;
    auto store = CorpusStore::create(dir, &error);
    EXPECT_TRUE(store.has_value()) << error;
    for (int u = 0; u < users; ++u) {
        EXPECT_TRUE(store->add(makeTrace("cnn", 1000 + u),
                               exynosProvenance(), &error))
            << error;
    }
    EXPECT_TRUE(store->save(&error)) << error;
    return std::move(*store);
}

TEST(CorpusSegments, ShardedManifestOpensAsTheWholeCorpus)
{
    const TempDir dir("segments");
    const CorpusStore whole = recordedCorpus(dir.str(), 9);
    const auto whole_entries = whole.entries();

    std::string error;
    {
        auto store = CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store.has_value()) << error;
        ASSERT_TRUE(store->shard(4, &error)) << error;
    }
    EXPECT_FALSE(
        fs::exists(dir.path / CorpusStore::kManifestName));

    // open() discovers the complete segment set and presents the same
    // entries in the same canonical order.
    auto merged = CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(merged->segmentCount(), 4);
    const auto merged_entries = merged->entries();
    ASSERT_EQ(merged_entries.size(), whole_entries.size());
    for (size_t i = 0; i < whole_entries.size(); ++i) {
        EXPECT_EQ(merged_entries[i].file, whole_entries[i].file);
        EXPECT_EQ(merged_entries[i].checksum, whole_entries[i].checksum);
    }

    // Per-segment views partition the corpus: validate clean, disjoint
    // membership, sizes summing to the whole.
    size_t total = 0;
    for (int k = 0; k < 4; ++k) {
        auto seg = CorpusStore::openSegment(dir.str(), k, 4, &error);
        ASSERT_TRUE(seg.has_value()) << error;
        std::vector<CorpusProblem> problems;
        EXPECT_TRUE(seg->validate(problems))
            << (problems.empty() ? "" : problems[0].message);
        for (const CorpusEntry &e : seg->entries())
            EXPECT_EQ(CorpusStore::segmentOf(e.userSeed, 4), k);
        total += seg->entries().size();
    }
    EXPECT_EQ(total, whole_entries.size());
}

TEST(CorpusSegments, IncompleteOrMixedSegmentSetsAreRejected)
{
    const TempDir dir("segments_bad");
    recordedCorpus(dir.str(), 6);
    std::string error;
    {
        auto store = CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store.has_value()) << error;
        ASSERT_TRUE(store->shard(3, &error)) << error;
    }

    // Drop one segment: open must refuse rather than silently serve a
    // partial corpus.
    fs::rename(dir.path / CorpusStore::segmentManifestName(1, 3),
               dir.path / "stash.json");
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error).has_value());
    EXPECT_NE(error.find("incomplete"), std::string::npos) << error;
    fs::rename(dir.path / "stash.json",
               dir.path / CorpusStore::segmentManifestName(1, 3));

    // A stray segment file from a different split is a mixed set.
    std::ofstream(dir.path / CorpusStore::segmentManifestName(0, 5))
        << "{\"version\": 1, \"traces\": []}\n";
    EXPECT_FALSE(CorpusStore::open(dir.str(), &error).has_value());
    EXPECT_NE(error.find("mixes segment sets"), std::string::npos)
        << error;
}

TEST(CorpusSegments, SegmentedReplayMatchesTheWholeManifest)
{
    const TempDir dir("segments_replay");
    std::string error;
    {
        auto store = CorpusStore::create(dir.str(), &error);
        ASSERT_TRUE(store.has_value()) << error;
        FleetConfig seeds;
        TraceGenerator generator(exynos());
        for (const char *app : {"cnn", "social_feed"}) {
            for (int u = 0; u < 4; ++u) {
                ASSERT_TRUE(store->add(
                    generator.generate(appByName(app),
                                       fleetUserSeed(seeds, u)),
                    exynosProvenance(), &error))
                    << error;
            }
        }
        ASSERT_TRUE(store->save(&error)) << error;
    }

    const auto replay_bytes = [&] {
        auto corpus = CorpusStore::open(dir.str(), &error);
        EXPECT_TRUE(corpus.has_value()) << error;
        FleetConfig config;
        config.schedulers = {SchedulerKind::Ebs};
        config.apps = {appByName("cnn"), appByName("social_feed")};
        config.users = 4;
        config.corpus = &*corpus;
        FleetRunner runner(std::move(config));
        return JsonReporter::toString(
            makeFleetReport(runner.config(), runner.run().metrics));
    };

    const std::string whole_bytes = replay_bytes();
    {
        auto store = CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store.has_value()) << error;
        ASSERT_TRUE(store->shard(3, &error)) << error;
    }
    EXPECT_EQ(replay_bytes(), whole_bytes)
        << "sharding the manifest must not change replayed reports";
}

} // namespace
} // namespace pes
