/**
 * @file
 * pes_corpus — trace-corpus management: record sessions to disk, replay
 * fleet sweeps straight off a corpus, and derive mutated scenario
 * variants. The on-disk format is the versioned, checksummed .ptrc
 * layout (src/corpus/trace_format.hh) indexed by a JSON manifest.
 *
 *   pes_corpus record   --dir=corpus --apps=cnn,social_feed --users=100
 *   pes_corpus inspect  --dir=corpus [--app=cnn] [--device=NAME] [--user=S]
 *   pes_corpus validate --dir=corpus
 *   pes_corpus replay   --dir=corpus --schedulers=pes,ebs --out=rep.json
 *   pes_corpus mutate   --dir=corpus --into=stress --op=burst --rate=0.3
 *
 * record derives user seeds exactly like pes_fleet (same --seed /
 * --eval-population semantics), so `pes_fleet --corpus=DIR` with the
 * same axes replays byte-identically to live synthesis.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "corpus/corpus_store.hh"
#include "corpus/trace_mutator.hh"
#include "util/integrity.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pes;

namespace {

CorpusStore
openOrDie(const std::string &dir)
{
    fatal_if(dir.empty(), "--dir is required");
    std::string error;
    auto store = CorpusStore::open(dir, &error);
    fatal_if(!store, "cannot open corpus: %s", error.c_str());
    return std::move(*store);
}

// ------------------------------------------------------------- record

int
cmdRecord(const Command &cmd)
{
    std::string dir;
    FleetConfig config;  // only the axes and the user-seed derivation
    bool quiet = false;
    cmd.parse({
        {stringFlag("dir", "DIR", dir, "corpus to create (required)")},
        sweepFlags(config,
                   {"apps", "devices", "users", "seed", "eval-population"}),
        {switchFlag("quiet", quiet, "suppress progress chatter")},
    });
    fatal_if(dir.empty(), "--dir is required");
    const std::vector<AcmpPlatform> devices = config.devices.empty()
        ? std::vector<AcmpPlatform>{AcmpPlatform::exynos5410()}
        : config.devices;

    std::string error;
    auto store = CorpusStore::create(dir, &error);
    fatal_if(!store, "cannot create corpus: %s", error.c_str());

    uint64_t events = 0;
    int recorded = 0;
    for (const AcmpPlatform &platform : devices) {
        TraceGenerator generator(platform);
        TraceProvenance provenance;
        provenance.device = platform.name();
        provenance.params = {{"source", "synthetic"},
                             {"seed_mode",
                              config.seedMode == SeedMode::Fleet
                                  ? "fleet"
                                  : "evaluation"}};
        for (const AppProfile &profile : config.apps) {
            for (int u = 0; u < config.users; ++u) {
                const InteractionTrace trace = generator.generate(
                    profile, fleetUserSeed(config, u));
                fatal_if(!store->add(trace, provenance, &error),
                         "record failed: %s", error.c_str());
                events += trace.events.size();
                ++recorded;
            }
        }
    }
    fatal_if(!store->save(&error), "cannot save manifest: %s",
             error.c_str());
    if (!quiet) {
        std::cout << "recorded " << recorded << " traces ("
                  << events << " events) into " << dir << " ("
                  << store->entries().size() << " total)\n";
    }
    return 0;
}

// ------------------------------------------------------------ inspect

int
cmdInspect(const Command &cmd)
{
    std::string dir, app_filter, device_filter;
    uint64_t user_filter = 0;
    const FlagParse parsed = cmd.parse({{
        stringFlag("dir", "DIR", dir, "corpus (required)"),
        stringFlag("app", "NAME", app_filter, "only this app"),
        stringFlag("device", "NAME", device_filter, "only this platform"),
        seedFlag("user", "SEED", user_filter, "only this user seed"),
    }});
    const bool have_user_filter =
        std::count(parsed.given.begin(), parsed.given.end(), "user") > 0;
    const CorpusStore store = openOrDie(dir);

    Table table({"app", "device", "user_seed", "events", "checksum",
                 "file"});
    uint64_t events = 0;
    int shown = 0;
    for (const CorpusEntry &e : store.entries()) {
        if (!app_filter.empty() && e.app != app_filter)
            continue;
        if (!device_filter.empty() && e.device != device_filter)
            continue;
        if (have_user_filter && e.userSeed != user_filter)
            continue;
        char checksum[32];
        std::snprintf(checksum, sizeof(checksum), "%016llx",
                      static_cast<unsigned long long>(e.checksum));
        table.beginRow()
            .cell(e.app)
            .cell(e.device)
            .cell(std::to_string(e.userSeed))
            .cell(static_cast<long>(e.eventCount))
            .cell(std::string(checksum))
            .cell(e.file);
        events += e.eventCount;
        ++shown;
    }
    table.print(std::cout);
    std::cout << shown << " of " << store.entries().size()
              << " traces, " << events << " events\n";
    return 0;
}

// ----------------------------------------------------------- validate

int
cmdValidate(const Command &cmd)
{
    std::string dir;
    int seg_k = 0, seg_n = 0;
    bool quiet = false;
    cmd.parse({{
        stringFlag("dir", "DIR", dir, "corpus (required)"),
        partFlag("segment", seg_k, seg_n, 1000000,
                 "validate one segment of an N-way split"),
        switchFlag("quiet", quiet, "print nothing; gate on the exit code"),
    }});
    std::optional<CorpusStore> store;
    if (seg_n > 0) {
        fatal_if(dir.empty(), "--dir is required");
        std::string error;
        store = CorpusStore::openSegment(dir, seg_k, seg_n, &error);
        fatal_if(!store, "cannot open segment: %s", error.c_str());
    } else {
        store = openOrDie(dir);
    }
    std::vector<CorpusProblem> problems;
    if (!store->validate(problems)) {
        if (!quiet) {
            for (const CorpusProblem &p : problems)
                std::cerr << "FAIL " << p.message << "\n";
            std::cerr << problems.size() << " problem(s) in " << dir
                      << "\n";
        }
        return integrityExitCode(problems);
    }
    if (!quiet) {
        std::cout << "OK: " << store->entries().size()
                  << " traces verified in " << dir
                  << (seg_n > 0 ? " (segment " + std::to_string(seg_k) +
                          "/" + std::to_string(seg_n) + ")"
                                : "")
                  << "\n";
    }
    return 0;
}

// -------------------------------------------------------------- shard

int
cmdShard(const Command &cmd)
{
    std::string dir;
    int segments = 0;
    bool quiet = false;
    cmd.parse({{
        stringFlag("dir", "DIR", dir, "corpus (required)"),
        intFlag("segments", "N", segments, 1, 1000000,
                "segment count (required)"),
        switchFlag("quiet", quiet, "suppress progress chatter"),
    }});
    fatal_if(segments < 1, "--segments=N is required");

    CorpusStore store = openOrDie(dir);
    fatal_if(store.segmentCount() > 0,
             "corpus '%s' is already segmented %d-way", dir.c_str(),
             store.segmentCount());
    std::string error;
    fatal_if(!store.shard(segments, &error),
             "shard failed: %s", error.c_str());
    if (!quiet) {
        std::cout << "sharded " << store.entries().size()
                  << " traces into " << segments
                  << " segment manifest(s) in " << dir << "\n"
                  << "validate per segment with: pes_corpus validate "
                     "--dir=" << dir << " --segment=K/" << segments
                  << "\n";
    }
    return 0;
}

// ------------------------------------------------------------- replay

int
cmdReplay(const Command &cmd)
{
    std::string dir, out_path, csv_path;
    FleetConfig config;
    bool quiet = false;
    cmd.parse({
        {stringFlag("dir", "DIR", dir, "corpus (required)")},
        sweepFlags(config, {"schedulers", "threads", "warm"}),
        {
            stringFlag("out", "FILE", out_path, "write the JSON report"),
            stringFlag("csv", "FILE", csv_path, "write the CSV report"),
            switchFlag("quiet", quiet, "suppress progress chatter"),
        },
    });
    const CorpusStore store = openOrDie(dir);
    fatal_if(store.entries().empty(), "corpus '%s' is empty",
             dir.c_str());

    // The sweep axes come from the manifest: every distinct app, device
    // and user seed the corpus holds (the runner validates that the
    // full cross-product is recorded).
    std::map<std::string, bool> apps;
    std::map<std::string, bool> devices;
    std::vector<uint64_t> seeds;
    for (const CorpusEntry &e : store.entries()) {
        apps.emplace(e.app, true);
        devices.emplace(e.device, true);
        seeds.push_back(e.userSeed);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    config.apps.clear();
    for (const auto &[app, unused] : apps) {
        (void)unused;
        config.apps.push_back(appByName(app));
    }
    for (const auto &[device, unused] : devices) {
        (void)unused;
        const auto platform = deviceByPlatformName(device);
        fatal_if(!platform,
                 "corpus device '%s' matches no known platform",
                 device.c_str());
        config.devices.push_back(*platform);
    }
    config.userSeeds = std::move(seeds);
    config.corpus = &store;

    setQuiet(true);
    FleetRunner runner(std::move(config));
    const FleetConfig &cfg = runner.config();
    if (!quiet) {
        std::cout << "replaying " << runner.jobs().size()
                  << " sessions off " << dir << " ("
                  << cfg.apps.size() << " apps x "
                  << cfg.schedulers.size() << " schedulers x "
                  << cfg.devices.size() << " devices x "
                  << cfg.effectiveUsers() << " users, " << cfg.threads
                  << " threads)\n";
        std::cout.flush();
    }
    FleetOutcome outcome = runner.run();
    const FleetReport report = makeFleetReport(cfg, outcome.metrics);

    printCellTable(report, std::cout);
    writeReportFiles(report, out_path, csv_path, std::cout);
    if (!quiet) {
        std::cout << outcome.jobCount << " sessions replayed from "
                  << outcome.tracesFromCorpus << " recorded traces in "
                  << formatDouble(outcome.executeMs / 1000.0, 2) << " s\n";
    }
    if (!outcome.diagnostics.empty()) {
        for (const std::string &d : outcome.diagnostics)
            std::cerr << "FAIL " << d << "\n";
        std::cerr << outcome.diagnostics.size()
                  << " run-level problem(s); the report covers "
                     "completed sessions only\n";
        return 1;
    }
    return 0;
}

// ------------------------------------------------------------- mutate

int
cmdMutate(const Command &cmd)
{
    std::string dir, into, op;
    double factor = 1.5;
    double drop = 0.2;
    double rate = 0.25;
    int burst = 4;
    double gap_ms = 4000.0;
    double magnitude = 0.3;
    uint64_t seed = 0x5eedc0de;
    bool quiet = false;
    const FlagParse parsed = cmd.parse({{
        stringFlag("dir", "DIR", dir, "source corpus (required)"),
        stringFlag("into", "DIR", into, "destination corpus (required)"),
        stringFlag("op", "OP", op,
                   "time-scale, event-drop, burst, concat or jitter"),
        doubleFlag("factor", "F", factor, 1e-3, 1e3,
                   "time-scale multiplier [1.5]"),
        doubleFlag("drop", "P", drop, 0.0, 1.0, "event-drop rate [0.2]"),
        doubleFlag("rate", "R", rate, 0.0, 1.0, "burst rate [0.25]"),
        intFlag("burst", "N", burst, 1, 1000, "burst size [4]"),
        doubleFlag("gap", "MS", gap_ms, 0.0, 1e9, "concat gap [4000]"),
        doubleFlag("magnitude", "M", magnitude, 0.0, 1.0,
                   "jitter magnitude [0.3]"),
        seedFlag("seed", "S", seed, "mutation seed [0x5eedc0de]"),
        switchFlag("quiet", quiet, "suppress progress chatter"),
    }});
    fatal_if(into.empty(), "--into (destination corpus) is required");
    fatal_if(op != "time-scale" && op != "event-drop" && op != "burst" &&
             op != "concat" && op != "jitter",
             "unknown --op '%s' (time-scale, event-drop, burst, concat, "
             "jitter)",
             op.c_str());
    // Reject parameters the chosen operator ignores: silently falling
    // back to a default would record a wrong-but-plausible corpus.
    static const std::map<std::string, std::string> kParamOp = {
        {"factor", "time-scale"}, {"drop", "event-drop"},
        {"rate", "burst"},        {"burst", "burst"},
        {"gap", "concat"},        {"magnitude", "jitter"}};
    for (const std::string &flag : parsed.given) {
        const auto it = kParamOp.find(flag);
        fatal_if(it != kParamOp.end() && it->second != op,
                 "--%s does not apply to --op=%s", flag.c_str(), op.c_str());
    }

    const CorpusStore source = openOrDie(dir);
    std::string error;
    auto dest = CorpusStore::create(into, &error);
    fatal_if(!dest, "cannot create corpus: %s", error.c_str());

    const TraceMutator mutator(seed);
    char desc[96];
    if (op == "time-scale") {
        std::snprintf(desc, sizeof(desc), "time-scale:%g", factor);
    } else if (op == "event-drop") {
        std::snprintf(desc, sizeof(desc), "event-drop:%g", drop);
    } else if (op == "burst") {
        std::snprintf(desc, sizeof(desc), "burst:%g:x%d", rate, burst);
    } else if (op == "jitter") {
        std::snprintf(desc, sizeof(desc), "jitter:%g", magnitude);
    } else {
        std::snprintf(desc, sizeof(desc), "concat:gap=%g", gap_ms);
    }

    int written = 0;
    const auto emit = [&](const CorpusEntry &entry,
                          const InteractionTrace &mutant) {
        TraceProvenance provenance;
        provenance.device = entry.device;
        provenance.params = {{"mutation", desc},
                             {"source", entry.file},
                             {"mutation_seed", std::to_string(seed)}};
        fatal_if(!dest->add(mutant, provenance, &error),
                 "mutate failed: %s", error.c_str());
        ++written;
    };

    if (op == "concat") {
        // Pair consecutive sessions of the same (app, device) group —
        // entries() is already in canonical (app, device, seed) order.
        const auto &entries = source.entries();
        size_t i = 0;
        while (i + 1 < entries.size()) {
            const CorpusEntry &a = entries[i];
            const CorpusEntry &b = entries[i + 1];
            if (a.app != b.app || a.device != b.device) {
                ++i;  // groups misaligned: slide to the next group
                continue;
            }
            const auto ta = source.load(a, &error);
            fatal_if(!ta, "mutate: %s", error.c_str());
            const auto tb = source.load(b, &error);
            fatal_if(!tb, "mutate: %s", error.c_str());
            emit(a, mutator.concatenate(*ta, *tb, gap_ms));
            i += 2;
        }
    } else {
        const bool ok = source.forEach(
            [&](const CorpusEntry &entry, const InteractionTrace &trace) {
                if (op == "time-scale")
                    emit(entry, mutator.timeScale(trace, factor));
                else if (op == "event-drop")
                    emit(entry, mutator.dropEvents(trace, drop));
                else if (op == "jitter")
                    emit(entry,
                         mutator.jitterWorkloads(trace, magnitude));
                else
                    emit(entry, mutator.injectBursts(trace, rate, burst));
                return true;
            },
            &error);
        fatal_if(!ok, "mutate: %s", error.c_str());
    }
    fatal_if(!dest->save(&error), "cannot save manifest: %s",
             error.c_str());
    if (!quiet) {
        std::cout << "wrote " << written << " " << desc
                  << " variants into " << into << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    static const Tool tool{
        "pes_corpus",
        "record / replay / mutate persisted trace corpora",
        {
            {"record", cmdRecord, "synthesize sessions into a corpus",
             "Seeds derive like pes_fleet's: `pes_fleet --corpus=DIR` "
             "replays it exactly."},
            {"inspect", cmdInspect, "list a corpus's traces"},
            {"validate", cmdValidate, "verify every trace of a corpus",
             "exit: 0 clean, 3 missing files, 4 corrupt (including a "
             "sealed trace the\nsimulator cannot replay)"},
            {"shard", cmdShard, "split the manifest into segments"},
            {"replay", cmdReplay, "run a sweep over a corpus's own axes"},
            {"mutate", cmdMutate, "derive a mutated corpus",
             "Each --op takes only its own parameter flags."},
        }};
    return runTool(tool, argc, argv);
}
