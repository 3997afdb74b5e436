/**
 * @file
 * pes_fleet: batch fleet simulation over the scheduler x app x device x
 * user cross-product, with persistent, resumable, shardable sweeps.
 *
 *   pes_fleet --schedulers=pes,ebs --apps=cnn,amazon,social_feed \
 *             --users=1000 --threads=8 --out=fleet.json --csv=fleet.csv
 *
 *   # One sweep split across two machines, then merged:
 *   pes_fleet ... --shard=0/2 --results-dir=shard0   # machine A
 *   pes_fleet ... --shard=1/2 --results-dir=shard1   # machine B
 *   pes_fleet merge --into=all --from=shard0,shard1 --out=fleet.json
 *
 *   # Killed at 90%? Finish the remaining 10%:
 *   pes_fleet ... --results-dir=sweep --resume
 *
 * Runs users x apps x schedulers x devices sessions on a worker pool and
 * writes deterministic JSON/CSV reports: the report bytes are identical
 * for any --threads value, any shard split, and any kill/resume
 * boundary (wall-clock and throughput go to stdout only).
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "coordinator/lease_queue.hh"
#include "core/experiment.hh"
#include "corpus/corpus_store.hh"
#include "population/population_spec.hh"
#include "results/report_diff.hh"
#include "results/result_reduce.hh"
#include "results/tolerance.hh"
#include "results/result_store.hh"
#include "results/robustness.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "scenario/scenario_plan.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_sink.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace pes;

namespace {

void
usage()
{
    std::cout <<
        "pes_fleet - batch fleet simulation (schedulers x apps x "
        "devices x users)\n\n"
        "Options (defaults in brackets):\n"
        "  --schedulers=LIST  comma list: interactive, ondemand, ebs, "
        "pes, oracle [pes,ebs]\n"
        "  --apps=LIST        app names, or groups seen/unseen/all/extra "
        "[cnn,amazon,social_feed]\n"
        "  --devices=LIST     exynos5410, tegra-parker [exynos5410]\n"
        "  --users=N          simulated users per cell [100]\n"
        "  --threads=N        worker threads [hardware concurrency]\n"
        "  --seed=S           base seed of the fleet population "
        "[0xf1ee7]\n"
        "  --eval-population  draw users from the paper's Sec.-6.1 "
        "evaluation seeds\n"
        "  --population=SPEC  draw users from a mixture population: a "
        "built-in name\n"
        "                     (--list-populations) or a spec-file path "
        "ending in .json.\n"
        "                     Identity-bearing: stores/diffs refuse to "
        "mix populations.\n"
        "                     exit: 3 missing spec file, 4 "
        "malformed/invalid spec\n"
        "  --warm             one warmed driver per cell (sessions of a "
        "cell run in order)\n"
        "  --corpus=DIR       replay traces from a recorded corpus "
        "(see pes_corpus) instead\n"
        "                     of synthesizing; reports stay "
        "byte-identical to live synthesis\n"
        "  --trace-cache-cap=N  LRU-bound the shared trace cache to N "
        "resident traces\n"
        "                     (0 = unbounded; eviction never changes "
        "report bytes)\n"
        "  --results-dir=DIR  persist per-session results into a .psum "
        "result store,\n"
        "                     checkpointing as the sweep runs; reports "
        "reduce from the store\n"
        "  --resume           skip sessions already persisted in "
        "--results-dir\n"
        "  --shard=K/N        execute only shard K of N (0-based); run "
        "all N shards\n"
        "                     (any machines), then `pes_fleet merge`\n"
        "  --checkpoint-every=N  sessions buffered per checkpoint flush "
        "[1024]\n"
        "  --out=FILE         write the JSON report\n"
        "  --csv=FILE         write the CSV report\n"
        "  --list-apps        print every known application profile and "
        "exit\n"
        "  --list-devices     print every known device model and exit\n"
        "  --list-populations print every built-in mixture population "
        "and exit\n"
        "  --quiet            suppress progress chatter\n"
        "  --help             this text\n"
        "\n"
        "Observability (accepted by the default sweep — also spellable "
        "`pes_fleet run` —\n"
        "and by the stress and merge verbs; reports stay byte-identical "
        "with these on\n"
        "or off):\n"
        "  --telemetry-out=FILE  write a versioned RunTelemetry JSON "
        "summary\n"
        "                     (sessions/sec, events/sec, per-stage wall "
        "time, cache/\n"
        "                     pool/checkpoint traffic). stress writes "
        "one per severity\n"
        "                     (FILE.sev-<tag>.json) plus the grid "
        "rollup at FILE\n"
        "  --trace-out=FILE   write Chrome trace-event JSON of the "
        "runner pipeline\n"
        "                     (open in chrome://tracing or "
        "https://ui.perfetto.dev)\n"
        "  --logical-clock    stamp trace events with virtual time "
        "(monotone counter):\n"
        "                     deterministic trace structure; wall-"
        "derived telemetry\n"
        "                     fields are zeroed\n"
        "  --progress         throttled completed/planned sessions "
        "line on stderr\n"
        "  --log-level=LVL    stderr verbosity: debug, info, warn, "
        "error (default:\n"
        "                     PES_LOG, else quiet)\n"
        "\n"
        "Verbs:\n"
        "  pes_fleet merge --into=DIR --from=DIR1,DIR2,... "
        "[--out=FILE] [--csv=FILE] [--quiet]\n"
        "                     merge shard result stores (same sweep) "
        "into one store and\n"
        "                     write its reports — byte-identical to a "
        "single whole run.\n"
        "                     exit: 0 clean, 3 missing part files, 4 "
        "corrupt stores\n"
        "  pes_fleet stress --family=NAME | --scenario-spec=FILE\n"
        "                     [--severities=LIST] [--scenario-seed=S] "
        "[--out=FILE]\n"
        "                     [--csv=FILE] [--reports-dir=DIR] "
        "[--results-dir=DIR]\n"
        "                     [--resume] [--shard=K/N] "
        "[--list-families] [sweep flags]\n"
        "                     sweep one stress family over a severity "
        "grid (default\n"
        "                     0,0.25,0.5,0.75,1) and reduce the per-"
        "severity sweeps into\n"
        "                     per-scheduler robustness curves "
        "(JSON/CSV, byte-identical\n"
        "                     for any --threads and across shard/"
        "resume). --results-dir\n"
        "                     persists one result store per severity "
        "(sev-<s> subdirs);\n"
        "                     --reports-dir writes one fleet report "
        "JSON per severity.\n"
        "                     sweep flags: --schedulers --apps "
        "--devices --users --seed\n"
        "                     --eval-population --warm --threads "
        "--corpus and the\n"
        "                     persistence knobs above.\n"
        "                     exit: 0 clean, 1 run problems, 3 missing "
        "spec file,\n"
        "                     4 malformed/invalid spec or severity "
        "grid\n"
        "  pes_fleet work --coordinator=DIR [--worker=ID] "
        "[--threads=N]\n"
        "                     [--max-ranges=N] [--idle-timeout-ms=MS] "
        "[--quiet]\n"
        "                     claim job-range leases from a "
        "pes_coordinator queue and\n"
        "                     execute them into the sweep's shared "
        "result store,\n"
        "                     heartbeating while running. Run any "
        "number of workers\n"
        "                     concurrently (and kill them freely): "
        "expired leases are\n"
        "                     reissued and the reduced report stays "
        "byte-identical to a\n"
        "                     whole single-process run. exit: 0 queue "
        "drained, 1 run\n"
        "                     problems, 2 starved with the sweep "
        "incomplete\n"
        "  pes_fleet diff BASE TEST [--exact] [--tolerance=REL] "
        "[--abs-tolerance=ABS]\n"
        "                     [--metric=LIST] [--tolerance-file=FILE] "
        "[--out=FILE] [--quiet]\n"
        "                     compare two runs cell-by-cell. BASE/TEST "
        "are result-store\n"
        "                     directories or report JSON/CSV files, in "
        "any combination.\n"
        "                     --exact gates bit-identical determinism; "
        "otherwise metrics\n"
        "                     pass within --tolerance (relative, "
        "default 0.01) or\n"
        "                     --abs-tolerance (default 1e-9). --out "
        "writes a machine-\n"
        "                     readable diff JSON.\n"
        "                     exit: 0 within tolerance, 2 drift "
        "(regressed/improved/\n"
        "                     missing/extra cells), 3 missing inputs, "
        "4 corrupt or\n"
        "                     incomparable inputs.\n"
        "                     --tolerance-file=FILE applies calibrated "
        "per-metric bands\n"
        "                     (see --calibrate) instead of the global "
        "knobs\n"
        "  pes_fleet diff --calibrate=N REP1 ... REPN [--sigmas=K]\n"
        "                     [--tolerance-out=FILE]\n"
        "                     derive per-metric tolerances from N "
        "replicate runs of the\n"
        "                     same sweep: each metric's band is K "
        "(default 3) standard\n"
        "                     deviations of its worst per-cell spread. "
        "The emitted JSON\n"
        "                     is consumed by `diff --tolerance-file` "
        "and `pes_perf gate\n"
        "                     --tolerance-file` (one calibration, both "
        "gates)\n";
}

bool
flagValue(const std::string &arg, const std::string &name,
          std::string &out)
{
    const std::string prefix = "--" + name + "=";
    if (!startsWith(arg, prefix))
        return false;
    out = arg.substr(prefix.size());
    return true;
}

long
parseLong(const std::string &value, const std::string &flag)
{
    long long v;
    fatal_if(!parseInt64(value, v), "bad value '%s' for --%s",
             value.c_str(), flag.c_str());
    return static_cast<long>(v);
}

uint64_t
parseSeed(const std::string &value)
{
    uint64_t v;
    fatal_if(!parseUint64(value, v), "bad value '%s' for --seed",
             value.c_str());
    return v;
}

/** --list-apps: the discovery view of the app registry (incl. extras). */
int
listApps()
{
    Table table({"app", "set", "pages", "temp", "think(s)",
                 "load_scale", "render_scale"});
    const auto row = [&](const AppProfile &p, const char *set) {
        table.beginRow()
            .cell(p.name)
            .cell(std::string(set))
            .cell(static_cast<long>(p.numPages))
            .cell(p.behaviorTemp, 2)
            .cell(p.thinkMedianMs / 1000.0, 1)
            .cell(p.loadWorkScale, 2)
            .cell(p.renderScale, 2);
    };
    for (const AppProfile &p : appRegistry())
        row(p, p.seen ? "seen" : "unseen");
    for (const AppProfile &p : extraApps())
        row(p, "extra");
    table.print(std::cout);
    std::cout << "groups: seen (" << seenApps().size() << "), unseen ("
              << unseenApps().size() << "), all ("
              << appRegistry().size() << "), extra ("
              << extraApps().size() << ")\n";
    return 0;
}

/** --list-devices: every platform parseDeviceList accepts. */
int
listDevices()
{
    Table table({"device", "aliases", "platform"});
    for (const DeviceInfo &info : deviceRegistry()) {
        table.beginRow()
            .cell(info.cliName)
            .cell(join(info.aliases, ", "))
            .cell(info.platform.name());
    }
    table.print(std::cout);
    return 0;
}

/** --list-populations: the discovery view of the mixture registry. */
int
listPopulations()
{
    Table table({"population", "cohorts", "mixture"});
    for (const PopulationSpec &spec : populationRegistry()) {
        std::vector<std::string> parts;
        for (const CohortSpec &c : spec.cohorts)
            parts.push_back(c.name + ":" + formatDouble(c.weight, 2));
        table.beginRow()
            .cell(spec.name)
            .cell(static_cast<long>(spec.cohorts.size()))
            .cell(join(parts, " "));
    }
    table.print(std::cout);
    std::cout << "or bring your own: --population=FILE.json (JSON "
                 "mixture spec; see DESIGN.md)\n";
    return 0;
}

/**
 * Resolve a `--population=SPEC` flag into @p config (the spec itself
 * lands in @p holder, which must outlive the runner — the config only
 * borrows it). Prints classified diagnostics and returns the integrity
 * exit code on failure, 0 on success.
 */
int
applyPopulationFlag(const std::string &ref,
                    std::optional<PopulationSpec> &holder,
                    FleetConfig &config)
{
    fatal_if(config.seedMode == SeedMode::Evaluation,
             "--population cannot be combined with --eval-population "
             "(the evaluation seeds are a fixed cohort)");
    std::vector<IntegrityProblem> problems;
    holder = resolvePopulation(ref, problems);
    if (!holder) {
        for (const IntegrityProblem &p : problems)
            std::cerr << "FAIL " << p.message << "\n";
        return integrityExitCode(problems);
    }
    config.population = &*holder;
    config.populationTag = populationTag(*holder);
    config.populationDigest = populationDigest(*holder);
    return 0;
}

/** Validate @p store; prints problems and returns the exit code (0 ok). */
int
validateStore(const ResultStore &store, bool quiet)
{
    std::vector<StoreProblem> problems;
    if (store.validate(problems))
        return 0;
    if (!quiet) {
        for (const StoreProblem &p : problems)
            std::cerr << "FAIL " << store.dir() << ": " << p.message
                      << "\n";
    }
    return integrityExitCode(problems);
}

/** Write the JSON/CSV reports of @p report (shared by sweep and merge). */
void
writeReports(const FleetReport &report, const std::string &out_path,
             const std::string &csv_path)
{
    if (!out_path.empty()) {
        std::ofstream os(out_path);
        fatal_if(!os, "cannot open '%s'", out_path.c_str());
        JsonReporter::write(report, os);
        std::cout << "[json: " << out_path << "]\n";
    }
    if (!csv_path.empty()) {
        std::ofstream os(csv_path);
        fatal_if(!os, "cannot open '%s'", csv_path.c_str());
        CsvReporter::write(report, os);
        std::cout << "[csv: " << csv_path << "]\n";
    }
}

// ------------------------------------------------------- observability

/**
 * Telemetry/trace/logging flags shared by the run, stress and merge
 * verbs. Arming any of them never changes report bytes — telemetry is
 * strictly read-only on the runner (locked by tests and CI).
 */
struct ObsOptions
{
    std::string telemetryOut;
    std::string traceOut;
    bool logicalClock = false;
    bool progress = false;
    std::string logLevel;

    /** Consume @p arg; true when it was an observability flag. */
    bool consume(const std::string &arg)
    {
        std::string value;
        if (flagValue(arg, "telemetry-out", value)) {
            telemetryOut = value;
        } else if (flagValue(arg, "trace-out", value)) {
            traceOut = value;
        } else if (arg == "--logical-clock") {
            logicalClock = true;
        } else if (arg == "--progress") {
            progress = true;
        } else if (flagValue(arg, "log-level", value)) {
            logLevel = value;
        } else {
            return false;
        }
        return true;
    }

    /** Whether any telemetry artifact was requested. */
    bool wantsTelemetry() const
    {
        return !telemetryOut.empty() || !traceOut.empty();
    }

    /**
     * Resolve the stderr discipline: --log-level wins, then the
     * PES_LOG environment, then the verb's historical default
     * (@p default_quiet: sweeps silence library chatter).
     */
    void applyLogging(bool default_quiet) const
    {
        if (!logLevel.empty()) {
            LogLevel level;
            fatal_if(!parseLogLevel(logLevel, level),
                     "bad value '%s' for --log-level "
                     "(debug|info|warn|error)",
                     logLevel.c_str());
            setLogLevel(level);
        } else if (default_quiet && !std::getenv("PES_LOG")) {
            setQuiet(true);
        }
    }

    /**
     * Build the trace sink when asked. --logical-clock alone (no
     * --trace-out) still builds one: the runner consults the sink's
     * clock to zero wall-derived telemetry fields, making
     * --telemetry-out byte-reproducible too.
     */
    std::optional<TraceEventSink> makeTraceSink() const
    {
        if (traceOut.empty() && !logicalClock)
            return std::nullopt;
        return std::optional<TraceEventSink>(
            std::in_place, logicalClock ? TraceEventSink::Clock::Logical
                                        : TraceEventSink::Clock::Wall);
    }
};

/**
 * Consume one sweep-shape flag shared by the run and stress verbs into
 * @p config; true when @p arg was one. Flags only one verb takes stay
 * in that verb's loop.
 */
bool
consumeSweepFlag(const std::string &arg, FleetConfig &config)
{
    std::string value;
    if (arg == "--warm") {
        config.warmDrivers = true;
    } else if (arg == "--eval-population") {
        config.seedMode = SeedMode::Evaluation;
    } else if (flagValue(arg, "schedulers", value)) {
        config.schedulers = parseSchedulerList(value);
    } else if (flagValue(arg, "apps", value)) {
        config.apps = parseAppList(value);
    } else if (flagValue(arg, "devices", value)) {
        config.devices = parseDeviceList(value);
    } else if (flagValue(arg, "users", value)) {
        const long users = parseLong(value, "users");
        fatal_if(users < 1 || users > 100000000,
                 "--users must be in [1, 1e8]");
        config.users = static_cast<int>(users);
    } else if (flagValue(arg, "threads", value)) {
        const long threads = parseLong(value, "threads");
        fatal_if(threads < 1 || threads > 4096,
                 "--threads must be in [1, 4096]");
        config.threads = static_cast<int>(threads);
    } else if (flagValue(arg, "seed", value)) {
        config.baseSeed = parseSeed(value);
    } else if (flagValue(arg, "shard", value)) {
        const size_t slash = value.find('/');
        fatal_if(slash == std::string::npos,
                 "--shard expects K/N (e.g. 0/4), got '%s'", value.c_str());
        const long k = parseLong(value.substr(0, slash), "shard");
        const long n = parseLong(value.substr(slash + 1), "shard");
        fatal_if(n < 1 || n > 1000000 || k < 0 || k >= n,
                 "--shard=K/N needs 0 <= K < N, got '%s'", value.c_str());
        config.shardIndex = static_cast<int>(k);
        config.shardCount = static_cast<int>(n);
    } else if (flagValue(arg, "checkpoint-every", value)) {
        const long every = parseLong(value, "checkpoint-every");
        fatal_if(every < 0 || every > 100000000,
                 "--checkpoint-every must be in [0, 1e8]");
        config.checkpointEvery = static_cast<int>(every);
    } else if (flagValue(arg, "trace-cache-cap", value)) {
        const long cap = parseLong(value, "trace-cache-cap");
        fatal_if(cap < 0, "--trace-cache-cap must be >= 0");
        config.traceCacheCap = static_cast<size_t>(cap);
    } else {
        return false;
    }
    return true;
}

/** Write the buffered trace-event JSON (fatal on I/O failure). */
void
writeTraceFile(const TraceEventSink &sink, const std::string &path)
{
    std::ofstream os(path);
    fatal_if(!os, "cannot open '%s'", path.c_str());
    sink.write(os);
    std::cout << "[trace: " << path << "]\n";
}

/** Write one RunTelemetry summary (fatal on I/O failure). */
void
writeTelemetryFile(const RunTelemetry &t, const std::string &path)
{
    std::ofstream os(path);
    fatal_if(!os, "cannot open '%s'", path.c_str());
    writeRunTelemetryJson(t, os);
    std::cout << "[telemetry: " << path << "]\n";
}

/** Per-severity sibling of @p base: stem + ".sev-<tag>" + extension. */
std::string
severityPath(const std::string &base, const std::string &tag)
{
    const size_t dot = base.rfind('.');
    const size_t slash = base.find_last_of("/\\");
    const bool has_ext =
        dot != std::string::npos &&
        (slash == std::string::npos || dot > slash);
    const std::string stem = has_ext ? base.substr(0, dot) : base;
    const std::string ext = has_ext ? base.substr(dot) : ".json";
    return stem + ".sev-" + tag + ext;
}

// -------------------------------------------------------------- merge

int
cmdMerge(int argc, char **argv)
{
    std::string into, out_path, csv_path;
    std::vector<std::string> from;
    bool quiet = false;
    ObsOptions obs;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (obs.consume(arg)) {
            // observability flags (shared across verbs)
        } else if (flagValue(arg, "into", value)) {
            into = value;
        } else if (flagValue(arg, "from", value)) {
            for (const std::string &raw : split(value, ',')) {
                const std::string dir = trim(raw);
                if (!dir.empty())
                    from.push_back(dir);
            }
        } else if (flagValue(arg, "out", value)) {
            out_path = value;
        } else if (flagValue(arg, "csv", value)) {
            csv_path = value;
        } else {
            std::cerr << "merge: unknown option '" << arg << "'\n\n";
            usage();
            return 2;
        }
    }
    fatal_if(into.empty(), "merge: --into (destination store) is "
                           "required");
    fatal_if(from.empty(), "merge: --from (source stores) is required");
    obs.applyLogging(false);

    std::optional<TraceEventSink> trace_sink = obs.makeTraceSink();
    TraceEventSink *tsink = trace_sink ? &*trace_sink : nullptr;
    if (tsink)
        tsink->nameLane(0, "merge");
    TelemetryRegistry telemetry;
    telemetry.setEnabled(obs.wantsTelemetry());
    RunTelemetry mt;
    mt.tool = "merge";
    mt.threads = 1;
    mt.logicalClock = obs.logicalClock;

    // Open and validate every source before touching the destination:
    // a corrupt shard must fail the merge, not poison the merged store.
    const auto validate_start = std::chrono::steady_clock::now();
    std::vector<ResultStore> sources;
    int worst = 0;
    {
        TraceSpan span(tsink, 0, "validate", "stage");
        for (const std::string &dir : from) {
            std::string error;
            auto store = ResultStore::open(dir, &error);
            fatal_if(!store, "merge: cannot open '%s': %s", dir.c_str(),
                     error.c_str());
            worst = std::max(worst, validateStore(*store, quiet));
            sources.push_back(std::move(*store));
        }
    }
    const double validate_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - validate_start)
            .count();
    if (worst != 0)
        return worst;

    std::string error;
    const auto merge_start = std::chrono::steady_clock::now();
    std::optional<ResultStore> merged;
    {
        TraceSpan span(tsink, 0, "merge", "stage");
        merged = ResultStore::create(into, sources.front().sweep(),
                                     &error);
        fatal_if(!merged, "merge: cannot create '%s': %s", into.c_str(),
                 error.c_str());
        for (const ResultStore &src : sources) {
            fatal_if(!merged->mergeFrom(src, &error), "merge: %s",
                     error.c_str());
        }
    }
    const double merge_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - merge_start)
            .count();

    const auto reduce_start = std::chrono::steady_clock::now();
    StoreReduction reduction;
    {
        TraceSpan span(tsink, 0, "reduce", "stage");
        fatal_if(!reduceStore(*merged, reduction, &error), "merge: %s",
                 error.c_str());
    }
    const double reduce_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - reduce_start)
            .count();

    // The merge verb's telemetry summary: validate maps to the plan
    // slot, part copying to execute, reduction to reduce.
    if (telemetry.enabled()) {
        telemetry.count("merge.sources",
                        static_cast<uint64_t>(sources.size()));
        telemetry.count("merge.parts",
                        static_cast<uint64_t>(merged->parts().size()));
        telemetry.count("merge.records", merged->recordCount());
        telemetry.count("merge.duplicates", reduction.duplicates);
        mt.counters = telemetry.snapshot();
        mt.sessions = reduction.sessions;
        mt.events = static_cast<uint64_t>(reduction.metrics.events());
        mt.scenario = merged->sweep().scenario;
        if (!mt.logicalClock) {
            mt.planMs = validate_ms;
            mt.executeMs = merge_ms;
            mt.reduceMs = reduce_ms;
            mt.totalMs = validate_ms + merge_ms + reduce_ms;
            mt.recomputeRates();
        }
        if (!obs.telemetryOut.empty())
            writeTelemetryFile(mt, obs.telemetryOut);
    }
    if (tsink && !obs.traceOut.empty())
        writeTraceFile(*tsink, obs.traceOut);

    if (!reduction.problems.empty()) {
        for (const std::string &p : reduction.problems)
            std::cerr << "FAIL " << p << "\n";
        return kExitCorrupt;
    }
    if (!quiet) {
        std::cout << "merged " << sources.size() << " stores into "
                  << into << ": " << reduction.sessions << " sessions";
        if (reduction.duplicates > 0)
            std::cout << " (" << reduction.duplicates
                      << " duplicate re-runs deduplicated)";
        std::cout << "\n";
        if (reduction.missing > 0) {
            std::cout << "note: " << reduction.missing << " of "
                      << merged->sweep().expectedSessions()
                      << " expected sessions are not in the merged "
                         "store (partial sweep)\n";
        }
    }
    writeReports(makeStoreReport(*merged, reduction.metrics), out_path,
                 csv_path);
    return 0;
}

// --------------------------------------------------------------- diff

int
cmdDiff(int argc, char **argv)
{
    DiffOptions options;
    std::vector<std::string> paths;
    std::string out_path;
    std::string tolerance_file;
    std::string tolerance_out;
    int calibrate = 0;
    double sigmas = 3.0;
    bool quiet = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--exact") {
            options.exact = true;
        } else if (flagValue(arg, "calibrate", value)) {
            calibrate = static_cast<int>(parseLong(value, "calibrate"));
            fatal_if(calibrate < 2,
                     "diff: --calibrate needs at least 2 replicates");
        } else if (flagValue(arg, "sigmas", value)) {
            fatal_if(!parseDouble(value, sigmas) || sigmas <= 0.0,
                     "bad value '%s' for --sigmas", value.c_str());
        } else if (flagValue(arg, "tolerance-file", value)) {
            tolerance_file = value;
        } else if (flagValue(arg, "tolerance-out", value)) {
            tolerance_out = value;
        } else if (flagValue(arg, "tolerance", value)) {
            fatal_if(!parseDouble(value, options.relTolerance) ||
                         options.relTolerance < 0.0,
                     "bad value '%s' for --tolerance", value.c_str());
        } else if (flagValue(arg, "abs-tolerance", value)) {
            fatal_if(!parseDouble(value, options.absTolerance) ||
                         options.absTolerance < 0.0,
                     "bad value '%s' for --abs-tolerance",
                     value.c_str());
        } else if (flagValue(arg, "metric", value)) {
            for (const std::string &raw : split(value, ',')) {
                const std::string metric = trim(raw);
                if (!metric.empty())
                    options.metrics.push_back(metric);
            }
        } else if (flagValue(arg, "out", value)) {
            out_path = value;
        } else if (startsWith(arg, "--")) {
            std::cerr << "diff: unknown option '" << arg << "'\n\n";
            usage();
            return 1;
        } else {
            paths.push_back(arg);
        }
    }
    // Calibration mode: N replicate inputs -> a tolerance JSON that
    // both this verb (--tolerance-file) and `pes_perf gate` consume.
    if (calibrate > 0) {
        fatal_if(static_cast<int>(paths.size()) != calibrate,
                 "diff: --calibrate=%d expects exactly %d inputs, "
                 "got %d",
                 calibrate, calibrate, static_cast<int>(paths.size()));
        std::vector<FleetReport> replicates;
        std::vector<IntegrityProblem> problems;
        for (const std::string &path : paths) {
            DiffInput input = loadDiffInput(path);
            if (input.report)
                replicates.push_back(std::move(*input.report));
            problems.insert(problems.end(), input.problems.begin(),
                            input.problems.end());
        }
        if (!problems.empty()) {
            for (const IntegrityProblem &p : problems)
                std::cerr << "FAIL " << p.message << "\n";
            return integrityExitCode(problems);
        }
        std::vector<std::string> notes;
        const ToleranceSpec spec =
            calibrateTolerances(replicates, sigmas, &notes);
        for (const std::string &note : notes)
            std::cerr << note << "\n";
        const std::string json = toleranceSpecToJson(spec);
        if (!tolerance_out.empty()) {
            std::ofstream os(tolerance_out);
            fatal_if(!os, "cannot open '%s'", tolerance_out.c_str());
            os << json;
        } else {
            std::cout << json;
        }
        if (!quiet) {
            std::cerr << "calibrated " << spec.metrics.size()
                      << " metric band(s) from " << calibrate
                      << " replicates at " << sigmas << " sigma\n";
        }
        return 0;
    }

    ToleranceSpec calibrated;
    if (!tolerance_file.empty()) {
        std::string error;
        auto spec = loadToleranceSpec(tolerance_file, &error);
        fatal_if(!spec, "diff: %s", error.c_str());
        calibrated = std::move(*spec);
        options.tolerance = &calibrated;
    }

    fatal_if(paths.size() != 2,
             "diff: expected exactly two inputs (BASE TEST), got %d",
             static_cast<int>(paths.size()));

    // Load both sides; any load problem gates before comparison.
    const DiffInput base = loadDiffInput(paths[0]);
    const DiffInput test = loadDiffInput(paths[1]);
    if (!base.report || !test.report) {
        std::vector<IntegrityProblem> problems = base.problems;
        problems.insert(problems.end(), test.problems.begin(),
                        test.problems.end());
        for (const IntegrityProblem &p : problems)
            std::cerr << "FAIL " << p.message << "\n";
        return integrityExitCode(problems);
    }

    const DiffSummary summary =
        diffReports(*base.report, *test.report, options);
    if (!out_path.empty()) {
        std::ofstream os(out_path);
        fatal_if(!os, "cannot open '%s'", out_path.c_str());
        writeDiffJson(summary, options, os);
    }
    if (!quiet)
        printDiffSummary(summary, std::cout);
    // Name every drifted cell/metric on stderr even under --quiet:
    // a failing CI gate must say WHAT drifted in its log.
    for (const CellDiff &cell : summary.cells) {
        if (cell.outcome == DiffOutcome::Identical ||
            cell.outcome == DiffOutcome::WithinTolerance)
            continue;
        const std::string where = "(" + cell.device + ", " + cell.app +
            ", " + cell.scheduler + ")";
        if (cell.metrics.empty()) {
            std::cerr << "DRIFT " << where << ": cell "
                      << diffOutcomeName(cell.outcome) << "\n";
            continue;
        }
        for (const MetricDelta &d : cell.metrics) {
            if (d.outcome == DiffOutcome::WithinTolerance)
                continue;
            std::cerr << "DRIFT " << where << " " << d.metric << ": "
                      << diffOutcomeName(d.outcome) << " "
                      << csvNum(d.base) << " -> " << csvNum(d.test)
                      << "\n";
        }
    }
    for (const IntegrityProblem &p : summary.problems)
        std::cerr << "FAIL " << p.message << "\n";
    return diffExitCode(summary);
}

// --------------------------------------------------------------- work

/**
 * Coordinator worker: claim ranges from a lease queue, execute each as
 * an external-range fleet run into the shared result store, heartbeat
 * while running, and publish an observed sessions/sec estimate for the
 * coordinator's straggler-steal rule. Exits 0 when the queue drains.
 */
int
cmdWork(int argc, char **argv)
{
    std::string queue_dir;
    std::string worker_id;
    long threads = 0;
    long max_ranges = 0;
    long stall_ms = 0;
    long idle_timeout_ms = 120000;
    bool quiet = false;
    ObsOptions obs;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (obs.consume(arg)) {
            // observability flags (shared across verbs)
        } else if (flagValue(arg, "coordinator", value)) {
            queue_dir = value;
        } else if (flagValue(arg, "worker", value)) {
            worker_id = value;
        } else if (flagValue(arg, "threads", value)) {
            threads = parseLong(value, "threads");
            fatal_if(threads < 1 || threads > 4096,
                     "--threads must be in [1, 4096]");
        } else if (flagValue(arg, "max-ranges", value)) {
            max_ranges = parseLong(value, "max-ranges");
        } else if (flagValue(arg, "stall-after-claim-ms", value)) {
            // Chaos/CI hook: hold the first claimed lease this long
            // before executing it — a deterministic window to SIGKILL
            // the worker "mid-lease" and exercise expiry + reissue.
            stall_ms = parseLong(value, "stall-after-claim-ms");
        } else if (flagValue(arg, "idle-timeout-ms", value)) {
            idle_timeout_ms = parseLong(value, "idle-timeout-ms");
        } else {
            std::cerr << "work: unknown option '" << arg << "'\n\n";
            usage();
            return 1;
        }
    }
    fatal_if(queue_dir.empty(),
             "work: --coordinator=DIR (the lease queue) is required");
    obs.applyLogging(true);
    if (worker_id.empty())
        worker_id = "w" + std::to_string(static_cast<long>(::getpid()));

    std::string error;
    auto queue = LeaseQueue::open(queue_dir, &error);
    fatal_if(!queue, "work: %s", error.c_str());

    // Rebuild the sweep from the queue's stored identity; the store
    // create() below re-verifies it against the manifest, so a worker
    // from an incompatible build fails loudly before claiming.
    FleetConfig base = configOf(queue->plan());
    base.threads = threads > 0 ? static_cast<int>(threads)
                               : Experiment::defaultSweepThreads();
    auto store = ResultStore::create(queue->plan().resultsDir,
                                     SweepSpec::fromConfig(base),
                                     &error);
    fatal_if(!store, "work: cannot open results store: %s",
             error.c_str());

    std::optional<TraceEventSink> trace_sink = obs.makeTraceSink();
    RunTelemetry work_rt;

    uint64_t ranges_done = 0;
    uint64_t ranges_fenced = 0;
    bool stalled_once = false;
    int64_t idle_since = wallClockMs();

    for (;;) {
        std::vector<Lease> leases;
        fatal_if(!queue->loadLeases(&leases, &error), "work: %s",
                 error.c_str());
        uint64_t done = 0;
        const Lease *claimable = nullptr;
        for (const Lease &lease : leases) {
            if (lease.state == LeaseState::Done)
                ++done;
            else if (lease.state == LeaseState::Open && !claimable)
                claimable = &lease;
        }
        if (done == leases.size())
            break;
        if (!claimable) {
            // Everything pending is leased to peers; their leases
            // either complete or the coordinator expires them back to
            // open. Idle-wait, bounded so a dead coordinator cannot
            // hang the worker forever.
            if (wallClockMs() - idle_since > idle_timeout_ms) {
                std::cerr << "work: no claimable range for "
                          << idle_timeout_ms
                          << " ms and the sweep is not done (is "
                             "pes_coordinator run alive?)\n";
                return 2;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(40));
            continue;
        }

        Lease mine;
        if (!queue->tryClaim(*claimable, worker_id, wallClockMs(),
                             &mine, &error)) {
            fatal_if(!error.empty(), "work: %s", error.c_str());
            continue; // lost the race; rescan
        }
        idle_since = wallClockMs();
        if (stall_ms > 0 && !stalled_once) {
            stalled_once = true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(stall_ms));
        }

        // Heartbeat while the range executes. The runner has no
        // cooperative yield points, so renewal rides a side thread;
        // losing the lease mid-run only matters at publish time, where
        // the store fence (below) refuses the checkpoint.
        std::atomic<bool> hb_stop{false};
        std::thread hb([&] {
            const int64_t period =
                std::max<int64_t>(queue->plan().leaseMs / 3, 50);
            while (!hb_stop.load()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(period));
                if (hb_stop.load())
                    break;
                std::string hb_error;
                queue->heartbeat(mine, wallClockMs(), &hb_error);
            }
        });

        store->setPublishFence([&](std::string *why) {
            if (queue->stillOwned(mine))
                return true;
            if (why)
                *why = "range " + std::to_string(mine.seq) +
                       " epoch " + std::to_string(mine.epoch) +
                       " no longer held by " + worker_id;
            return false;
        });

        FleetConfig config = base;
        config.externalRanges = {JobRange{mine.first, mine.count}};
        config.persistLabel =
            worker_id + "-r" + std::to_string(mine.seq) + "-e" +
            std::to_string(mine.epoch);
        config.resultStore = &*store;
        TelemetryRegistry telemetry;
        telemetry.setEnabled(true);
        config.telemetry = &telemetry;
        if (trace_sink)
            config.traceSink = &*trace_sink;

        FleetRunner runner(std::move(config));
        FleetOutcome outcome = runner.run();

        hb_stop.store(true);
        hb.join();
        store->setPublishFence(nullptr);

        bool fenced = false;
        for (const std::string &d : outcome.diagnostics)
            fenced = fenced ||
                d.find("lease fenced") != std::string::npos;
        if (fenced) {
            // The lease was reissued under us: drop the range without
            // completing it — the new holder re-runs it, and whatever
            // we already checkpointed deduplicates at reduction.
            ++ranges_fenced;
            if (!quiet) {
                std::cout << "[" << worker_id << ": range "
                          << mine.seq << " fenced (lease reissued); "
                          << "abandoning]\n";
            }
            continue;
        }
        if (!outcome.diagnostics.empty()) {
            for (const std::string &d : outcome.diagnostics)
                std::cerr << "FAIL " << d << "\n";
            return 1;
        }

        foldRunTelemetry(work_rt, makeRunTelemetry(runner.config(),
                                                   outcome));
        if (!queue->complete(mine, &error)) {
            // Completed the work but lost the lease in the final
            // window — same as fenced: the re-run's records are
            // identical duplicates.
            ++ranges_fenced;
            continue;
        }
        ++ranges_done;
        if (!quiet) {
            std::cout << "[" << worker_id << ": range " << mine.seq
                      << " (" << mine.count << " jobs) done]\n";
        }

        // Publish the observed rate for the straggler-steal rule.
        WorkerRate rate;
        rate.worker = worker_id;
        rate.sessions = work_rt.sessions;
        rate.busyMs = work_rt.executeMs;
        rate.sessionsPerSec = work_rt.sessionsPerSec;
        rate.updatedMs = wallClockMs();
        std::string rate_error;
        if (!queue->writeWorkerRate(rate, &rate_error))
            warn("work: cannot publish rate: %s", rate_error.c_str());

        if (max_ranges > 0 &&
            ranges_done >= static_cast<uint64_t>(max_ranges))
            break;
    }

    if (!quiet) {
        std::cout << worker_id << ": " << ranges_done
                  << " range(s) done, " << work_rt.sessions
                  << " sessions";
        if (ranges_fenced > 0)
            std::cout << ", " << ranges_fenced << " fenced";
        std::cout << "\n";
    }
    if (obs.wantsTelemetry() && !obs.telemetryOut.empty()) {
        work_rt.tool = "work";
        writeTelemetryFile(work_rt, obs.telemetryOut);
    }
    if (trace_sink && !obs.traceOut.empty())
        writeTraceFile(*trace_sink, obs.traceOut);
    return 0;
}

// ------------------------------------------------------------- stress

/** --list-families: the discovery view of the scenario registry. */
int
listFamilies()
{
    Table table({"family", "ops", "description"});
    for (const ScenarioFamily &family : scenarioRegistry()) {
        std::vector<std::string> ops;
        for (const ScenarioOp &op : family.ops)
            ops.push_back(scenarioOpName(op.kind));
        table.beginRow()
            .cell(family.name)
            .cell(join(ops, "+"))
            .cell(family.description);
    }
    table.print(std::cout);
    std::cout << "or bring your own: --scenario-spec=FILE (JSON "
                 "pipeline over the same ops)\n";
    return 0;
}

/** Print classified problems and return their gateable exit code. */
int
failProblems(const std::vector<IntegrityProblem> &problems)
{
    for (const IntegrityProblem &p : problems)
        std::cerr << "FAIL " << p.message << "\n";
    return integrityExitCode(problems);
}

int
cmdStress(int argc, char **argv)
{
    FleetConfig base;
    base.schedulers = {SchedulerKind::Pes, SchedulerKind::Ebs};
    base.apps = parseAppList("cnn,amazon,social_feed");
    base.users = 100;
    base.threads = Experiment::defaultSweepThreads();

    std::string family_name, spec_path, severities_spec =
        "0,0.25,0.5,0.75,1";
    uint64_t scenario_seed = kDefaultScenarioSeed;
    std::string out_path, csv_path, reports_dir, results_dir, corpus_dir;
    bool resume = false;
    bool quiet = false;
    ObsOptions obs;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list-families") {
            return listFamilies();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (obs.consume(arg) || consumeSweepFlag(arg, base)) {
            // observability and sweep flags (shared across verbs)
        } else if (arg == "--resume") {
            resume = true;
        } else if (flagValue(arg, "family", value)) {
            family_name = value;
        } else if (flagValue(arg, "scenario-spec", value)) {
            spec_path = value;
        } else if (flagValue(arg, "severities", value)) {
            severities_spec = value;
        } else if (flagValue(arg, "scenario-seed", value)) {
            scenario_seed = parseSeed(value);
        } else if (flagValue(arg, "corpus", value)) {
            corpus_dir = value;
        } else if (flagValue(arg, "results-dir", value)) {
            results_dir = value;
        } else if (flagValue(arg, "reports-dir", value)) {
            reports_dir = value;
        } else if (flagValue(arg, "out", value)) {
            out_path = value;
        } else if (flagValue(arg, "csv", value)) {
            csv_path = value;
        } else {
            std::cerr << "stress: unknown option '" << arg << "'\n\n";
            usage();
            return 1;
        }
    }
    fatal_if(family_name.empty() == spec_path.empty(),
             "stress: exactly one of --family / --scenario-spec is "
             "required (--list-families shows the registry)");
    fatal_if(resume && results_dir.empty(),
             "stress: --resume requires --results-dir");
    const bool sharded = base.shardCount > 1;
    fatal_if(sharded && results_dir.empty(),
             "stress: --shard requires --results-dir (shards meet "
             "again via `pes_fleet merge` per severity)");
    fatal_if(sharded && (!out_path.empty() || !csv_path.empty()),
             "stress: a single shard cannot emit curves; merge the "
             "severity stores (`pes_fleet merge`) and re-run stress "
             "with --results-dir + --resume to reduce them");

    // Resolve the family: registry name or user spec. Every spec
    // failure is classified (3 missing file, 4 malformed/invalid) so
    // CI can gate on the contract.
    ScenarioFamily family;
    std::vector<IntegrityProblem> problems;
    if (!spec_path.empty()) {
        const auto loaded = loadScenarioSpec(spec_path, problems);
        if (!loaded)
            return failProblems(problems);
        family = *loaded;
    } else {
        const ScenarioFamily *found = findScenarioFamily(family_name);
        if (!found) {
            std::vector<std::string> known;
            for (const ScenarioFamily &f : scenarioRegistry())
                known.push_back(f.name);
            problems.push_back(
                {IntegrityProblem::Kind::Mismatch,
                 "unknown scenario family '" + family_name + "' (" +
                     join(known, ", ") + ")"});
            return failProblems(problems);
        }
        family = *found;
    }

    const std::vector<double> severities =
        parseSeverityList(severities_spec, problems);
    // An unparseable severity token must gate, not silently shrink the
    // grid: makeScenarioPlan only inspects problems it appends itself.
    if (!problems.empty())
        return failProblems(problems);
    const auto plan =
        makeScenarioPlan(family, severities, scenario_seed, problems);
    if (!plan)
        return failProblems(problems);

    obs.applyLogging(true);
    std::optional<CorpusStore> corpus;
    if (!corpus_dir.empty()) {
        std::string error;
        corpus = CorpusStore::open(corpus_dir, &error);
        fatal_if(!corpus, "cannot open corpus: %s", error.c_str());
        base.corpus = &*corpus;
    }

    // One trace sink spans the whole grid (stage spans carry the
    // scenario tag); each severity gets its own registry so its
    // summary covers that severity alone, then folds into the rollup.
    std::optional<TraceEventSink> trace_sink = obs.makeTraceSink();
    RunTelemetry rollup;

    std::vector<ScenarioCell> grid = plan->expand(base);
    if (!quiet) {
        std::cout << "stress: family " << family.name << " x "
                  << grid.size() << " severities over "
                  << base.apps.size() << " apps x "
                  << base.schedulers.size() << " schedulers x "
                  << std::max<size_t>(base.devices.size(), 1)
                  << " devices x " << base.users << " users ("
                  << base.threads << " threads)\n";
        std::cout.flush();
    }

    std::vector<std::pair<double, FleetReport>> reports;
    int run_problems = 0;
    for (ScenarioCell &cell : grid) {
        std::optional<ResultStore> store;
        if (!results_dir.empty()) {
            const std::string dir =
                (std::filesystem::path(results_dir) /
                 ("sev-" + cell.severityTag))
                    .string();
            std::string error;
            store = ResultStore::create(
                dir, SweepSpec::fromConfig(cell.config), &error);
            fatal_if(!store, "cannot open results dir: %s",
                     error.c_str());
            cell.config.resultStore = &*store;
            cell.config.resume = resume;
        }
        TelemetryRegistry telemetry;
        telemetry.setEnabled(obs.wantsTelemetry());
        if (obs.wantsTelemetry())
            cell.config.telemetry = &telemetry;
        if (trace_sink)
            cell.config.traceSink = &*trace_sink;
        cell.config.progress = obs.progress;
        FleetRunner runner(std::move(cell.config));
        const FleetOutcome outcome = runner.run();
        for (const std::string &d : outcome.diagnostics) {
            std::cerr << "FAIL " << cell.scenario << ": " << d << "\n";
            ++run_problems;
        }
        if (obs.wantsTelemetry()) {
            RunTelemetry part = makeRunTelemetry(runner.config(),
                                                 outcome);
            part.tool = "stress";
            if (!obs.telemetryOut.empty())
                writeTelemetryFile(part,
                                   severityPath(obs.telemetryOut,
                                                cell.severityTag));
            foldRunTelemetry(rollup, part);
        }
        FleetReport report =
            makeFleetReport(runner.config(), outcome.metrics);
        if (!reports_dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(reports_dir, ec);
            const std::string path =
                (std::filesystem::path(reports_dir) /
                 ("sev-" + cell.severityTag + ".json"))
                    .string();
            std::ofstream os(path);
            fatal_if(!os, "cannot open '%s'", path.c_str());
            JsonReporter::write(report, os);
        }
        if (!quiet) {
            std::cout << "  " << cell.scenario << ": "
                      << outcome.jobCount << " sessions in "
                      << formatDouble(outcome.wallMs / 1000.0, 2)
                      << " s\n";
            std::cout.flush();
        }
        reports.emplace_back(cell.severity, std::move(report));
    }
    // Grid-level artifacts: the folded rollup at the requested path
    // (per-severity summaries sit beside it) and one trace covering
    // every severity's pipeline.
    if (obs.wantsTelemetry() && !obs.telemetryOut.empty()) {
        rollup.tool = "stress";
        rollup.scenario = family.name;
        writeTelemetryFile(rollup, obs.telemetryOut);
    }
    if (trace_sink && !obs.traceOut.empty())
        writeTraceFile(*trace_sink, obs.traceOut);
    if (sharded) {
        if (!quiet) {
            std::cout << "shard " << base.shardIndex << "/"
                      << base.shardCount << " persisted under "
                      << results_dir << "; merge each sev-* store, "
                      "then `pes_fleet stress ... --results-dir="
                      "MERGED --resume` emits the curves\n";
        }
        return run_problems > 0 ? 1 : 0;
    }

    const auto robustness =
        makeRobustnessReport(family.name, std::move(reports), problems);
    if (!robustness)
        return failProblems(problems);

    // Human summary: the headline per-scheduler scores.
    Table table({"scheduler", "robustness", "worst_degradation"});
    for (const SchedulerRobustness &s : robustness->schedulers_summary) {
        table.beginRow()
            .cell(s.scheduler)
            .cell(s.score, 4)
            .cell(s.worstDegradation, 4);
    }
    table.print(std::cout);

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        fatal_if(!os, "cannot open '%s'", out_path.c_str());
        writeRobustnessJson(*robustness, os);
        std::cout << "[curves json: " << out_path << "]\n";
    }
    if (!csv_path.empty()) {
        std::ofstream os(csv_path);
        fatal_if(!os, "cannot open '%s'", csv_path.c_str());
        writeRobustnessCsv(*robustness, os);
        std::cout << "[curves csv: " << csv_path << "]\n";
    }
    return run_problems > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && argv[1] == std::string("merge"))
        return cmdMerge(argc, argv);
    if (argc > 1 && argv[1] == std::string("diff"))
        return cmdDiff(argc, argv);
    if (argc > 1 && argv[1] == std::string("stress"))
        return cmdStress(argc, argv);
    if (argc > 1 && argv[1] == std::string("work"))
        return cmdWork(argc, argv);
    // "run" is the default verb; accept it spelled out for symmetry
    // with merge/diff/stress.
    const int arg_start =
        (argc > 1 && argv[1] == std::string("run")) ? 2 : 1;

    FleetConfig config;
    config.schedulers = {SchedulerKind::Pes, SchedulerKind::Ebs};
    config.apps = parseAppList("cnn,amazon,social_feed");
    config.users = 100;
    config.threads = Experiment::defaultSweepThreads();

    std::string out_path;
    std::string csv_path;
    std::string corpus_dir;
    std::string results_dir;
    std::string population_ref;
    bool quiet = false;
    ObsOptions obs;

    for (int i = arg_start; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list-apps") {
            return listApps();
        } else if (arg == "--list-devices") {
            return listDevices();
        } else if (arg == "--list-populations") {
            return listPopulations();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (obs.consume(arg) || consumeSweepFlag(arg, config)) {
            // observability and sweep flags (shared across verbs)
        } else if (arg == "--resume") {
            config.resume = true;
        } else if (flagValue(arg, "results-dir", value)) {
            results_dir = value;
        } else if (flagValue(arg, "population", value)) {
            population_ref = value;
        } else if (flagValue(arg, "corpus", value)) {
            corpus_dir = value;
        } else if (flagValue(arg, "out", value)) {
            out_path = value;
        } else if (flagValue(arg, "csv", value)) {
            csv_path = value;
        } else {
            std::cerr << "unknown option '" << arg << "'\n\n";
            usage();
            return 1;
        }
    }
    obs.applyLogging(true);

    fatal_if(config.resume && results_dir.empty(),
             "--resume requires --results-dir");

    // Mixture population: the spec lives here so the config (and the
    // runner it moves into) can borrow it for the whole run.
    std::optional<PopulationSpec> population;
    if (!population_ref.empty()) {
        const int rc =
            applyPopulationFlag(population_ref, population, config);
        if (rc != 0)
            return rc;
    }

    // Corpus replay: same axes and seeds, traces read from disk.
    std::optional<CorpusStore> corpus;
    if (!corpus_dir.empty()) {
        std::string error;
        corpus = CorpusStore::open(corpus_dir, &error);
        fatal_if(!corpus, "cannot open corpus: %s", error.c_str());
        config.corpus = &*corpus;
    }

    // Result store: created (or re-opened for resume) with the sweep's
    // identity — a directory never silently mixes two sweeps.
    std::optional<ResultStore> store;
    if (!results_dir.empty()) {
        std::string error;
        store = ResultStore::create(results_dir,
                                    SweepSpec::fromConfig(config),
                                    &error);
        fatal_if(!store, "cannot open results dir: %s", error.c_str());
        config.resultStore = &*store;
    }

    // Observability: armed only when an artifact was requested, so the
    // default run pays nothing but null-pointer branches.
    std::optional<TraceEventSink> trace_sink = obs.makeTraceSink();
    TelemetryRegistry telemetry;
    telemetry.setEnabled(obs.wantsTelemetry());
    if (obs.wantsTelemetry())
        config.telemetry = &telemetry;
    if (trace_sink)
        config.traceSink = &*trace_sink;
    config.progress = obs.progress;

    FleetRunner runner(std::move(config));
    const FleetConfig &cfg = runner.config();
    if (!quiet) {
        std::cout << "fleet: " << cfg.apps.size() << " apps x "
                  << cfg.schedulers.size() << " schedulers x "
                  << cfg.devices.size() << " devices x " << cfg.users
                  << " users = " << runner.jobs().size()
                  << " sessions on " << cfg.threads << " threads\n";
        if (cfg.shardCount > 1) {
            std::cout << "shard " << cfg.shardIndex << "/"
                      << cfg.shardCount << "\n";
        }
        const bool needs_pes = [&] {
            for (const SchedulerKind k : cfg.schedulers)
                if (k == SchedulerKind::Pes)
                    return true;
            return false;
        }();
        if (needs_pes)
            std::cout << "training event model(s)...\n";
        std::cout.flush();
    }

    FleetOutcome outcome = runner.run();
    const FleetReport report = makeFleetReport(cfg, outcome.metrics);

    // Human summary: one row per cell.
    Table table({"device", "app", "scheduler", "sessions", "viol%",
                 "energy(mJ)", "waste(mJ)", "lat(ms)", "p95(ms)",
                 "pred%"});
    for (const CellSummary &c : report.cells) {
        table.beginRow()
            .cell(c.device)
            .cell(c.app)
            .cell(c.scheduler)
            .cell(static_cast<long>(c.sessions))
            .cell(c.violationRate * 100.0, 2)
            .cell(c.meanEnergyMj, 1)
            .cell(c.meanWasteEnergyMj, 1)
            .cell(c.meanLatencyMs, 2)
            .cell(c.p95SessionLatencyMs, 2)
            .cell(c.predictionAccuracy * 100.0, 1);
    }
    table.print(std::cout);

    writeReports(report, out_path, csv_path);
    if (obs.wantsTelemetry() && !obs.telemetryOut.empty())
        writeTelemetryFile(makeRunTelemetry(cfg, outcome),
                           obs.telemetryOut);
    if (trace_sink && !obs.traceOut.empty())
        writeTraceFile(*trace_sink, obs.traceOut);

    if (!quiet && outcome.tracesFromCorpus > 0) {
        std::cout << "[corpus: " << outcome.tracesFromCorpus
                  << " traces replayed from disk]\n";
    }
    if (!quiet && cfg.resultStore) {
        std::cout << "[results: " << outcome.persistedRecords
                  << " sessions persisted in " << outcome.checkpointFlushes
                  << " checkpoint(s); store holds "
                  << cfg.resultStore->recordCount() << " records]\n";
        if (outcome.plan.resumeSkipped > 0) {
            std::cout << "[resume: skipped " << outcome.plan.resumeSkipped
                      << " already-completed sessions]\n";
        }
    }
    const double secs = outcome.wallMs / 1000.0;
    std::cout << outcome.jobCount << " sessions, "
              << outcome.metrics.events() << " events in "
              << formatDouble(secs, 2) << " s ("
              << formatDouble(secs > 0 ? outcome.jobCount / secs : 0.0, 1)
              << " sessions/s, " << cfg.threads << " threads)\n";
    if (!outcome.diagnostics.empty()) {
        for (const std::string &d : outcome.diagnostics)
            std::cerr << "FAIL " << d << "\n";
        std::cerr << outcome.diagnostics.size()
                  << " run-level problem(s); reports cover completed "
                     "sessions only\n";
        return 1;
    }
    return 0;
}
