#include "traced_run.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>

#include "bench_stats.hh"
#include "core/optimizer.hh"
#include "hw/dvfs_model.hh"
#include "hw/power_model.hh"
#include "results/result_reduce.hh"
#include "runner/metrics_aggregator.hh"
#include "runner/reporters.hh"
#include "spans.hh"
#include "timed_driver.hh"
#include "trace/generator.hh"
#include "util/psketch.hh"
#include "util/rng.hh"
#include "web/dom_analyzer.hh"
#include "web/event_types.hh"
#include "web/vsync.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** FleetRunner's salt for per-session speculation-noise seeds. */
constexpr uint64_t kSpecNoiseSalt = 0x5eedu;
/** User 0 of each cell of the first kSpannedApps apps records every
 *  span; the other sessions are timed in aggregate only, which bounds
 *  the span buffer (a governor session makes thousands of callbacks). */
constexpr size_t kSpannedApps = 3;
/** Users per app whose traces feed the direct layer probes. */
constexpr int kProbeUsers = 2;
/** Probe spans use session ids above every fleet job index. */
constexpr uint64_t kProbeSessionBase = uint64_t{1} << 32;
/** Oracle plans at t = 2 ms: it charges 2 ms of scheduler compute at
 *  t = 0 before solving (OracleScheduler::begin). */
constexpr pes::TimeMs kOracleChainStartMs = 2.0;
/** Plan windows of the PES shape: 2 to 10 events. */
constexpr int kMinWindow = 2;
constexpr int kMaxWindow = 10;
/** Upper bound on untraced/armed run pairs. */
constexpr int kMaxPairs = 5;
/** Workers of the armed run that pool and lock contention are read
 *  from. The timed runs use one worker (see workloads.cc), where the
 *  locks never contend and the pool never waits for a peer. */
constexpr int kContentionWorkers = 2;
/** Check failures listed at most; the first one already fails the run. */
constexpr size_t kMaxProblems = 20;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

int64_t
nsSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

/** Per-session and per-call measurements of the replay and the probes. */
struct LayerSamples
{
    DriverTimes driver;
    std::vector<double> generateUs;
    uint64_t traceEvents = 0;
    std::vector<double> sessionMs;
    /** runStats time minus the driver callbacks inside it (ns). */
    int64_t simSelfNs = 0;
    int64_t simNs = 0;
    uint64_t sessions = 0;
    uint64_t solverSessions = 0;
    uint64_t events = 0;
    uint64_t violations = 0;
    double energyMj = 0.0;
    double wasteMj = 0.0;
    double closureErrMj = 0.0;
    uint64_t predictionsMade = 0;
    uint64_t predictionsCorrect = 0;
    double mispredictWasteMs = 0.0;
    uint64_t fallbackSessions = 0;
    pes::PercentileSketch latency;
    std::vector<double> sketchMergeUs;
    pes::MetricsAggregator metrics;
    /** Session records, kept when the run writes no store. */
    std::vector<pes::SessionRecord> records;
    /** Traces of users < kProbeUsers, with their app and user. */
    std::vector<pes::InteractionTrace> probeTraces;
    std::vector<const pes::AppProfile *> probeProfiles;
    std::vector<int> probeUsers;

    std::vector<double> analyzeUs;
    std::vector<double> chainSolveMs;
    int chainEventsMax = 0;
    int chainInfeasible = 0;
    std::vector<double> windowSolveUs;
    std::vector<double> buildProblemUs;
    double trainMs = 0.0;
    double reduceStoreMs = 0.0;
    uint64_t storeRecords = 0;
};

/** Shared immutable device state of the replay and probes. Pinned:
 *  the generator and optimizer hold pointers into it. */
struct Device
{
    explicit Device(const pes::AcmpPlatform &p)
        : platform(p), power(platform), generator(platform),
          latency(platform), optimizer(latency, power, vsync)
    {
    }
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    pes::AcmpPlatform platform;
    pes::PowerModel power;
    pes::TraceGenerator generator;
    pes::DvfsLatencyModel latency;
    pes::VsyncClock vsync;
    pes::GlobalOptimizer optimizer;
};

void
addProblem(std::vector<std::string> &problems, std::string problem)
{
    if (problems.size() < kMaxProblems)
        problems.push_back(std::move(problem));
}

/**
 * Replay every session of the sweep in canonical order, the way a
 * FleetRunner worker does: synthesize each (app, user) trace once,
 * replay it under each scheduler with a fresh driver behind the timing
 * wrapper, and reduce with runStats. Sampled sessions (see
 * kSpannedApps) record spans.
 */
void
replay(const WorkloadSpec &w, const pes::FleetConfig &config,
       const pes::LogisticModel &model, Device &device, SpanRecorder &spans,
       LayerSamples &t, std::vector<std::string> &problems)
{
    const int users = config.effectiveUsers();
    const size_t num_schedulers = config.schedulers.size();
    for (size_t a = 0; a < config.apps.size(); ++a) {
        const pes::AppProfile &profile = config.apps[a];
        pes::RuntimeSimulator engine(device.platform, device.power,
                                     device.generator.appFor(profile),
                                     fleetSimConfig(profile, 0));
        for (int u = 0; u < users; ++u) {
            const uint64_t user_seed = pes::fleetUserSeed(config, u);
            pes::InteractionTrace trace;
            for (size_t s = 0; s < num_schedulers; ++s) {
                const pes::SchedulerKind kind = config.schedulers[s];
                const uint64_t session =
                    (a * num_schedulers + s) * static_cast<uint64_t>(users) +
                    static_cast<uint64_t>(u);
                SpanRecorder *rec =
                    u == 0 && a < kSpannedApps ? &spans : nullptr;
                ScopedSpan session_span(rec, "runner.session", session);
                if (s == 0) {
                    ScopedSpan span(rec, "trace.generate", session);
                    const auto t0 = Clock::now();
                    trace = device.generator.generate(profile, user_seed);
                    t.generateUs.push_back(usSince(t0));
                    t.traceEvents += trace.events.size();
                }

                std::unique_ptr<pes::SchedulerDriver> driver =
                    makeDriver(kind, &model);
                TimedDriver timed(*driver, t.driver, rec, session);
                engine.setSpecNoiseSeed(
                    pes::hashCombine(user_seed, kSpecNoiseSalt));
                const int64_t driver_ns = t.driver.ns;
                pes::SessionStats stats;
                const auto t0 = Clock::now();
                {
                    ScopedSpan span(rec, "sim.runStats", session);
                    stats = engine.runStats(trace, timed);
                }
                const int64_t sim_ns = nsSince(t0);
                t.simNs += sim_ns;
                t.simSelfNs += sim_ns - (t.driver.ns - driver_ns);
                t.sessionMs.push_back(static_cast<double>(sim_ns) / 1e6);

                ++t.sessions;
                t.solverSessions += usesSolver(kind) ? 1 : 0;
                t.events += static_cast<uint64_t>(stats.events);
                t.violations += static_cast<uint64_t>(stats.violations);
                t.energyMj += stats.totalEnergyMj;
                t.wasteMj += stats.wasteEnergyMj;
                t.predictionsMade +=
                    static_cast<uint64_t>(stats.predictionsMade);
                t.predictionsCorrect +=
                    static_cast<uint64_t>(stats.predictionsCorrect);
                t.mispredictWasteMs += stats.mispredictWasteMs;
                t.fallbackSessions += stats.fellBackToReactive ? 1 : 0;
                const double parts = stats.busyEnergyMj +
                    stats.idleEnergyMj + stats.overheadEnergyMj +
                    stats.wasteEnergyMj;
                const double err = std::fabs(stats.totalEnergyMj - parts);
                t.closureErrMj = std::max(t.closureErrMj, err);
                if (!(err <= kEnergyClosureTolerance *
                                 std::max(1.0, stats.totalEnergyMj)))
                    addProblem(problems,
                               "session " + std::to_string(session) +
                                   ": energy parts miss the total by " +
                                   std::to_string(err) + " mJ");

                {
                    ScopedSpan span(rec, "util.sketchMerge", session);
                    const auto m0 = Clock::now();
                    t.latency.merge(stats.latencySketch);
                    t.sketchMergeUs.push_back(usSince(m0));
                }
                const char *scheduler = pes::schedulerKindName(kind);
                if (!w.persist) {
                    pes::SessionRecord record;
                    record.device = device.platform.name();
                    record.app = profile.name;
                    record.scheduler = scheduler;
                    record.userIndex = static_cast<uint32_t>(u);
                    record.userSeed = user_seed;
                    record.stats = stats;
                    t.records.push_back(std::move(record));
                }
                t.metrics.add(device.platform.name(), profile.name, scheduler,
                              stats);
            }
            if (u < kProbeUsers) {
                t.probeTraces.push_back(std::move(trace));
                t.probeProfiles.push_back(&profile);
                t.probeUsers.push_back(u);
            }
        }
    }
}

/** DomAnalyzer::analyze on each state the probe traces walk through. */
void
probeWeb(Device &device, SpanRecorder &spans, LayerSamples &t)
{
    for (size_t i = 0; i < t.probeTraces.size(); ++i) {
        const uint64_t id = kProbeSessionBase + i;
        ScopedSpan root(&spans, "web.probe", id);
        pes::WebAppSession session(
            device.generator.appFor(*t.probeProfiles[i]));
        const pes::DomAnalyzer analyzer(session);
        for (const pes::TraceEvent &ev : t.probeTraces[i].events) {
            {
                ScopedSpan span(&spans, "web.analyze", id);
                const auto t0 = Clock::now();
                analyzer.analyze(session.snapshotState());
                t.analyzeUs.push_back(usSince(t0));
            }
            session.commitEvent(ev.node, ev.type);
        }
    }
}

/** buildProblem + solve on the traces of user 0 of each app: the whole
 *  trace as one chain (the instance OracleScheduler builds) and every
 *  sliding PES-shaped window of it. */
void
probeSolver(Device &device, SpanRecorder &spans, LayerSamples &t,
            std::vector<std::string> &problems)
{
    const pes::AcmpConfig start_config = device.platform.minConfig();
    for (size_t i = 0; i < t.probeTraces.size(); ++i) {
        const std::vector<pes::TraceEvent> &events = t.probeTraces[i].events;
        const uint64_t id = kProbeSessionBase + i;
        if (t.probeUsers[i] != 0)
            continue;
        {
            ScopedSpan chain(&spans, "solver.chain", id);
            std::vector<pes::PlanEventSpec> specs;
            specs.reserve(events.size());
            for (const pes::TraceEvent &ev : events) {
                pes::PlanEventSpec spec;
                spec.work = ev.totalWork();
                spec.qosTarget = ev.qosTarget();
                spec.arrival = ev.arrival;
                specs.push_back(spec);
            }
            pes::ScheduleProblem problem;
            {
                ScopedSpan span(&spans, "solver.buildProblem", id);
                problem = device.optimizer.buildProblem(
                    kOracleChainStartMs, start_config, specs);
            }
            ScopedSpan span(&spans, "solver.solve", id);
            const auto t0 = Clock::now();
            const pes::ScheduleSolution solution =
                device.optimizer.solve(problem);
            t.chainSolveMs.push_back(usSince(t0) / 1000.0);
            t.chainInfeasible += solution.feasible ? 0 : 1;
            if (solution.configOf.size() != specs.size())
                addProblem(problems, "chain solve returned a partial plan");
            t.chainEventsMax =
                std::max(t.chainEventsMax, static_cast<int>(events.size()));
        }

        const int n = static_cast<int>(events.size());
        for (int first = 0; first + kMinWindow <= n; ++first) {
            const int size =
                kMinWindow + first % (kMaxWindow - kMinWindow + 1);
            const int last = std::min(n, first + size);
            ScopedSpan window(&spans, "solver.window", id);
            // PES's window: the head has arrived; the rest are
            // predicted, loads with an expected arrival (the default
            // ExpectedGapLoads deadline model), others chained.
            std::vector<pes::PlanEventSpec> specs;
            for (int j = first; j < last; ++j) {
                const pes::TraceEvent &ev = events[static_cast<size_t>(j)];
                pes::PlanEventSpec spec;
                spec.work = ev.totalWork();
                spec.qosTarget = ev.qosTarget();
                if (j == first)
                    spec.arrival = ev.arrival;
                else if (pes::interactionOf(ev.type) ==
                         pes::Interaction::Load)
                    spec.expectedArrival = ev.arrival;
                specs.push_back(spec);
            }
            const pes::TimeMs now = events[static_cast<size_t>(first)].arrival;
            pes::ScheduleProblem problem;
            {
                ScopedSpan span(&spans, "solver.buildProblem", id);
                const auto t0 = Clock::now();
                problem =
                    device.optimizer.buildProblem(now, start_config, specs);
                t.buildProblemUs.push_back(usSince(t0));
            }
            ScopedSpan span(&spans, "solver.solve", id);
            const auto t0 = Clock::now();
            const pes::ScheduleSolution solution =
                device.optimizer.solve(problem);
            t.windowSolveUs.push_back(usSince(t0));
            if (solution.configOf.size() != specs.size())
                addProblem(problems, "window solve returned a partial plan");
        }
    }
}

/**
 * reduceStore on the workload's store: the one the run persisted when
 * the workload persists, else one written here from the replay's
 * records (in checkpoint-sized parts). Its report must equal the run's.
 */
void
probeResults(const WorkloadSpec &w, const pes::FleetConfig &config,
             const std::string &run_store, const std::string &probe_store,
             const std::string &report, SpanRecorder &spans, LayerSamples &t,
             std::vector<std::string> &problems)
{
    ScopedSpan root(&spans, "results.probe", kProbeSessionBase);
    std::string error;
    std::optional<pes::ResultStore> store;
    if (w.persist) {
        store = pes::ResultStore::open(run_store, &error);
    } else {
        removeTree(probe_store);
        store = pes::ResultStore::create(
            probe_store, pes::SweepSpec::fromConfig(config), &error);
        const size_t part = static_cast<size_t>(config.checkpointEvery);
        for (size_t first = 0; store && first < t.records.size();
             first += part) {
            const size_t last = std::min(t.records.size(), first + part);
            const std::vector<pes::SessionRecord> batch(
                t.records.begin() + static_cast<std::ptrdiff_t>(first),
                t.records.begin() + static_cast<std::ptrdiff_t>(last));
            if (!store->appendPart(batch, "probe", {}, &error))
                store.reset();
        }
    }
    if (!store) {
        addProblem(problems, "results probe: " + error);
        return;
    }
    pes::StoreReduction reduction;
    bool ok = false;
    {
        ScopedSpan span(&spans, "results.reduceStore", kProbeSessionBase);
        const auto t0 = Clock::now();
        ok = pes::reduceStore(*store, reduction, &error);
        t.reduceStoreMs = usSince(t0) / 1000.0;
    }
    if (!ok) {
        addProblem(problems, "reduceStore: " + error);
        return;
    }
    for (const std::string &p : reduction.problems)
        addProblem(problems, "reduceStore: " + p);
    t.storeRecords = reduction.sessions;
    if (pes::JsonReporter::toString(
            pes::makeStoreReport(*store, reduction.metrics)) != report)
        addProblem(problems, "report reduced from the store differs from "
                             "the run's report");
}

std::string
tailNote(const std::string &name, const TailStat &t)
{
    std::ostringstream os;
    os << name << ": p" << std::setprecision(4) << t.percentile << " of n="
       << t.n
       << (t.qualified ? "" : " (n <= 10: no tail percentile, median shown)");
    return os.str();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

pes::SimConfig
fleetSimConfig(const pes::AppProfile &profile, uint64_t user_seed)
{
    pes::SimConfig config;
    config.renderScale = profile.renderScale;
    config.specNoiseSeed = pes::hashCombine(user_seed, kSpecNoiseSalt);
    return config;
}

TracedResult
runTraced(const WorkloadSpec &w, uint64_t seed, double seconds,
          const std::string &work_dir)
{
    TracedResult out;
    const std::string run_store = work_dir + "/store";

    // ---- The end-to-end path, alternately untraced and armed: the
    // difference is the cost of arming telemetry. ----
    std::vector<double> bare_rates;
    std::vector<double> armed_rates;
    std::string report;
    pes::RunTelemetry telemetry;
    pes::FleetConfig config;
    const auto start = Clock::now();

    // ---- Pool and lock contention, from an armed run with more
    // workers; its report must not depend on the worker count. ----
    std::string contention_report;
    pes::RunTelemetry contention;
    {
        WorkloadSpec wide = w;
        wide.threads = kContentionWorkers;
        removeTree(run_store);
        pes::TelemetryRegistry registry;
        const std::unique_ptr<Setup> setup =
            makeSetup(wide, seed, run_store, &registry);
        const FleetRun run = runFleet(*setup);
        for (const std::string &p : checkRun(wide, run))
            addProblem(out.problems, p);
        out.attempted += static_cast<uint64_t>(run.attempted);
        out.failed += static_cast<uint64_t>(run.failed);
        contention_report = run.reportJson;
        contention = run.telemetry;
    }
    for (int pair = 0; pair == 0 ||
         (pair < kMaxPairs &&
          std::chrono::duration<double>(Clock::now() - start).count() <
              seconds);
         ++pair) {
        for (const bool armed : {false, true}) {
            removeTree(run_store);
            pes::TelemetryRegistry registry;
            const std::unique_ptr<Setup> setup = makeSetup(
                w, seed, run_store, armed ? &registry : nullptr);
            const FleetRun run = runFleet(*setup);
            for (const std::string &p : checkRun(w, run))
                addProblem(out.problems, p);
            out.attempted += static_cast<uint64_t>(run.attempted);
            out.failed += static_cast<uint64_t>(run.failed);
            if (report.empty())
                report = run.reportJson;
            else if (run.reportJson != report)
                addProblem(out.problems,
                           "report differs between repeated runs");
            (armed ? armed_rates : bare_rates)
                .push_back(run.attempted / run.wallS);
            if (armed)
                telemetry = run.telemetry;
            config = setup->runner->config();
        }
    }
    if (contention_report != report)
        addProblem(out.problems,
                   "report of the " + std::to_string(kContentionWorkers) +
                       "-worker run differs from the timed runs'");
    // The replay builds its own drivers and store; keep only the axes.
    config.pretrainedModel = nullptr;
    config.resultStore = nullptr;
    config.telemetry = nullptr;

    // ---- Replay and probes, recording spans. ----
    SpanRecorder spans;
    LayerSamples t;
    Device device(config.devices.front());
    std::optional<pes::LogisticModel> model;
    {
        ScopedSpan span(&spans, "core.trainEventModel", kProbeSessionBase);
        const auto t0 = Clock::now();
        model = trainModel(config);
        t.trainMs = usSince(t0) / 1000.0;
    }
    const auto replay_start = Clock::now();
    replay(w, config, *model, device, spans, t, out.problems);
    const double replay_ms = usSince(replay_start) / 1000.0;
    const std::string replay_report = pes::JsonReporter::toString(
        pes::makeFleetReport(config, t.metrics));
    if (replay_report != report)
        addProblem(out.problems, "per-cell replay does not reproduce the "
                                 "run's report");
    if (t.sessions != static_cast<uint64_t>(config.jobCount()))
        addProblem(out.problems, "replay ran " + std::to_string(t.sessions) +
                                     " sessions, expected " +
                                     std::to_string(config.jobCount()));
    probeWeb(device, spans, t);
    probeSolver(device, spans, t, out.problems);
    probeResults(w, config, run_store, work_dir + "/probe_store", report,
                 spans, t, out.problems);

    const std::string spans_path = work_dir + "/spans-" + w.name + ".json";
    {
        std::ofstream os(spans_path);
        spans.writeChromeTrace(os);
        if (!os)
            addProblem(out.problems, "cannot write " + spans_path);
    }
    out.notes.push_back("spans: " + std::to_string(spans.spans().size()) +
                        " written to " + spans_path);
    for (const auto &[name, lt] : layerTimes(spans.spans())) {
        std::ostringstream os;
        os << "self time " << name << ": " << std::fixed
           << std::setprecision(3) << lt.selfMs << " ms of "
           << lt.totalMs << " ms over " << lt.spans << " spans";
        out.notes.push_back(os.str());
    }
    const std::pair<const char *, TailStat> tails[] = {
        {"trace.generate_us_tail", tail(t.generateUs)},
        {"web.analyze_us_tail", tail(t.analyzeUs)},
        {"core.plan_us_tail", tail(t.driver.planUs)},
        {"solver.chain_solve_ms_tail", tail(t.chainSolveMs)},
        {"solver.window_solve_us_tail", tail(t.windowSolveUs)},
        {"sim.session_ms_tail", tail(t.sessionMs)},
    };
    for (const auto &[name, stat] : tails)
        out.notes.push_back(tailNote(name, stat));

    const double bare = median(bare_rates);
    const double armed = median(armed_rates);
    const double cache_lookups =
        static_cast<double>(telemetry.cacheHits + telemetry.cacheMisses);
    const double driver_ms = static_cast<double>(t.driver.ns) / 1e6;
    const auto count = [](uint64_t v) { return static_cast<double>(v); };
    out.metrics = {
        {"runner.execute_ms", telemetry.executeMs, "ms"},
        {"runner.persist_ms", telemetry.persistMs, "ms"},
        {"runner.reduce_ms", telemetry.reduceMs, "ms"},
        {"runner.pool_busy_ms", telemetry.poolBusyMs, "ms"},
        {"runner.pool_idle_frac",
         ratio(contention.poolIdleMs,
               contention.poolBusyMs + contention.poolIdleMs),
         "fraction"},
        {"runner.cache_lock_waits", count(contention.cacheLockWaits),
         "count"},
        {"runner.persist_lock_waits", count(contention.persistLockWaits),
         "count"},
        {"corpus.cache_hits", count(telemetry.cacheHits), "count"},
        {"corpus.cache_misses", count(telemetry.cacheMisses), "count"},
        {"corpus.cache_hit_frac",
         ratio(count(telemetry.cacheHits), cache_lookups), "fraction"},
        {"corpus.duplicate_synthesis",
         count(telemetry.cacheDuplicateSynthesis), "count"},
        {"trace.generate_calls", count(t.generateUs.size()), "count"},
        {"trace.generate_ms", sum(t.generateUs) / 1000.0, "ms"},
        {"trace.generate_us_p50", median(t.generateUs), "us"},
        {"trace.generate_us_tail", tail(t.generateUs).value, "us"},
        {"trace.events", count(t.traceEvents), "count"},
        {"web.analyze_calls", count(t.analyzeUs.size()), "count"},
        {"web.analyze_us_p50", median(t.analyzeUs), "us"},
        {"web.analyze_us_tail", tail(t.analyzeUs).value, "us"},
        {"core.train_ms", t.trainMs, "ms"},
        {"core.driver_calls", count(t.driver.calls), "count"},
        {"core.driver_ms", driver_ms, "ms"},
        {"core.driver_frac", ratio(static_cast<double>(t.driver.ns),
                                   static_cast<double>(t.simNs)),
         "fraction"},
        {"core.plan_us_p50", median(t.driver.planUs), "us"},
        {"core.plan_us_tail", tail(t.driver.planUs).value, "us"},
        {"core.predictions_made", count(t.predictionsMade), "count"},
        {"core.prediction_hit_frac",
         ratio(count(t.predictionsCorrect), count(t.predictionsMade)),
         "fraction"},
        {"core.mispredict_waste_ms", t.mispredictWasteMs, "sim_ms"},
        {"core.fallback_sessions", count(t.fallbackSessions), "count"},
        {"solver.run_sessions", count(t.solverSessions), "count"},
        {"solver.chain_solves", count(t.chainSolveMs.size()), "count"},
        {"solver.chain_events_max", static_cast<double>(t.chainEventsMax),
         "count"},
        {"solver.chain_solve_ms_p50", median(t.chainSolveMs), "ms"},
        {"solver.chain_solve_ms_tail", tail(t.chainSolveMs).value, "ms"},
        {"solver.chain_infeasible_frac",
         ratio(t.chainInfeasible, count(t.chainSolveMs.size())),
         "fraction"},
        {"solver.window_solves", count(t.windowSolveUs.size()), "count"},
        {"solver.window_solve_us_p50", median(t.windowSolveUs), "us"},
        {"solver.window_solve_us_tail", tail(t.windowSolveUs).value, "us"},
        {"solver.build_problem_us_p50", median(t.buildProblemUs), "us"},
        {"sim.sessions", count(t.sessions), "count"},
        {"sim.events", count(t.events), "count"},
        {"sim.self_ms", static_cast<double>(t.simSelfNs) / 1e6, "ms"},
        {"sim.session_ms_p50", median(t.sessionMs), "ms"},
        {"sim.session_ms_tail", tail(t.sessionMs).value, "ms"},
        {"sim.violation_pct",
         100.0 * ratio(count(t.violations), count(t.events)), "%"},
        {"sim.energy_mj_per_session", ratio(t.energyMj, count(t.sessions)),
         "sim_mJ"},
        {"sim.waste_mj_per_session", ratio(t.wasteMj, count(t.sessions)),
         "sim_mJ"},
        {"sim.latency_p95_ms", t.latency.quantile(0.95), "sim_ms"},
        {"sim.energy_closure_err_mj", t.closureErrMj, "sim_mJ"},
        {"results.records", count(t.storeRecords), "count"},
        {"results.checkpoint_flushes", count(telemetry.checkpointFlushes),
         "count"},
        {"results.checkpoint_bytes", count(telemetry.checkpointBytes),
         "bytes"},
        {"results.reduce_store_ms", t.reduceStoreMs, "ms"},
        {"util.sketch_merge_us", median(t.sketchMergeUs), "us"},
        {"bench.trace_overhead_frac", bare > 0.0 ? 1.0 - armed / bare : 0.0,
         "fraction"},
        {"bench.replay_slowdown", ratio(replay_ms, telemetry.poolBusyMs),
         "x"},
    };
    return out;
}

} // namespace perfbench
