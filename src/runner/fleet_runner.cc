#include "runner/fleet_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/ebs_scheduler.hh"
#include "corpus/corpus_store.hh"
#include "corpus/trace_cache.hh"
#include "core/governors.hh"
#include "core/oracle_scheduler.hh"
#include "core/pes_scheduler.hh"
#include "core/predictor_training.hh"
#include "population/population_spec.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "runner/thread_pool.hh"
#include "sim/runtime_simulator.hh"
#include "telemetry/trace_sink.hh"
#include "trace/generator.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace pes {

namespace {

/** Salt for deriving per-session speculation-noise seeds (fleet mode). */
constexpr uint64_t kSpecNoiseSalt = 0x5eedu;

/** Milliseconds elapsed since @p t0 (steady clock). */
double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Throttled stderr progress line (--progress). Workers bump an atomic
 * completion counter; whichever bump grabs the try_lock and finds the
 * half-second throttle expired prints. Contending workers skip instead
 * of queueing, so the hot path never blocks on console I/O.
 */
class ProgressMeter
{
  public:
    explicit ProgressMeter(int total)
        : total_(total), start_(std::chrono::steady_clock::now())
    {
    }

    void bump()
    {
        const int done = done_.fetch_add(1) + 1;
        std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
        if (!lock.owns_lock())
            return;
        const auto now = std::chrono::steady_clock::now();
        if (now - lastPrint_ < std::chrono::milliseconds(500))
            return;
        lastPrint_ = now;
        print(done);
    }

    /** Always prints the final tally (unless a bump just did). */
    void finish()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (lastPrinted_ != done_.load())
            print(done_.load());
    }

  private:
    void print(int done)
    {
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::fprintf(stderr,
                     "progress: %d/%d sessions (%d%%), %.1f sessions/s\n",
                     done, total_,
                     total_ > 0 ? done * 100 / total_ : 100,
                     secs > 0.0 ? done / secs : 0.0);
        std::fflush(stderr);
        lastPrinted_ = done;
    }

    const int total_;
    const std::chrono::steady_clock::time_point start_;
    std::atomic<int> done_{0};
    std::mutex mutex_;
    std::chrono::steady_clock::time_point lastPrint_{};
    int lastPrinted_ = -1;
};

/**
 * Immutable per-device state shared by every worker: the platform, its
 * power table, and the trained event model. Construction order matters
 * (power and generator hold references into platform), hence the
 * in-struct initialization.
 */
struct DeviceContext
{
    explicit DeviceContext(const AcmpPlatform &p)
        : platform(p), power(platform), trainGenerator(platform)
    {
    }

    AcmpPlatform platform;
    PowerModel power;
    /** Main-thread generator used only for model training. */
    TraceGenerator trainGenerator;
    /** Trained event model; unset when no scheduler needs it. */
    std::optional<LogisticModel> ownedModel;
    /** Model the PES driver uses (owned or borrowed). */
    const LogisticModel *model = nullptr;
};

std::unique_ptr<SchedulerDriver>
makeFleetScheduler(SchedulerKind kind, const DeviceContext &device)
{
    switch (kind) {
      case SchedulerKind::Interactive:
        return std::make_unique<InteractiveGovernor>();
      case SchedulerKind::Ondemand:
        return std::make_unique<OndemandGovernor>();
      case SchedulerKind::Ebs:
        return std::make_unique<EbsScheduler>();
      case SchedulerKind::Pes:
        panic_if(!device.model, "fleet: PES scheduled without a model");
        return std::make_unique<PesScheduler>(*device.model);
      case SchedulerKind::Oracle:
        return std::make_unique<OracleScheduler>();
    }
    panic("makeFleetScheduler: invalid kind");
}

/**
 * Checkpointing sink of the persist stage: workers push completed
 * sessions, flushes append .psum parts and atomically re-save the
 * store manifest so a kill at any instant leaves a valid store.
 */
struct PersistSink
{
    ResultStore *store = nullptr;
    std::string label;
    PsumParams params;
    int checkpointEvery = 0;

    /** Guards pending only: pushes stay cheap while a flush writes. */
    std::mutex pendingMutex;
    std::vector<SessionRecord> pending;
    /** Contended pendingMutex acquisitions; guarded by pendingMutex. */
    LockContention pushContention;
    /** Serializes store writes and the counters/errors they update. */
    std::mutex flushMutex;
    uint64_t flushes = 0;
    uint64_t persisted = 0;
    uint64_t flushedBytes = 0;
    std::vector<std::string> errors;
    /** Optional trace sink: each flush stamps an instant event. */
    TraceEventSink *traceSink = nullptr;
    int instantLane = 0;

    void push(SessionRecord record)
    {
        std::vector<SessionRecord> batch;
        {
            ContentionGuard lock(pendingMutex, pushContention);
            pending.push_back(std::move(record));
            if (checkpointEvery <= 0 ||
                pending.size() < static_cast<size_t>(checkpointEvery))
                return;
            batch.swap(pending);
        }
        // File I/O happens outside pendingMutex, so workers completing
        // sessions during a checkpoint never block on the disk; batches
        // may land out of order, which reduction re-sorts anyway.
        flush(std::move(batch));
    }

    void finish()
    {
        std::vector<SessionRecord> batch;
        {
            std::lock_guard<std::mutex> lock(pendingMutex);
            batch.swap(pending);
        }
        if (!batch.empty())
            flush(std::move(batch));
    }

  private:
    void flush(std::vector<SessionRecord> batch)
    {
        std::lock_guard<std::mutex> lock(flushMutex);
        std::string error;
        uint64_t part_bytes = 0;
        if (store->appendPart(batch, label, params, &error,
                              &part_bytes)) {
            persisted += batch.size();
            ++flushes;
            flushedBytes += part_bytes;
            if (traceSink)
                traceSink->instant(instantLane, "checkpoint flush",
                                   "store");
        } else {
            errors.push_back("persist: " + error);
        }
    }
};

} // namespace

FleetRunner::FleetRunner(FleetConfig config) : config_(std::move(config))
{
    if (config_.devices.empty())
        config_.devices.push_back(AcmpPlatform::exynos5410());
    if (config_.threads < 1)
        config_.threads = 1;
    fatal_if(config_.shardCount < 1, "fleet: shard count must be >= 1");
    fatal_if(config_.shardIndex < 0 ||
                 config_.shardIndex >= config_.shardCount,
             "fleet: shard index %d outside [0, %d)", config_.shardIndex,
             config_.shardCount);
    fatal_if(config_.resume && !config_.resultStore,
             "fleet: resume requires a result store");
    jobs_ = enumerateJobs(config_);
    if (!config_.externalRanges.empty()) {
        // Leased execution replaces the static shard selector; mixing
        // the two (or resume) would double-apply a job filter.
        fatal_if(config_.shardCount != 1,
                 "fleet: external ranges exclude --shard");
        fatal_if(config_.resume,
                 "fleet: external ranges exclude --resume (the "
                 "coordinator tracks completion per lease)");
        const int total = static_cast<int>(jobs_.size());
        const int users_per_cell = config_.effectiveUsers();
        for (const JobRange &range : config_.externalRanges) {
            fatal_if(range.count <= 0 || range.first < 0 ||
                         range.first + range.count > total,
                     "fleet: external range [%d, +%d) outside the "
                     "%d-job sweep", range.first, range.count, total);
            fatal_if(config_.warmDrivers &&
                         (range.first % users_per_cell != 0 ||
                          range.count % users_per_cell != 0),
                     "fleet: warm sweeps need cell-aligned external "
                     "ranges (%d users per cell), got [%d, +%d)",
                     users_per_cell, range.first, range.count);
        }
    }
}

// ------------------------------------------------------------ stage: plan

FleetPlan
FleetRunner::plan() const
{
    const int total = static_cast<int>(jobs_.size());
    // The execution unit: whole cells when drivers are warm (their
    // cross-session state must replay in order), single jobs otherwise.
    // runRange binds one driver and one cell to each planned range.
    const int unit = config_.warmDrivers ? config_.effectiveUsers() : 1;

    // The ranges this run selects: the coordinator's leases (validated
    // in the constructor), or this shard's share of the units — every
    // shardCount-th unit, starting at unit shardIndex. Everything else
    // counts as shard-skipped: other shards or leases cover it.
    std::vector<JobRange> selected = config_.externalRanges;
    if (selected.empty()) {
        const long long stride =
            static_cast<long long>(unit) * config_.shardCount;
        for (long long first =
                 static_cast<long long>(unit) * config_.shardIndex;
             first < total; first += stride)
            selected.push_back(JobRange{static_cast<int>(first), unit});
    }

    // Resume: collect the store's completed sessions once, as compact
    // (cell ordinal, user index) pairs.
    CompletedSessions done;
    if (config_.resume) {
        fatal_if(config_.resultStore->sweep() !=
                     SweepSpec::fromConfig(config_),
                 "fleet: result store '%s' holds a different sweep",
                 config_.resultStore->dir().c_str());
        std::string error;
        fatal_if(!loadCompletedSessions(*config_.resultStore, done,
                                        &error),
                 "fleet: cannot read result store: %s", error.c_str());
    }
    const auto jobDone = [&](const JobSpec &job) {
        // Job indices follow config axis order, which fromConfig
        // preserves — so this arithmetic equals the CompletedSessions
        // cell-ordinal formula over the store's SweepSpec.
        const long cell =
            (static_cast<long>(job.deviceIndex) *
                 static_cast<long>(config_.apps.size()) +
             job.appIndex) *
                static_cast<long>(config_.schedulers.size()) +
            job.schedulerIndex;
        return done.count({cell,
                           static_cast<uint32_t>(job.userIndex)}) > 0;
    };

    FleetPlan plan;
    plan.totalJobs = total;
    for (const JobRange &range : selected) {
        for (int first = range.first; first < range.first + range.count;
             first += unit) {
            if (config_.resume) {
                // Warm cells resume all-or-nothing: re-running a partial
                // cell from its first session reproduces the driver's
                // cross-session state exactly; the duplicate records
                // deduplicate at reduction.
                bool all_done = true;
                for (int i = 0; i < unit; ++i)
                    all_done &= jobDone(jobs_[static_cast<size_t>(first + i)]);
                if (all_done) {
                    plan.resumeSkipped += unit;
                    continue;
                }
            }
            plan.ranges.push_back(JobRange{first, unit});
            plan.plannedJobs += unit;
        }
    }
    plan.shardSkipped = total - plan.plannedJobs - plan.resumeSkipped;
    return plan;
}

// ------------------------------------------------------- stages 2 to 4

namespace {

/**
 * One run() call: the state its stages share, and the stages. Workers
 * touch only their own generator, engine, driver and telemetry slots;
 * everything else they reach (the trace cache, the persist sink, the
 * streaming reducer, the result slots) is synchronized or job-indexed.
 */
class Pipeline
{
  public:
    explicit Pipeline(const FleetRunner &runner);

    void plan();
    void setup();
    void execute();
    void persist();
    void reduce();

    FleetOutcome takeOutcome() { return std::move(outcome_); }

  private:
    void makeTraceCache();
    void preloadCorpus();
    void runRange(const JobRange &range, int worker);
    void runJob(const JobSpec &job, int worker, SchedulerDriver &driver);
    /** The job's trace, used both as the trace cache's loader and
     *  without a cache: the corpus recording when replaying, else live
     *  synthesis; then the sweep's scenario transform. */
    InteractionTrace materialize(const JobSpec &job,
                                 TraceGenerator &generator);
    void streamStats(size_t job_index, SessionStats &&s);
    void foldJob(size_t job_index, const SessionStats &s);

    std::string stageName(const char *stage) const
    {
        // Stress grids share one sink across severities, so stage spans
        // carry the scenario to stay tellable apart in the viewer.
        return config_.scenario.empty()
            ? std::string(stage)
            : std::string(stage) + " [" + config_.scenario + "]";
    }

    /** Memory high-water mark, sampled at every stage boundary. An OS
     *  figure that varies run to run, so the logical-clock (golden-
     *  locked) mode records none — same rule as the wall times. */
    void sampleRss()
    {
        if (telemetry_ && !logical_) {
            telemetry_->gauge("mem.peak_rss_kb",
                              static_cast<double>(currentPeakRssKb()));
        }
    }

    const std::string &deviceName(const JobSpec &job) const
    {
        return devices_[static_cast<size_t>(job.deviceIndex)]
            ->platform.name();
    }

    const FleetRunner &runner_;
    const FleetConfig &config_;
    const std::vector<JobSpec> &jobs_;

    // ---- instrumentation (both optional, both no-feedback): armed
    // telemetry records counters, an attached sink records spans.
    // Report bytes are identical either way (locked by tests and CI).
    TelemetryRegistry *telemetry_ = nullptr;
    TraceEventSink *tsink_ = nullptr;
    bool logical_ = false;
    /** Lane map: 0 = pipeline stages, 1..threads = workers, last =
     *  store/cache instants. */
    int storeLane_ = 0;
    std::vector<TelemetryShard *> shards_;
    std::optional<ProgressMeter> progress_;

    FleetOutcome outcome_;
    ResultStore *store_ = nullptr;
    std::vector<std::unique_ptr<DeviceContext>> devices_;

    // ---- per-worker slots: trace generators per device, engines per
    // (device, app), pooled drivers per (scheduler, device) ----
    std::vector<std::vector<std::unique_ptr<TraceGenerator>>> generators_;
    std::vector<std::vector<std::unique_ptr<RuntimeSimulator>>> engines_;
    std::vector<std::vector<std::unique_ptr<SchedulerDriver>>> drivers_;

    // ---- trace storage ----
    std::unique_ptr<TraceCache> ownedCache_;
    TraceCache *cache_ = nullptr;
    uint64_t tracesFromCorpus_ = 0;
    /** On-demand corpus loads by workers (capped-cache misses/reloads);
     *  folded into tracesFromCorpus so replay traffic is visible even
     *  when the preload stage only verified headers. */
    std::atomic<uint64_t> corpusLoads_{0};

    PersistSink sink_;
    /** Full results of collectResults runs, job-indexed. */
    std::vector<std::optional<SimResult>> full_;

    // ---- streaming reduction (store-less runs) ----
    std::vector<size_t> plannedJobs_;
    std::mutex reduceMutex_;
    size_t reduceCursor_ = 0;
    std::map<size_t, SessionStats> reduceWindow_;
    size_t reduceWindowPeak_ = 0;
};

Pipeline::Pipeline(const FleetRunner &runner)
    : runner_(runner), config_(runner.config()), jobs_(runner.jobs())
{
    if (config_.telemetry && config_.telemetry->enabled())
        telemetry_ = config_.telemetry;
    tsink_ = config_.traceSink;
    logical_ = tsink_ && tsink_->logicalClock();
    storeLane_ = config_.threads + 1;
    if (tsink_) {
        tsink_->nameLane(0, "runner");
        for (int w = 0; w < config_.threads; ++w)
            tsink_->nameLane(w + 1, "worker " + std::to_string(w));
        tsink_->nameLane(storeLane_, "store");
    }
}

void
Pipeline::plan()
{
    {
        TraceSpan plan_span(tsink_, 0, stageName("plan"), "stage");
        const auto plan_start = std::chrono::steady_clock::now();
        outcome_.plan = runner_.plan();
        outcome_.planMs = msSince(plan_start);
    }
    sampleRss();
    outcome_.jobCount = outcome_.plan.plannedJobs;
}

void
Pipeline::setup()
{
    store_ = config_.resultStore;
    if (store_) {
        fatal_if(store_->sweep() != SweepSpec::fromConfig(config_),
                 "fleet: result store '%s' holds a different sweep",
                 store_->dir().c_str());
    }

    // ---- Shared immutable state (built before any worker starts). ----
    bool needs_model = false;
    for (const SchedulerKind kind : config_.schedulers)
        needs_model |= kind == SchedulerKind::Pes;
    needs_model &= outcome_.plan.plannedJobs > 0;

    devices_.reserve(config_.devices.size());
    for (const AcmpPlatform &platform : config_.devices) {
        auto ctx = std::make_unique<DeviceContext>(platform);
        if (needs_model) {
            if (config_.pretrainedModel && config_.devices.size() == 1 &&
                platform.name() == config_.pretrainedModelDevice) {
                ctx->model = config_.pretrainedModel;
            } else {
                ctx->ownedModel = trainEventModel(
                    ctx->trainGenerator, seenApps(),
                    config_.trainingTracesPerApp);
                ctx->model = &*ctx->ownedModel;
            }
        }
        devices_.push_back(std::move(ctx));
    }

    // Streaming canonical reduction for store-less runs (store-backed
    // runs reduce from the store instead): float sums must fold in
    // ascending job order to stay bit-stable across thread counts, so a
    // cursor walks the planned jobs in order and out-of-order
    // completions wait in a bounded window. Sketch merges commute
    // bin-wise, so each session's latency sketch folds into its cell
    // the moment the session finishes and only the few dozen scalars
    // are stashed — a million-user sweep holds the window's scalars,
    // not a million sketches.
    if (!store_) {
        for (const JobRange &range : outcome_.plan.ranges)
            for (int i = 0; i < range.count; ++i)
                plannedJobs_.push_back(
                    static_cast<size_t>(range.first + i));
        std::sort(plannedJobs_.begin(), plannedJobs_.end());
    }
    if (config_.collectResults)
        full_.resize(jobs_.size());

    // Worker-private slots: a session resets its engine and driver
    // instead of rebuilding them, keeping the engine's allocations (DOM
    // copies, meter segments, record vectors) warm across jobs.
    const size_t workers = static_cast<size_t>(config_.threads);
    generators_.resize(workers);
    engines_.resize(workers);
    drivers_.resize(workers);
    for (size_t w = 0; w < workers; ++w) {
        generators_[w].resize(devices_.size());
        engines_[w].resize(devices_.size() * config_.apps.size());
        drivers_[w].resize(config_.schedulers.size() * devices_.size());
    }

    makeTraceCache();
    if (config_.corpus)
        preloadCorpus();

    // ---- Persist sink (stage 3): checkpoints flow during execution. ----
    if (store_) {
        sink_.store = store_;
        sink_.label = config_.persistLabel.empty()
            ? "s" + std::to_string(config_.shardIndex)
            : config_.persistLabel;
        sink_.params = {
            {"writer", "fleet_runner"},
            {"shard", std::to_string(config_.shardIndex) + "/" +
                          std::to_string(config_.shardCount)},
        };
        sink_.checkpointEvery = config_.checkpointEvery;
        sink_.traceSink = tsink_;
        sink_.instantLane = storeLane_;
    }

    // Per-worker telemetry shards, created up front in worker-index
    // order so the snapshot's merge order is deterministic.
    if (telemetry_) {
        shards_.reserve(workers);
        for (size_t w = 0; w < workers; ++w)
            shards_.push_back(telemetry_->makeShard());
    }
    if (config_.progress)
        progress_.emplace(outcome_.plan.plannedJobs);
}

void
Pipeline::makeTraceCache()
{
    // Shared trace storage: each (device, app, user) trace materializes
    // once — synthesized on first use, or loaded from the corpus — and
    // replays read-only across the scheduler axis. Warm sweeps, corpus
    // replay, and caller-provided caches always share; the automatic
    // case additionally requires the cache to pay (a lone scheduler
    // never reuses a trace) and the resident set to stay bounded —
    // either under the auto-share ceiling, or under an explicit LRU cap
    // (traceCacheCap), which keeps sharing on for giant fleets while
    // evicting least-recently-replayed traces.
    const long long distinct_traces =
        static_cast<long long>(devices_.size()) *
        static_cast<long long>(config_.apps.size()) *
        config_.effectiveUsers();
    const bool auto_share = config_.schedulers.size() > 1 &&
        (config_.traceCacheCap > 0 || config_.maxSharedTraces <= 0 ||
         distinct_traces <= config_.maxSharedTraces);
    if (!auto_share && !config_.warmDrivers && !config_.corpus &&
        !config_.traceCache)
        return;
    cache_ = config_.traceCache;
    if (cache_)
        return;
    ownedCache_ = std::make_unique<TraceCache>();
    ownedCache_->setCapacity(config_.traceCacheCap, 0);
    if (tsink_) {
        // Only the run-owned cache: a caller-provided cache outlives
        // this run and keeps its own hook policy.
        ownedCache_->setEvictionHook([tsink = tsink_, lane = storeLane_] {
            tsink->instant(lane, "cache evict", "cache");
        });
    }
    cache_ = ownedCache_.get();
}

void
Pipeline::preloadCorpus()
{
    // Replay-from-disk fleets resolve every planned trace up front so a
    // missing or corrupt recording fails before any session runs, with
    // a per-entry diagnostic. With an LRU-capped cache, loading
    // everything would only evict it again — so the capped path
    // verifies each recording's header once (no event decode) and lets
    // sessions load on demand. A scenario transform also demotes the
    // preload to header verification: inserting the raw recording would
    // poison the cache with untransformed traces, so sessions
    // load+derive on demand through the cache's deterministic loader.
    const CorpusStore &corpus = *config_.corpus;
    const bool capped = (ownedCache_ && config_.traceCacheCap > 0) ||
        static_cast<bool>(config_.traceTransform);
    std::set<std::tuple<std::string, std::string, uint64_t>> checked;
    for (const JobRange &range : outcome_.plan.ranges) {
        for (int i = 0; i < range.count; ++i) {
            const JobSpec &job = jobs_[static_cast<size_t>(range.first + i)];
            const AppProfile &profile =
                config_.apps[static_cast<size_t>(job.appIndex)];
            const std::string &device_name = deviceName(job);
            // Every job's trace must exist in the corpus even when a
            // caller-provided warm cache already holds the key — a
            // stale cache must not mask a missing recording.
            const CorpusEntry *entry =
                corpus.find(profile.name, device_name, job.userSeed);
            fatal_if(!entry,
                     "corpus '%s' has no trace for app '%s' on '%s' "
                     "with user seed %llu (re-record, or drop "
                     "--corpus to synthesize live)",
                     corpus.dir().c_str(), profile.name.c_str(),
                     device_name.c_str(),
                     static_cast<unsigned long long>(job.userSeed));
            std::string error;
            if (capped) {
                if (!checked
                         .insert({device_name, profile.name, job.userSeed})
                         .second)
                    continue;  // scheduler axis revisits the key
                fatal_if(!corpus.verifyHeader(*entry, &error),
                         "corpus '%s': %s", corpus.dir().c_str(),
                         error.c_str());
                continue;
            }
            if (cache_->lookup(device_name, profile.name, job.userSeed))
                continue;  // already resident
            auto trace = corpus.load(*entry, &error);
            fatal_if(!trace, "corpus '%s': %s", corpus.dir().c_str(),
                     error.c_str());
            cache_->insert(device_name, std::move(*trace));
            ++tracesFromCorpus_;
        }
    }
}

void
Pipeline::execute()
{
    const auto start = std::chrono::steady_clock::now();
    {
        // Span opens before the pool spins up and closes after it
        // drains, so at threads=1 the logical-clock tick order is fully
        // determined (the main thread blocks in wait() while the lone
        // worker takes its ticks in job order).
        TraceSpan execute_span(tsink_, 0, stageName("execute"), "stage");
        ThreadPool pool(config_.threads, telemetry_ != nullptr);

        // Fresh fleets plan one singleton range per session; submitting
        // each as its own pool task costs a queue round-trip per
        // session. Batch contiguous ranges so the pool sees far fewer
        // tasks than sessions — canonical reduction keeps reports
        // byte-identical regardless of how ranges are grouped onto
        // tasks. The batch size is capped: tasks run FIFO over
        // contiguous chunks, so the streaming reducer's out-of-order
        // window never exceeds the active task frontier (~threads ×
        // chunk jobs) — giant chunks would let fast workers race
        // megabytes of stashed scalars ahead of the in-order cursor.
        const std::vector<JobRange> &ranges = outcome_.plan.ranges;
        const size_t target_tasks =
            static_cast<size_t>(config_.threads) * 4;
        constexpr size_t kMaxRangesPerTask = 512;
        const size_t chunk = std::min(
            kMaxRangesPerTask,
            ranges.size() > target_tasks
                ? (ranges.size() + target_tasks - 1) / target_tasks
                : 1);
        for (size_t first = 0; first < ranges.size(); first += chunk) {
            const size_t count = std::min(chunk, ranges.size() - first);
            pool.submit([this, &ranges, first, count](int worker) {
                for (size_t r = first; r < first + count; ++r)
                    runRange(ranges[r], worker);
            });
        }
        pool.wait();
        for (const std::string &error : pool.errors())
            outcome_.diagnostics.push_back(error);
        outcome_.poolStats = pool.stats();
    }
    outcome_.wallMs = msSince(start);
    sampleRss();
    if (progress_)
        progress_->finish();
}

void
Pipeline::runRange(const JobRange &range, int worker)
{
    // One driver per range: a per-cell "warmed device" for warm ranges,
    // a fresh-state driver for singleton ranges. It comes from the
    // worker's pool, reset to its as-constructed state.
    const JobSpec &head = jobs_[static_cast<size_t>(range.first)];
    std::unique_ptr<SchedulerDriver> &driver =
        drivers_[static_cast<size_t>(worker)]
                [static_cast<size_t>(head.schedulerIndex) *
                     devices_.size() +
                 static_cast<size_t>(head.deviceIndex)];
    if (!driver || !driver->resetFresh()) {
        driver = makeFleetScheduler(
            config_.schedulers[static_cast<size_t>(head.schedulerIndex)],
            *devices_[static_cast<size_t>(head.deviceIndex)]);
    }
    for (int i = 0; i < range.count; ++i)
        runJob(jobs_[static_cast<size_t>(range.first + i)], worker,
               *driver);
}

InteractionTrace
Pipeline::materialize(const JobSpec &job, TraceGenerator &generator)
{
    const AppProfile &profile =
        config_.apps[static_cast<size_t>(job.appIndex)];
    InteractionTrace trace;
    if (config_.corpus) {
        // Replay reloads the recording, never re-synthesizes. Throw
        // (not fatal): this runs on a worker, and the pool turns the
        // exception into a run-level diagnostic while other workers
        // keep going and the final checkpoint still flushes.
        const CorpusEntry *entry = config_.corpus->find(
            profile.name, deviceName(job), job.userSeed);
        std::string error;
        auto loaded = entry ? config_.corpus->load(*entry, &error)
                            : std::nullopt;
        if (!loaded) {
            throw std::runtime_error(
                "corpus '" + config_.corpus->dir() + "': " +
                (entry ? error : "preloaded entry disappeared"));
        }
        corpusLoads_.fetch_add(1);
        trace = std::move(*loaded);
    } else {
        // Population traits are a pure function of the job's user seed,
        // so a refill on any worker re-derives the same cohort and
        // multipliers (the trace-cache key stays (device, app, seed)).
        std::optional<UserTraits> traits;
        if (config_.population) {
            traits = samplePopulationTraits(*config_.population,
                                            job.userSeed);
        }
        trace = generator.generate(profile, job.userSeed,
                                   traits ? &traits->scale : nullptr);
        // Cohort stress stacks on synthesis only — corpus recordings
        // already captured their population's behaviour at record time.
        if (traits)
            trace = applyCohortScenario(*traits, trace, job.userSeed);
    }
    // The scenario transform runs inside the cache's loader too:
    // re-materializing an evicted key reproduces the transformed trace
    // byte-identically (the transform is pure by contract).
    if (config_.traceTransform)
        trace = config_.traceTransform(trace);
    return trace;
}

void
Pipeline::runJob(const JobSpec &job, int worker, SchedulerDriver &driver)
{
    DeviceContext &device =
        *devices_[static_cast<size_t>(job.deviceIndex)];
    auto &generator = generators_[static_cast<size_t>(worker)]
                                 [static_cast<size_t>(job.deviceIndex)];
    if (!generator)
        generator = std::make_unique<TraceGenerator>(device.platform);
    const AppProfile &profile =
        config_.apps[static_cast<size_t>(job.appIndex)];
    const char *scheduler = schedulerKindName(
        config_.schedulers[static_cast<size_t>(job.schedulerIndex)]);

    TelemetryShard *shard =
        telemetry_ ? shards_[static_cast<size_t>(worker)] : nullptr;
    const auto job_start = std::chrono::steady_clock::now();
    // Per-job execute span on this worker's lane, covering trace
    // materialization plus the simulated session.
    TraceSpan job_span(tsink_, worker + 1,
                       tsink_ ? profile.name + "/" + scheduler + " u" +
                               std::to_string(job.userIndex)
                              : std::string(),
                       "job");

    InteractionTrace fresh;
    TraceHandle handle;  // keeps an evicted trace alive while used
    const InteractionTrace *trace = &fresh;
    if (cache_) {
        handle = cache_->getOrLoad(
            device.platform.name(), profile.name, job.userSeed,
            [&] { return materialize(job, *generator); });
        trace = handle.get();
    } else {
        fresh = materialize(job, *generator);
    }

    auto &engine =
        engines_[static_cast<size_t>(worker)]
                [static_cast<size_t>(job.deviceIndex) *
                     config_.apps.size() +
                 static_cast<size_t>(job.appIndex)];
    if (!engine) {
        SimConfig sim_config;
        sim_config.renderScale = profile.renderScale;
        engine = std::make_unique<RuntimeSimulator>(
            device.platform, device.power, generator->appFor(profile),
            sim_config);
    }
    // The engine's app/platform/renderScale are fixed per slot; only
    // the speculation-noise seed varies job to job. Fleet users get a
    // per-user stream (instead of the default fixed seed) so fleets are
    // reproducible per user, not merely per run.
    if (config_.seedMode == SeedMode::Fleet)
        engine->setSpecNoiseSeed(hashCombine(job.userSeed, kSpecNoiseSalt));

    SessionStats session_stats;
    if (config_.collectResults) {
        SimResult result = engine->run(*trace, driver);
        session_stats = SessionStats::reduce(result);
        full_[static_cast<size_t>(job.index)] = std::move(result);
    } else {
        session_stats = engine->runStats(*trace, driver);
    }
    if (store_) {
        SessionRecord record;
        record.device = device.platform.name();
        record.app = profile.name;
        record.scheduler = scheduler;
        record.userIndex = static_cast<uint32_t>(job.userIndex);
        record.userSeed = job.userSeed;
        record.stats = session_stats;
        sink_.push(std::move(record));
    }
    if (shard) {
        // Event/session counters come from the already-reduced
        // SessionStats — the simulator's hot loop stays untouched (no
        // per-event timer or counter calls).
        shard->count("sim.sessions");
        shard->count("sim.events",
                     static_cast<uint64_t>(session_stats.events));
        shard->count("sim.violations",
                     static_cast<uint64_t>(session_stats.violations));
        // Wall-clock job durations vary run to run, so the
        // logical-clock (golden-locked) mode records none.
        if (!logical_)
            shard->duration("runner.job_ms", msSince(job_start));
    }
    if (!store_)
        streamStats(static_cast<size_t>(job.index),
                    std::move(session_stats));
    if (progress_)
        progress_->bump();
}

void
Pipeline::foldJob(size_t job_index, const SessionStats &s)
{
    const JobSpec &job = jobs_[job_index];
    outcome_.metrics.add(
        deviceName(job), config_.apps[static_cast<size_t>(job.appIndex)].name,
        schedulerKindName(
            config_.schedulers[static_cast<size_t>(job.schedulerIndex)]),
        s);
}

void
Pipeline::streamStats(size_t job_index, SessionStats &&s)
{
    std::lock_guard<std::mutex> lock(reduceMutex_);
    if (reduceCursor_ < plannedJobs_.size() &&
        plannedJobs_[reduceCursor_] == job_index) {
        foldJob(job_index, s);
        ++reduceCursor_;
        while (reduceCursor_ < plannedJobs_.size()) {
            const auto it = reduceWindow_.find(plannedJobs_[reduceCursor_]);
            if (it == reduceWindow_.end())
                break;
            foldJob(it->first, it->second);
            reduceWindow_.erase(it);
            ++reduceCursor_;
        }
        return;
    }
    const JobSpec &job = jobs_[job_index];
    outcome_.metrics.addEventLatencySketch(
        deviceName(job), config_.apps[static_cast<size_t>(job.appIndex)].name,
        schedulerKindName(
            config_.schedulers[static_cast<size_t>(job.schedulerIndex)]),
        s.latencySketch);
    s.latencySketch.clear();
    reduceWindow_.emplace(job_index, std::move(s));
    reduceWindowPeak_ = std::max(reduceWindowPeak_, reduceWindow_.size());
}

void
Pipeline::persist()
{
    // ---- Final checkpoint flush. ----
    {
        TraceSpan persist_span(tsink_, 0, stageName("persist"), "stage");
        const auto persist_start = std::chrono::steady_clock::now();
        if (store_)
            sink_.finish();
        outcome_.persistMs = msSince(persist_start);
    }
    sampleRss();
    for (const std::string &error : sink_.errors)
        outcome_.diagnostics.push_back(error);
    outcome_.persistedRecords = sink_.persisted;
    outcome_.checkpointFlushes = sink_.flushes;
    outcome_.checkpointBytes = sink_.flushedBytes;

    if (cache_) {
        outcome_.traceCacheHits = cache_->hits();
        outcome_.traceCacheMisses = cache_->misses();
        outcome_.traceCacheEvictions = cache_->evictions();
        outcome_.traceCacheDuplicateSynthesis = cache_->duplicateSynthesis();
        outcome_.traceCacheContention = cache_->lockContention();
    }
    outcome_.persistContention = sink_.pushContention;
    outcome_.tracesFromCorpus = tracesFromCorpus_ + corpusLoads_.load();

    // Fold run-level traffic into the registry's root shard so the
    // snapshot in the telemetry artifact is self-contained.
    if (telemetry_) {
        telemetry_->count("cache.hits", outcome_.traceCacheHits);
        telemetry_->count("cache.misses", outcome_.traceCacheMisses);
        telemetry_->count("cache.evictions", outcome_.traceCacheEvictions);
        telemetry_->count("cache.duplicate_synthesis",
                          outcome_.traceCacheDuplicateSynthesis);
        telemetry_->count("cache.lock_waits",
                          outcome_.traceCacheContention.waits);
        telemetry_->count("store.push_lock_waits",
                          outcome_.persistContention.waits);
        telemetry_->count("corpus.loads", outcome_.tracesFromCorpus);
        telemetry_->count("store.checkpoint_flushes",
                          outcome_.checkpointFlushes);
        telemetry_->count("store.checkpoint_bytes",
                          outcome_.checkpointBytes);
        telemetry_->count("pool.tasks", outcome_.poolStats.tasks);
    }
}

void
Pipeline::reduce()
{
    // ---- Deterministic reduction. ----
    TraceSpan reduce_span(tsink_, 0, stageName("reduce"), "stage");
    const auto reduce_start = std::chrono::steady_clock::now();
    if (store_) {
        // Reduce FROM the store: one code path for whole, sharded and
        // resumed runs — the reports cover everything persisted.
        StoreReduction reduction;
        std::string error;
        if (!reduceStore(*store_, reduction, &error)) {
            outcome_.diagnostics.push_back("reduce: " + error);
        } else {
            outcome_.metrics = std::move(reduction.metrics);
            for (const std::string &problem : reduction.problems)
                outcome_.diagnostics.push_back("reduce: " + problem);
        }
    } else {
        // Stream drain: only jobs stranded behind a gap an errored
        // range left behind wait here; fold them in the same ascending
        // job order the cursor would have used.
        for (const auto &[job_index, session_stats] : reduceWindow_)
            foldJob(job_index, session_stats);
        reduceWindow_.clear();
        if (telemetry_)
            telemetry_->gauge("runner.reduce_window_peak",
                              static_cast<double>(reduceWindowPeak_));
    }
    for (std::optional<SimResult> &result : full_) {
        if (result)
            outcome_.results.add(std::move(*result));
    }
    outcome_.reduceMs = msSince(reduce_start);
    sampleRss();
}

} // namespace

FleetOutcome
FleetRunner::run()
{
    Pipeline pipeline(*this);
    pipeline.plan();
    pipeline.setup();
    pipeline.execute();
    pipeline.persist();
    pipeline.reduce();
    return pipeline.takeOutcome();
}

RunTelemetry
makeRunTelemetry(const FleetConfig &config, const FleetOutcome &outcome)
{
    RunTelemetry t;
    t.tool = "run";
    t.scenario = config.scenario;
    t.logicalClock =
        config.traceSink && config.traceSink->logicalClock();
    t.threads = config.threads;
    if (config.telemetry)
        t.counters = config.telemetry->snapshot();

    // Sessions/events prefer the registry's counters (they cover
    // exactly what THIS run executed); an un-armed registry falls back
    // to the outcome's plan and reduction totals.
    t.sessions = t.counters.counter("sim.sessions");
    if (t.sessions == 0)
        t.sessions = static_cast<uint64_t>(outcome.jobCount);
    t.events = t.counters.counter("sim.events");
    if (t.events == 0)
        t.events = static_cast<uint64_t>(outcome.metrics.events());

    t.cacheHits = outcome.traceCacheHits;
    t.cacheMisses = outcome.traceCacheMisses;
    t.cacheEvictions = outcome.traceCacheEvictions;
    t.cacheDuplicateSynthesis = outcome.traceCacheDuplicateSynthesis;
    t.checkpointFlushes = outcome.checkpointFlushes;
    t.checkpointBytes = outcome.checkpointBytes;
    t.poolTasks = outcome.poolStats.tasks;

    // Wall-derived and scheduling-dependent fields stay zero under the
    // logical clock — that is what makes the artifact byte-reproducible
    // (the RunTelemetry determinism contract).
    if (!t.logicalClock) {
        t.peakRssKb = currentPeakRssKb();
        t.planMs = outcome.planMs;
        t.executeMs = outcome.wallMs;
        t.persistMs = outcome.persistMs;
        t.reduceMs = outcome.reduceMs;
        t.totalMs = outcome.planMs + outcome.wallMs +
            outcome.persistMs + outcome.reduceMs;
        t.poolMaxQueueDepth = outcome.poolStats.maxQueueDepth;
        t.poolBusyMs = outcome.poolStats.busyMs;
        t.poolIdleMs = outcome.poolStats.idleMs;
        // Scaling attribution is contention, i.e. scheduling: the whole
        // section stays zero under the logical clock.
        t.cacheLockWaits = outcome.traceCacheContention.waits;
        t.cacheLockWaitMs = outcome.traceCacheContention.waitMs;
        t.persistLockWaits = outcome.persistContention.waits;
        t.persistLockWaitMs = outcome.persistContention.waitMs;
        t.poolQueueTasks = outcome.poolStats.tasks;
        t.poolQueueWaitMs = outcome.poolStats.queueWaitMs;
        t.poolQueueWaitMeanMs = outcome.poolStats.tasks > 0
            ? outcome.poolStats.queueWaitMs /
                static_cast<double>(outcome.poolStats.tasks)
            : 0.0;
        t.workers.reserve(outcome.poolStats.workers.size());
        for (const ThreadPoolWorkerStats &w : outcome.poolStats.workers) {
            WorkerScaling ws;
            ws.tasks = w.tasks;
            ws.busyMs = w.busyMs;
            ws.idleMs = w.idleMs;
            ws.queueWaitMs = w.queueWaitMs;
            t.workers.push_back(ws);
        }
        t.recomputeRates();
    }
    return t;
}

} // namespace pes
