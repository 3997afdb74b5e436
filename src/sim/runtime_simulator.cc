#include "sim/runtime_simulator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace pes {

namespace {
constexpr TimeMs kTimeEps = 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

// ------------------------- SimulatorApi -------------------------

TimeMs SimulatorApi::now() const { return sim_->now_; }
const AcmpPlatform &SimulatorApi::platform() const
{
    return *sim_->platform_;
}
const PowerModel &SimulatorApi::powerModel() const { return *sim_->power_; }
const DvfsLatencyModel &SimulatorApi::latencyModel() const
{
    return sim_->latencyModel_;
}
const VsyncClock &SimulatorApi::vsync() const { return sim_->vsync_; }
const WebAppSession &SimulatorApi::session() const
{
    return *sim_->session_;
}
const EventLoop &SimulatorApi::pendingQueue() const { return sim_->queue_; }
AcmpConfig SimulatorApi::currentConfig() const
{
    return sim_->currentConfig_;
}
int SimulatorApi::arrivedCount() const { return sim_->arrivedCount_; }
int SimulatorApi::nextUnservedPosition() const
{
    return sim_->servedCount_;
}

const TraceEvent &
SimulatorApi::arrivedEvent(int trace_index) const
{
    panic_if(trace_index < 0 || trace_index >= sim_->arrivedCount_,
             "arrivedEvent(%d): event has not arrived (arrived=%d); "
             "schedulers may not look into the future",
             trace_index, sim_->arrivedCount_);
    return sim_->trace_->events[static_cast<size_t>(trace_index)];
}

const InteractionTrace &
SimulatorApi::fullTrace() const
{
    return *sim_->trace_;
}

void
SimulatorApi::serveFromSpeculation(int trace_index, uint64_t work_id)
{
    sim_->apiServeFromSpeculation(trace_index, work_id);
}
void
SimulatorApi::adoptInFlight(int trace_index)
{
    sim_->apiAdoptInFlight(trace_index);
}
void SimulatorApi::abortInFlight() { sim_->apiAbortInFlight(); }
AcmpConfig
SimulatorApi::boostInFlightToMeet(TimeMs deadline)
{
    return sim_->apiBoostInFlightToMeet(deadline);
}
void
SimulatorApi::discardSpeculativeWork(uint64_t work_id)
{
    sim_->apiDiscardSpeculativeWork(work_id);
}
void
SimulatorApi::chargeSchedulerOverhead(TimeMs duration)
{
    sim_->apiChargeSchedulerOverhead(duration);
}
void
SimulatorApi::recordPfbSample(int pfb_size, bool after_squash)
{
    sim_->apiRecordPfbSample(pfb_size, after_squash);
}
void
SimulatorApi::notePrediction(bool correct)
{
    sim_->apiNotePrediction(correct);
}
void
SimulatorApi::notePredictionRound(int degree)
{
    sim_->apiNotePredictionRound(degree);
}
void SimulatorApi::noteFallback() { sim_->apiNoteFallback(); }

// ------------------------- RuntimeSimulator -------------------------

RuntimeSimulator::RuntimeSimulator(const AcmpPlatform &platform,
                                   const PowerModel &power,
                                   const WebApp &app, SimConfig config)
    : platform_(&platform), power_(&power), app_(&app), config_(config),
      latencyModel_(platform), currentConfig_(platform.minConfig())
{
}

void
RuntimeSimulator::reset(const InteractionTrace &trace,
                        SchedulerDriver &driver)
{
    trace_ = &trace;
    driver_ = &driver;
    // Reuse the session's DOM copies instead of re-copying every page.
    if (session_)
        session_->reset();
    else
        session_.emplace(*app_);
    queue_.clear();
    meter_.reset();
    now_ = 0.0;
    arrivedCount_ = 0;
    servedCount_ = 0;
    currentConfig_ = platform_->minConfig();
    exec_.reset();
    nextWorkId_ = 1;
    specFrames_.clear();
    segmentArena_.clear();
    busyIntervals_.clear();
    lastDisplay_ = 0.0;
    acc_.clear();

    // Rebuild result_ keeping the vectors' allocated storage.
    std::vector<EventRecord> events = std::move(result_.events);
    std::vector<PfbSample> pfb = std::move(result_.pfbTrace);
    std::vector<int> degrees = std::move(result_.predictionDegrees);
    events.clear();
    pfb.clear();
    degrees.clear();
    result_ = SimResult{};
    result_.events = std::move(events);
    result_.pfbTrace = std::move(pfb);
    result_.predictionDegrees = std::move(degrees);
    if (!recordDetail_)
        return;

    result_.schedulerName = driver.name();
    result_.appName = trace.appName;
    result_.events.reserve(trace.events.size());
}

SimResult
RuntimeSimulator::run(const InteractionTrace &trace,
                      SchedulerDriver &driver)
{
    replay(trace, driver, true);
    return std::move(result_);
}

SessionStats
RuntimeSimulator::runStats(const InteractionTrace &trace,
                           SchedulerDriver &driver)
{
    replay(trace, driver, false);
    return acc_.finish(result_);
}

void
RuntimeSimulator::replay(const InteractionTrace &trace,
                         SchedulerDriver &driver, bool record_detail)
{
    panic_if(trace.events.empty(), "RuntimeSimulator: empty trace");
    recordDetail_ = record_detail;
    reset(trace, driver);
    SimulatorApi api(*this);
    driver.begin(api);

    const int total = static_cast<int>(trace.events.size());
    while (servedCount_ < total) {
        // 1. Deliver any due arrival (one per iteration).
        if (arrivedCount_ < total &&
            trace.events[static_cast<size_t>(arrivedCount_)].arrival <=
                now_ + kTimeEps) {
            deliverArrival();
            continue;
        }
        const TimeMs t_arr = arrivedCount_ < total
            ? trace.events[static_cast<size_t>(arrivedCount_)].arrival
            : kInf;
        const TimeMs t_tick = nextTickTime();

        if (exec_) {
            const TimeMs t_fin = finishEstimate();
            const TimeMs t_next = std::min({t_fin, t_arr, t_tick});
            advanceBusy(t_next);
            if (t_fin <= t_arr + kTimeEps && t_fin <= t_tick + kTimeEps) {
                completeExec();
            } else if (t_tick < t_arr - kTimeEps) {
                fireTick();
            }
            // arrivals handled at the loop head
        } else {
            const auto item = driver.nextWork(api);
            if (item) {
                startExec(*item);
                continue;
            }
            const TimeMs t_next = std::min(t_arr, t_tick);
            panic_if(!std::isfinite(t_next),
                     "scheduler deadlock: idle, %zu queued events, no "
                     "arrivals or ticks pending", queue_.length());
            advanceIdle(t_next);
            if (t_tick < t_arr - kTimeEps && !skipIdleTicks(t_arr))
                fireTick();
        }
    }
    finish();
}

void
RuntimeSimulator::deliverArrival()
{
    const int idx = arrivedCount_;
    const TraceEvent &e = trace_->events[static_cast<size_t>(idx)];
    // Jump the clock to the arrival instant when idle-skipping landed
    // slightly before it.
    if (e.arrival > now_)
        advanceIdle(e.arrival);
    ++arrivedCount_;
    queue_.push({idx, e.arrival});
    SimulatorApi api(*this);
    driver_->onArrival(api, idx);
}

Workload
RuntimeSimulator::resolveTruth(const WorkItem &item, bool &matched) const
{
    matched = false;
    if (item.kind == WorkItem::Kind::Real) {
        matched = true;
        return trace_->events[static_cast<size_t>(item.traceIndex)]
            .totalWork();
    }

    const int pos = item.targetPosition;
    if (pos >= 0 && pos < static_cast<int>(trace_->events.size())) {
        const TraceEvent &actual =
            trace_->events[static_cast<size_t>(pos)];
        if (matchesUnder(item.matchPolicy, item.predicted, actual)) {
            matched = true;
            return actual.totalWork();
        }
    }

    // Mispredicted (or beyond-session) speculation: the frame computed is
    // for an event that never happens. Sample a plausible workload from
    // the predicted handler's cost model, deterministically.
    const PredictedEvent &pred = item.predicted;
    const int page = std::clamp(pred.pageId, 0, app_->numPages() - 1);
    const DomTree &dom = app_->dom(page);
    const HandlerSpec *handler = nullptr;
    if (pred.node >= 0 && pred.node < static_cast<NodeId>(dom.size()))
        handler = dom.node(pred.node).handlerFor(pred.type);

    Rng rng(hashCombine(config_.specNoiseSeed,
                        hashCombine(static_cast<uint64_t>(pos),
                                    (static_cast<uint64_t>(pred.node) << 8) |
                                        static_cast<uint64_t>(pred.type))));
    RenderPipeline pipeline;
    if (handler) {
        const Workload callback = handler->medianWork.scaled(
            rng.lognormal(1.0, handler->workSigma));
        const Workload render =
            pipeline.frameWork(dom.size(), handler->dirtyNodes,
                               config_.renderScale *
                                   handler->renderCostScale)
                .total()
                .scaled(rng.lognormal(1.0, handler->workSigma * 0.7));
        return callback + render;
    }
    // No such handler (stale prediction): a minimal no-op frame.
    return pipeline.frameWork(dom.size(), 1, config_.renderScale).total();
}

void
RuntimeSimulator::startExec(const WorkItem &item)
{
    panic_if(exec_.has_value(), "startExec while already executing");
    if (item.kind == WorkItem::Kind::Real) {
        const auto front = queue_.front();
        panic_if(!front, "Real work item with an empty pending queue");
        panic_if(front->traceIndex != item.traceIndex,
                 "FIFO violation: dispatching event %d but queue head "
                 "is %d", item.traceIndex, front->traceIndex);
    } else {
        panic_if(item.targetPosition < servedCount_,
                 "speculative work for already-served position %d",
                 item.targetPosition);
        // Count commit-gated network requests (Sec. 5.3).
        const int page =
            std::clamp(item.predicted.pageId, 0, app_->numPages() - 1);
        const DomTree &dom = app_->dom(page);
        if (item.predicted.node >= 0 &&
            item.predicted.node < static_cast<NodeId>(dom.size())) {
            const HandlerSpec *h =
                dom.node(item.predicted.node).handlerFor(
                    item.predicted.type);
            if (h && h->issuesNetworkRequest)
                ++result_.suppressedNetworkRequests;
        }
    }

    ExecState exec;
    exec.item = item;
    exec.workId = nextWorkId_++;
    exec.segFirst = static_cast<uint32_t>(segmentArena_.size());
    exec.truth = resolveTruth(item, exec.truthMatched);
    exec.switchRemaining = platform_->switchCost(currentConfig_,
                                                 item.config);
    exec.startTime = now_ + exec.switchRemaining;
    currentConfig_ = item.config;
    exec_ = std::move(exec);
}

TimeMs
RuntimeSimulator::finishEstimate() const
{
    const TimeMs remaining = exec_->remainingFrac *
        latencyModel_.latency(exec_->truth, currentConfig_);
    return now_ + exec_->switchRemaining + remaining;
}

void
RuntimeSimulator::advanceBusy(TimeMs until)
{
    panic_if(!exec_, "advanceBusy without an executing item");
    TimeMs t = now_;
    const PowerMw other_idle = power_->idlePower(
        currentConfig_.core == CoreType::Big ? CoreType::Little
                                             : CoreType::Big);

    // Switch/migration overhead first.
    if (exec_->switchRemaining > 0.0 && until > t) {
        const TimeMs sw = std::min(exec_->switchRemaining, until - t);
        meter_.addSegment(t, t + sw,
                          power_->busyPowerAt(configIndexOfCurrent()),
                          EnergyTag::Overhead);
        meter_.addSegment(t, t + sw, other_idle, EnergyTag::Idle);
        busyIntervals_.emplace_back(t, t + sw);
        exec_->switchRemaining -= sw;
        t += sw;
    }

    if (until > t && exec_->switchRemaining <= 0.0) {
        const TimeMs dt = until - t;
        const TimeMs latency =
            latencyModel_.latency(exec_->truth, currentConfig_);
        exec_->remainingFrac -= dt / latency;
        const PowerMw busy = power_->busyPowerAt(configIndexOfCurrent());
        const uint64_t seg =
            meter_.addSegment(t, t + dt, busy, EnergyTag::Busy);
        meter_.addSegment(t, t + dt, other_idle, EnergyTag::Idle);
        segmentArena_.push_back(seg);
        ++exec_->segCount;
        exec_->busyEnergy += energyOf(busy, dt);
        exec_->execMs += dt;
        busyIntervals_.emplace_back(t, t + dt);
        t = until;
    }
    now_ = until;
}

void
RuntimeSimulator::advanceIdle(TimeMs until)
{
    if (until <= now_)
        return;
    meter_.addSegment(now_, until, power_->platformIdlePower(),
                      EnergyTag::Idle);
    now_ = until;
}

void
RuntimeSimulator::serveEvent(int trace_index, TimeMs frame_ready,
                             int config_index, EnergyMj busy_energy,
                             TimeMs exec_ms, bool speculative)
{
    panic_if(trace_index != servedCount_,
             "out-of-order serve: position %d, expected %d",
             trace_index, servedCount_);
    panic_if(trace_index >= arrivedCount_,
             "serving an event that has not arrived");
    const auto front = queue_.front();
    panic_if(!front || front->traceIndex != trace_index,
             "serve does not match queue head");
    queue_.pop();

    const TraceEvent &e = trace_->events[static_cast<size_t>(trace_index)];
    EventRecord rec;
    rec.traceIndex = trace_index;
    rec.type = e.type;
    rec.arrival = e.arrival;
    rec.qosTarget = e.qosTarget();
    rec.frameReady = frame_ready;
    rec.displayed = vsync_.nextVsyncAt(std::max(e.arrival, frame_ready));
    rec.configIndex = config_index;
    rec.busyEnergy = busy_energy;
    rec.execMs = exec_ms;
    rec.servedSpeculatively = speculative;
    lastDisplay_ = std::max(lastDisplay_, rec.displayed);
    // Events are served strictly in trace order, so the records land in
    // trace order and the accumulator sums them in that order.
    acc_.add(rec);
    if (recordDetail_)
        result_.events.push_back(rec);

    // Commit the event's application-state effects.
    session_->commitEvent(e.node, e.type);
    ++servedCount_;
}

void
RuntimeSimulator::completeExec()
{
    panic_if(!exec_, "completeExec without an executing item");
    ExecState exec = std::move(*exec_);
    exec_.reset();

    const int cfg_index = configIndexOfCurrent();
    CompletedWork report;
    report.workId = exec.workId;
    report.item = exec.item;
    report.startTime = exec.startTime;
    report.finishTime = now_;
    report.execMs = exec.execMs;
    report.finalConfig = currentConfig_;

    if (exec.item.kind == WorkItem::Kind::Real) {
        serveEvent(exec.item.traceIndex, now_, cfg_index, exec.busyEnergy,
                   exec.execMs, false);
    } else if (exec.adopted) {
        serveEvent(exec.adoptedIndex, now_, cfg_index, exec.busyEnergy,
                   exec.execMs, true);
    } else {
        SpecFrame frame;
        frame.item = exec.item;
        frame.ready = now_;
        frame.execMs = exec.execMs;
        frame.busyEnergy = exec.busyEnergy;
        frame.segFirst = exec.segFirst;
        frame.segCount = exec.segCount;
        frame.configIndex = cfg_index;
        frame.truthMatched = exec.truthMatched;
        specFrames_.emplace_back(exec.workId, frame);
    }

    SimulatorApi api(*this);
    driver_->onWorkFinished(api, report);
}

TimeMs
RuntimeSimulator::nextTickTime() const
{
    const TimeMs interval = driver_->sampleIntervalMs();
    if (interval <= 0.0)
        return kInf;
    return (tickIndex(interval) + 1.0) * interval;
}

double
RuntimeSimulator::tickIndex(TimeMs interval) const
{
    return std::floor(now_ / interval + kTimeEps);
}

bool
RuntimeSimulator::skipIdleTicks(TimeMs t_arr)
{
    // now_ is an idle tick before the arrival. The driver says whether
    // idle ticks at utilization 0 change anything; this tick and every
    // later one sees 0 once the last busy interval ended a whole window
    // ago (busyFraction's cut-off). Asking the driver first keeps the
    // calls a driver that never skips receives exactly as they were.
    SimulatorApi api(*this);
    if (!std::isfinite(t_arr) || !driver_->idleTicksAreNoOps(api))
        return false;
    const TimeMs interval = driver_->sampleIntervalMs();
    if (!busyIntervals_.empty() &&
        busyIntervals_.back().second > now_ - interval)
        return false;

    // now_ sits on tick k0. Per-tick replay would fire ticks k0..kn, the
    // last one strictly before t_arr - kTimeEps, and meter one idle
    // segment per whole tick in between. Every tick time is k * interval
    // and the index grows by exactly one per tick (now_ / interval stays
    // far within kTimeEps of k), so the meter records those segments as
    // one run and the clock lands on kn without firing any tick.
    const TimeMs limit = t_arr - kTimeEps;
    const auto at = [interval](int64_t k) {
        return static_cast<double>(k) * interval;
    };
    const auto k0 = static_cast<int64_t>(tickIndex(interval));
    auto kn = std::max(k0, static_cast<int64_t>(limit / interval));
    while (at(kn + 1) < limit)
        ++kn;
    while (kn > k0 && !(at(kn) < limit))
        --kn;
    if (kn > k0) {
        meter_.addTickRun(interval, k0, kn, power_->platformIdlePower(),
                          EnergyTag::Idle);
        now_ = at(kn);
    }
    return true;
}

double
RuntimeSimulator::busyFraction(TimeMs window) const
{
    if (window <= 0.0)
        return 0.0;
    const TimeMs from = now_ - window;
    TimeMs busy = 0.0;
    for (auto it = busyIntervals_.rbegin(); it != busyIntervals_.rend();
         ++it) {
        if (it->second <= from)
            break;
        busy += std::min(it->second, now_) - std::max(it->first, from);
    }
    // Intervals are flushed up to now_ before every tick, so no
    // in-flight chunk is unaccounted here.
    return std::clamp(busy / window, 0.0, 1.0);
}

void
RuntimeSimulator::fireTick()
{
    ExecutionStatus status;
    status.executing = exec_.has_value();
    status.utilization = busyFraction(driver_->sampleIntervalMs());
    status.config = currentConfig_;

    SimulatorApi api(*this);
    const auto next = driver_->onSampleTick(api, status);
    if (!next || (*next == currentConfig_))
        return;

    if (exec_) {
        exec_->switchRemaining +=
            platform_->switchCost(currentConfig_, *next);
    }
    // Idle switches complete within the idle gap; their ~0.1 ms energy is
    // below the meter's resolution and is not charged.
    currentConfig_ = *next;
}

// ------------------------- api verbs -------------------------

void
RuntimeSimulator::apiServeFromSpeculation(int trace_index, uint64_t work_id)
{
    auto it = specFrames_.begin();
    while (it != specFrames_.end() && it->first != work_id)
        ++it;
    panic_if(it == specFrames_.end(),
             "serveFromSpeculation: unknown work id %llu",
             static_cast<unsigned long long>(work_id));
    const SpecFrame frame = it->second;
    specFrames_.erase(it);
    serveEvent(trace_index, frame.ready, frame.configIndex,
               frame.busyEnergy, frame.execMs, true);
}

void
RuntimeSimulator::apiAdoptInFlight(int trace_index)
{
    panic_if(!exec_, "adoptInFlight with no executing item");
    panic_if(exec_->item.kind != WorkItem::Kind::Speculative,
             "adoptInFlight: current item is not speculative");
    panic_if(exec_->adopted, "adoptInFlight: already adopted");
    exec_->adopted = true;
    exec_->adoptedIndex = trace_index;
}

void
RuntimeSimulator::apiAbortInFlight()
{
    panic_if(!exec_, "abortInFlight with no executing item");
    panic_if(exec_->item.kind != WorkItem::Kind::Speculative,
             "abortInFlight: current item is not speculative");
    for (uint32_t i = 0; i < exec_->segCount; ++i)
        meter_.retag(segmentArena_[exec_->segFirst + i],
                     EnergyTag::SpeculativeWaste);
    result_.mispredictWasteMs += exec_->execMs;
    exec_.reset();
}

AcmpConfig
RuntimeSimulator::apiBoostInFlightToMeet(TimeMs deadline)
{
    panic_if(!exec_, "boostInFlightToMeet with no executing item");
    panic_if(exec_->item.kind != WorkItem::Kind::Speculative,
             "boostInFlightToMeet: current item is not speculative");

    int best = -1;
    EnergyMj best_energy = 0.0;
    for (int j = 0; j < platform_->numConfigs(); ++j) {
        const AcmpConfig &cfg = platform_->configAt(j);
        const TimeMs switch_cost =
            platform_->switchCost(currentConfig_, cfg);
        const TimeMs remaining = exec_->remainingFrac *
            latencyModel_.latency(exec_->truth, cfg);
        const TimeMs finish = now_ + exec_->switchRemaining +
            switch_cost + remaining;
        if (finish > deadline)
            continue;
        const EnergyMj energy =
            energyOf(power_->busyPowerAt(j), remaining);
        if (best == -1 || energy < best_energy) {
            best = j;
            best_energy = energy;
        }
    }
    const AcmpConfig chosen =
        best >= 0 ? platform_->configAt(best) : platform_->maxConfig();
    if (!(chosen == currentConfig_)) {
        exec_->switchRemaining +=
            platform_->switchCost(currentConfig_, chosen);
        currentConfig_ = chosen;
    }
    return chosen;
}

void
RuntimeSimulator::apiDiscardSpeculativeWork(uint64_t work_id)
{
    auto it = specFrames_.begin();
    while (it != specFrames_.end() && it->first != work_id)
        ++it;
    panic_if(it == specFrames_.end(),
             "discardSpeculativeWork: unknown work id %llu",
             static_cast<unsigned long long>(work_id));
    const SpecFrame &frame = it->second;
    for (uint32_t i = 0; i < frame.segCount; ++i)
        meter_.retag(segmentArena_[frame.segFirst + i],
                     EnergyTag::SpeculativeWaste);
    result_.mispredictWasteMs += frame.execMs;
    specFrames_.erase(it);
}

void
RuntimeSimulator::apiChargeSchedulerOverhead(TimeMs duration)
{
    if (duration <= 0.0)
        return;
    panic_if(exec_.has_value(),
             "scheduler overhead can only be charged while idle");
    meter_.addSegment(now_, now_ + duration,
                      power_->busyPowerAt(configIndexOfCurrent()),
                      EnergyTag::Overhead);
    busyIntervals_.emplace_back(now_, now_ + duration);
    now_ += duration;
}

void
RuntimeSimulator::apiRecordPfbSample(int pfb_size, bool after_squash)
{
    if (!recordDetail_)
        return;
    result_.pfbTrace.push_back(
        {now_, servedCount_, pfb_size, after_squash});
}

void
RuntimeSimulator::apiNotePrediction(bool correct)
{
    ++result_.predictionsMade;
    if (correct) {
        ++result_.predictionsCorrect;
    } else {
        ++result_.mispredictions;
    }
}

void
RuntimeSimulator::apiNotePredictionRound(int degree)
{
    if (!recordDetail_)
        return;
    result_.predictionDegrees.push_back(degree);
}

void
RuntimeSimulator::apiNoteFallback()
{
    result_.fellBackToReactive = true;
}

int
RuntimeSimulator::configIndexOfCurrent()
{
    // completeExec asks for the same configuration run after run; a
    // one-entry memo removes the platform's linear config scan from the
    // hot path.
    if (cachedConfigIndex_ < 0 || !(cachedConfig_ == currentConfig_)) {
        cachedConfigIndex_ = platform_->configIndex(currentConfig_);
        cachedConfig_ = currentConfig_;
    }
    return cachedConfigIndex_;
}

void
RuntimeSimulator::retagEndOfRunWaste()
{
    // A speculative item still in flight when the session ends (a
    // prediction past the last real event) is wasted work, as are any
    // leftover frames — but the session simply ended, so this is kept
    // separate from mispredict waste.
    if (exec_ && exec_->item.kind == WorkItem::Kind::Speculative &&
        !exec_->adopted) {
        for (uint32_t i = 0; i < exec_->segCount; ++i) {
            const uint64_t seg = segmentArena_[exec_->segFirst + i];
            result_.endOfRunWasteMj += meter_.energyOfSegment(seg);
            meter_.retag(seg, EnergyTag::SpeculativeWaste);
        }
        result_.endOfRunWasteMs += exec_->execMs;
        exec_.reset();
    }
    for (auto &[id, frame] : specFrames_) {
        for (uint32_t i = 0; i < frame.segCount; ++i) {
            const uint64_t seg = segmentArena_[frame.segFirst + i];
            result_.endOfRunWasteMj += meter_.energyOfSegment(seg);
            meter_.retag(seg, EnergyTag::SpeculativeWaste);
        }
        result_.endOfRunWasteMs += frame.execMs;
    }
    specFrames_.clear();
}

void
RuntimeSimulator::finish()
{
    retagEndOfRunWaste();

    result_.duration = std::max(now_, lastDisplay_);
    const EnergyTotals totals = meter_.tagTotals();
    result_.totalEnergy = totals.total;
    result_.busyEnergy = totals.of(EnergyTag::Busy);
    result_.idleEnergy = totals.of(EnergyTag::Idle);
    result_.overheadEnergy = totals.of(EnergyTag::Overhead);
    result_.wasteEnergy = totals.of(EnergyTag::SpeculativeWaste);
    result_.avgQueueLength = queue_.lengthStats().mean();
}

} // namespace pes
