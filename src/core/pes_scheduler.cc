#include "core/pes_scheduler.hh"

#include <algorithm>

#include "core/ebs_scheduler.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace pes {

namespace {

/** Consecutive mispredictions tolerated before falling back to EBS. */
constexpr int kMaxConsecutiveMispredicts = 3;

/** Scheduler compute charged per planning round (Sec. 6.3). */
constexpr TimeMs kPlanOverheadMs = 2.0;

/** Fraction of the estimated inter-arrival gap a predicted event's
 *  expected arrival relies on. */
constexpr double kArrivalSafetyFactor = 0.35;

} // namespace

PesScheduler::PesScheduler(const LogisticModel &model)
    : PesScheduler(model, Config{})
{
}

PesScheduler::PesScheduler(const LogisticModel &model, Config config)
    : model_(model), config_(std::move(config))
{
}

std::string
PesScheduler::name() const
{
    return config_.nameOverride.empty() ? "PES" : config_.nameOverride;
}

void
PesScheduler::begin(SimulatorApi &api)
{
    // predictor/analyzer/optimizer bind to the per-run session and
    // simulator models; the EBS policy (Eqn.-1 measurements) and the
    // inter-arrival model persist across sessions like a warmed device.
    predictor_.emplace(model_, config_.predictor);
    analyzer_.emplace(api.session());
    optimizer_.emplace(api.latencyModel(), api.powerModel(), api.vsync());
    if (!ebs_) {
        ebs_.emplace(api.platform(), api.powerModel());
        ewmaGap_[static_cast<size_t>(Interaction::Load)] = 7000.0;
        ewmaGap_[static_cast<size_t>(Interaction::Tap)] = 4000.0;
        ewmaGap_[static_cast<size_t>(Interaction::Move)] = 2500.0;
    }
    plan_.clear();
    planNext_ = 0;
    pfb_ = PendingFrameBuffer{};
    inflight_.reset();
    window_.clear();
    consecutiveMispredicts_ = 0;
    fallback_ = false;
    lastArrivalTime_ = 0.0;
    lastArrivalType_.reset();
}

uint64_t
PesScheduler::classKeyFor(SimulatorApi &api,
                          const PredictedEvent &predicted) const
{
    const WebApp &app = api.session().app();
    if (predicted.pageId >= 0 && predicted.pageId < app.numPages()) {
        const DomTree &dom = app.dom(predicted.pageId);
        if (predicted.node >= 0 &&
            predicted.node < static_cast<NodeId>(dom.size())) {
            const HandlerSpec *handler =
                dom.node(predicted.node).handlerFor(predicted.type);
            if (handler) {
                return eventClassKeyFor(app.name(), predicted.pageId,
                                        predicted.node, *handler);
            }
        }
    }
    return eventClassKey(app.name(), predicted.pageId, predicted.node,
                         predicted.type);
}

void
PesScheduler::recordMeasurement(SimulatorApi &api, uint64_t class_key,
                                DomEventType type,
                                const CompletedWork &work)
{
    (void)api;
    ebs_->recordMeasurement(class_key, type, work.finalConfig, work.execMs);
}

void
PesScheduler::squash(SimulatorApi &api)
{
    api.notePrediction(false);
    ++consecutiveMispredicts_;

    // Stop the dispatcher: abort in-flight speculation (unless it is
    // already serving a matched event) and drop every buffered frame.
    if (inflight_ && !inflight_->adopted) {
        api.abortInFlight();
        inflight_.reset();
    }
    for (const PendingFrame &frame : pfb_.drain())
        api.discardSpeculativeWork(frame.workId);
    api.recordPfbSample(0, true);

    plan_.clear();
    planNext_ = 0;

    if (consecutiveMispredicts_ > kMaxConsecutiveMispredicts &&
        !fallback_) {
        fallback_ = true;
        api.noteFallback();
    }
}

void
PesScheduler::onArrival(SimulatorApi &api, int trace_index)
{
    const TraceEvent &ev = api.arrivedEvent(trace_index);
    window_.observe(ev.type, ev.x, ev.y);

    // Update the inter-arrival model (gap keyed by the interaction that
    // preceded it, mirroring think-time structure).
    if (lastArrivalType_) {
        const auto prev =
            static_cast<size_t>(interactionOf(*lastArrivalType_));
        const TimeMs gap = ev.arrival - lastArrivalTime_;
        ewmaGap_[prev] = 0.7 * ewmaGap_[prev] + 0.3 * gap;
    }
    lastArrivalTime_ = ev.arrival;
    lastArrivalType_ = ev.type;

    if (fallback_ || !config_.enablePrediction)
        return;

    // 1. A finished frame anticipates this position.
    if (const auto head = pfb_.head()) {
        panic_if(head->position != trace_index,
                 "PFB head position %d does not match arrival %d",
                 head->position, trace_index);
        if (matchesUnder(config_.matchPolicy, head->predicted, ev)) {
            api.notePrediction(true);
            consecutiveMispredicts_ = 0;
            api.serveFromSpeculation(trace_index, head->workId);
            if (matchesUnder(MatchPolicy::Strict, head->predicted, ev)) {
                ebs_->recordMeasurement(
                    ev.classKey, ev.type,
                    api.platform().configAt(head->configIndex),
                    head->execMs);
            }
            pfb_.pop();
            api.recordPfbSample(pfb_.size(), false);
        } else {
            squash(api);
        }
        return;
    }

    // 2. The in-flight speculative item anticipates this position.
    if (inflight_ && !inflight_->adopted &&
        inflight_->position == trace_index) {
        if (matchesUnder(config_.matchPolicy, inflight_->predicted, ev)) {
            api.notePrediction(true);
            consecutiveMispredicts_ = 0;
            api.adoptInFlight(trace_index);
            inflight_->adopted = true;
            inflight_->adoptedIndex = trace_index;
            inflight_->nodeExact =
                matchesUnder(MatchPolicy::Strict, inflight_->predicted, ev);
            // QoS safety net: the user arrived while the frame is still
            // being generated (possibly on a deep-sleep configuration);
            // raise DVFS so the frame still meets the event's deadline.
            const AcmpConfig before = api.currentConfig();
            const AcmpConfig after = api.boostInFlightToMeet(
                EbsScheduler::displayDeadline(api, ev));
            inflight_->boosted = !(before == after);
        } else {
            squash(api);
        }
        return;
    }

    // 3. A planned-but-undispatched item anticipates this position.
    for (size_t i = planNext_; i < plan_.size(); ++i) {
        PlanItem &item = plan_[i];
        if (item.position != trace_index)
            continue;
        if (item.real)
            return;  // outstanding at plan time; dispatches from queue
        if (matchesUnder(config_.matchPolicy, item.predicted, ev)) {
            api.notePrediction(true);
            consecutiveMispredicts_ = 0;
            item.real = true;  // dispatch as real work later
            // Its planned configuration assumed speculative slack that no
            // longer exists; rechoose against the real arrival budget.
            item.configIndex = api.platform().configIndex(
                EbsScheduler::reactiveItem(api, *ebs_, trace_index)
                    .config);
        } else {
            squash(api);
        }
        return;
    }

    // 4. Not covered: the plan has drained; nextWork will replan.
}

bool
PesScheduler::buildPlan(SimulatorApi &api)
{
    const auto outstanding = api.pendingQueue().snapshot();

    // Roll the committed state through the outstanding events, then
    // predict beyond them.
    DomOverlay state = api.session().snapshotState();
    for (const QueuedEvent &qe : outstanding) {
        const TraceEvent &ev = api.arrivedEvent(qe.traceIndex);
        analyzer_->applyHypothetical({ev.type, ev.node}, state);
    }

    std::vector<PredictedEvent> predicted;
    // Prediction needs history: the session-opening event is handled
    // reactively.
    if (config_.enablePrediction && !fallback_ &&
        window_.eventsInWindow() > 0) {
        predicted = predictor_->predictSequence(*analyzer_, state, window_);
    }

    if (outstanding.empty() && predicted.empty())
        return false;

    std::vector<PlanEventSpec> specs;
    std::vector<uint64_t> keys;
    specs.reserve(outstanding.size() + predicted.size());
    for (const QueuedEvent &qe : outstanding) {
        const TraceEvent &ev = api.arrivedEvent(qe.traceIndex);
        PlanEventSpec spec;
        spec.work = ebs_->estimateWorkload(ev.classKey, ev.type);
        spec.qosTarget = ev.qosTarget();
        spec.arrival = ev.arrival;
        specs.push_back(spec);
        keys.push_back(ev.classKey);
    }
    // Expected-arrival chain for predicted events: start from the last
    // known event and accumulate safety-scaled inter-arrival estimates.
    TimeMs expected = lastArrivalTime_;
    Interaction prev_interaction = lastArrivalType_
        ? interactionOf(*lastArrivalType_) : Interaction::Load;
    if (!outstanding.empty()) {
        const TraceEvent &last = api.arrivedEvent(
            outstanding.back().traceIndex);
        expected = last.arrival;
        prev_interaction = interactionOf(last.type);
    }
    for (const PredictedEvent &pred : predicted) {
        PlanEventSpec spec;
        const uint64_t key = classKeyFor(api, pred);
        spec.work = ebs_->estimateWorkload(key, pred.type);
        spec.qosTarget = qosTargetMs(pred.type);
        expected += kArrivalSafetyFactor *
            ewmaGap_[static_cast<size_t>(prev_interaction)];
        const bool relax =
            config_.deadlineModel == DeadlineModel::ExpectedGapAll ||
            (config_.deadlineModel == DeadlineModel::ExpectedGapLoads &&
             interactionOf(pred.type) == Interaction::Load);
        if (relax)
            spec.expectedArrival = std::max(expected, api.now());
        prev_interaction = interactionOf(pred.type);
        specs.push_back(spec);
        keys.push_back(key);
    }

    // Scheduler compute (prediction + constrained optimization).
    api.chargeSchedulerOverhead(kPlanOverheadMs);
    const ScheduleSolution solution = optimizer_->planSchedule(
        api.now(), api.currentConfig(), specs);

    plan_.clear();
    planNext_ = 0;
    const int next_position = api.nextUnservedPosition();
    for (size_t i = 0; i < specs.size(); ++i) {
        PlanItem item;
        item.position = next_position + static_cast<int>(i);
        item.real = i < outstanding.size();
        if (!item.real)
            item.predicted = predicted[i - outstanding.size()];
        item.configIndex = solution.configOf[i];
        // Measurement protocol: a never-seen event class runs at the
        // deadline-safe probe configuration (Sec. 5.3); from the second
        // encounter the one-point estimate feeds the optimizer.
        if (ebs_->estimator().measurementCount(keys[i]) == 0) {
            item.configIndex = api.platform().configIndex(
                ebs_->estimator().probeConfig(keys[i]));
        }
        plan_.push_back(item);
    }
    if (!predicted.empty())
        api.notePredictionRound(static_cast<int>(predicted.size()));
    return true;
}

std::optional<WorkItem>
PesScheduler::nextWork(SimulatorApi &api)
{
    if (fallback_ || !config_.enablePrediction) {
        const auto front = api.pendingQueue().front();
        if (!front)
            return std::nullopt;
        return EbsScheduler::reactiveItem(api, *ebs_, front->traceIndex);
    }

    for (;;) {
        if (planNext_ < plan_.size()) {
            PlanItem &item = plan_[planNext_];
            const bool arrived = item.position < api.arrivedCount();
            if (item.real || arrived) {
                const auto front = api.pendingQueue().front();
                if (!front || front->traceIndex != item.position) {
                    // Stale entry (event already served another way).
                    ++planNext_;
                    continue;
                }
                ++planNext_;
                item.dispatched = true;
                WorkItem work;
                work.kind = WorkItem::Kind::Real;
                work.traceIndex = item.position;
                work.config = api.platform().configAt(item.configIndex);
                // Dispatch-time repair: if earlier events overran their
                // estimates, the planned configuration may no longer
                // meet this event's deadline — rechoose reactively.
                const TraceEvent &ev = api.arrivedEvent(item.position);
                const TimeMs budget =
                    EbsScheduler::displayDeadline(api, ev) - api.now() -
                    api.platform().switchCost(api.currentConfig(),
                                              work.config);
                const Workload est =
                    ebs_->estimateWorkload(ev.classKey, ev.type);
                if (api.latencyModel().latency(est, work.config) > budget) {
                    work.config = ebs_->chooseConfig(
                        ev.classKey, ev.type, std::max(0.0, budget));
                }
                return work;
            }
            ++planNext_;
            item.dispatched = true;
            inflight_ = InFlight{item.position, item.predicted, false,
                                 -1, false};
            WorkItem work;
            work.kind = WorkItem::Kind::Speculative;
            work.targetPosition = item.position;
            work.predicted = item.predicted;
            work.matchPolicy = config_.matchPolicy;
            work.config = api.platform().configAt(item.configIndex);
            return work;
        }

        if (!pfb_.empty()) {
            // All speculative frames generated; wait for user events to
            // commit them before predicting a new round (Sec. 5.4).
            panic_if(!api.pendingQueue().empty(),
                     "pending events while the PFB holds frames");
            return std::nullopt;
        }

        if (!buildPlan(api))
            return std::nullopt;
    }
}

void
PesScheduler::onWorkFinished(SimulatorApi &api, const CompletedWork &work)
{
    if (work.item.kind == WorkItem::Kind::Real) {
        const TraceEvent &ev = api.arrivedEvent(work.item.traceIndex);
        recordMeasurement(api, ev.classKey, ev.type, work);
        return;
    }

    panic_if(!inflight_ ||
             inflight_->position != work.item.targetPosition,
             "completed speculative work does not match in-flight state");
    const InFlight state = *inflight_;
    inflight_.reset();

    if (state.adopted) {
        // Already served by the simulator at completion time. A boosted
        // execution spans two configurations and would corrupt the
        // Eqn.-1 fit, so it is not recorded.
        if (state.nodeExact && !state.boosted) {
            const TraceEvent &ev = api.arrivedEvent(state.adoptedIndex);
            recordMeasurement(api, ev.classKey, ev.type, work);
        }
        return;
    }

    PendingFrame frame;
    frame.workId = work.workId;
    frame.position = work.item.targetPosition;
    frame.predicted = work.item.predicted;
    frame.ready = work.finishTime;
    frame.execMs = work.execMs;
    frame.configIndex = api.platform().configIndex(work.finalConfig);
    pfb_.push(frame);
    api.recordPfbSample(pfb_.size(), false);
}

} // namespace pes
