#include "trace/user_model.hh"

#include <algorithm>
#include <cmath>

#include "ml/features.hh"
#include "trace/dom_builder.hh"
#include "trace/workload_params.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "web/dom_analyzer.hh"

namespace pes {

namespace {

/** Interaction-level classes the user chooses among. */
enum class UserChoice { Tap = 0, Move, Nav, Submit };
constexpr int kNumChoices = 4;

/** Session-length target distribution (median ~108 s). */
constexpr TimeMs kSessionMedianMs = 108000.0;
constexpr double kSessionSigma = 0.18;

struct Candidate
{
    CandidateEvent event;
    double weight = 0.0;
};

UserChoice
choiceOf(DomEventType type)
{
    switch (interactionOf(type)) {
      case Interaction::Load:
        return UserChoice::Nav;
      case Interaction::Move:
        return UserChoice::Move;
      case Interaction::Tap:
        return type == DomEventType::Submit ? UserChoice::Submit
                                            : UserChoice::Tap;
    }
    panic("choiceOf: bad type");
}

} // namespace

UserParams
UserParams::sample(Rng &rng)
{
    UserParams params;
    params.thinkScale = rng.lognormal(1.0, 0.25);
    params.moveAffinity = rng.lognormal(1.0, 0.20);
    params.tapAffinity = rng.lognormal(1.0, 0.20);
    params.navAffinity = rng.lognormal(1.0, 0.20);
    return params;
}

UserModel::UserModel(const AppProfile &profile, const WebApp &app,
                     uint64_t user_seed, const AcmpPlatform &platform,
                     const UserParams *trait_scale)
    : profile_(&profile), app_(&app), userSeed_(user_seed),
      platform_(&platform), traitScale_(trait_scale)
{
}

InteractionTrace
UserModel::generateSession() const
{
    const AppProfile &p = *profile_;
    Rng rng(hashCombine(hashString(p.name.c_str()), userSeed_));
    const UserParams sampled = UserParams::sample(rng);
    const UserParams user =
        traitScale_ ? sampled.scaledBy(*traitScale_) : sampled;

    WebAppSession session(*app_);
    DomAnalyzer analyzer(session);
    FeatureWindow window;
    RenderPipeline pipeline;

    InteractionTrace trace;
    trace.appName = p.name;
    trace.userSeed = userSeed_;

    const TimeMs target_duration =
        rng.lognormal(kSessionMedianMs, kSessionSigma);

    auto emit = [&](const CandidateEvent &cand, TimeMs arrival) {
        const DomTree &dom = session.dom();
        const HandlerSpec *handler =
            dom.node(cand.node).handlerFor(cand.type);
        panic_if(!handler, "user model chose an event with no handler");

        TraceEvent e;
        e.arrival = arrival;
        e.type = cand.type;
        e.node = cand.node;
        e.pageId = session.currentPage();
        // Interaction position: center of the node's visible part.
        const Rect node_rect = dom.node(cand.node).rect;
        const Rect view = session.viewport().rect();
        e.x = std::clamp(node_rect.cx(), view.x, view.x + view.w);
        e.y = std::clamp(node_rect.cy(), view.y, view.y + view.h);
        e.x += rng.uniform(-8.0, 8.0);
        e.y += rng.uniform(-8.0, 8.0);

        e.callbackWork =
            handler->medianWork.scaled(rng.lognormal(1.0, handler->workSigma));
        const RenderWork nominal = pipeline.frameWork(
            dom.size(), handler->dirtyNodes,
            p.renderScale * handler->renderCostScale);
        e.renderWork =
            nominal.scaled(rng.lognormal(1.0, handler->workSigma * 0.7));
        if (e.type == DomEventType::Load) {
            // Keep loads inside their QoS target at the fastest
            // configuration (see kMaxLoadLatencyAtMaxMs).
            const DvfsLatencyModel model(*platform_);
            const TimeMs at_max =
                model.latency(e.totalWork(), platform_->maxConfig());
            if (at_max > kMaxLoadLatencyAtMaxMs) {
                const double shrink = kMaxLoadLatencyAtMaxMs / at_max;
                e.callbackWork = e.callbackWork.scaled(shrink);
                e.renderWork = e.renderWork.scaled(shrink);
            }
        }
        e.issuesNetwork = handler->issuesNetworkRequest;
        e.classKey = eventClassKeyFor(p.name, e.pageId, e.node, *handler);
        trace.events.push_back(e);

        window.observe(e.type, e.x, e.y);
        session.commitEvent(cand.node, cand.type);
    };

    // Session starts with the landing-page load.
    emit({DomEventType::Load, session.dom().root()}, 0.0);

    TimeMs now = 0.0;
    int burst_remaining = 0;
    while (trace.events.size() <
           static_cast<size_t>(UserModel::kMaxEvents)) {
        // ---- think time ----
        const DomEventType prev_type = trace.events.back().type;
        TimeMs gap = 0.0;
        if (burst_remaining > 0) {
            --burst_remaining;
            gap = rng.lognormal(260.0 * user.thinkScale, 0.40);
        } else if (rng.bernoulli(p.burstiness) &&
                   interactionOf(prev_type) != Interaction::Load) {
            burst_remaining = rng.uniformInt(2, 6);
            gap = rng.lognormal(300.0 * user.thinkScale, 0.40);
        } else {
            switch (interactionOf(prev_type)) {
              case Interaction::Load:
                gap = rng.lognormal(7000.0 * user.thinkScale, 0.50);
                break;
              case Interaction::Tap:
                gap = rng.lognormal(0.95 * p.thinkMedianMs *
                                    user.thinkScale, 0.55);
                break;
              case Interaction::Move:
                gap = rng.lognormal(0.70 * p.thinkMedianMs *
                                    user.thinkScale, 0.55);
                break;
            }
        }
        gap = std::max(gap, 40.0);
        now += gap;
        if (now > target_duration && trace.events.size() >= 8)
            break;

        // ---- observe state, compute features ----
        // One batched DOM pass: LNES, viewport features and the
        // per-candidate geometry the target pick below scores with.
        const DomOverlay state = session.snapshotState();
        const DomAnalysis &analysis = analyzer.analyze(state);
        const auto &lnes = analysis.candidates;
        if (lnes.empty())
            break;  // defensive; the root always carries handlers
        const FeatureVector f = window.extract(analysis.stats);

        // ---- class scores: linear in the Table-1 feature family ----
        std::array<bool, kNumChoices> available{};
        for (const AnalyzedCandidate &c : lnes)
            available[static_cast<size_t>(choiceOf(c.event.type))] = true;

        // How much page remains below the fold (discourages scrolling at
        // the bottom).
        const double page_h = session.dom().pageHeight();
        const double remaining = std::max(
            0.0, page_h - session.viewport().height - state.scrollY);
        const double scroll_room =
            std::min(1.0, remaining / session.viewport().height);

        std::array<double, kNumChoices> score{};
        score[0] = p.tapBias * user.tapAffinity *
            (0.45 + 2.4 * f.clickableFrac());
        score[1] = p.moveBias * user.moveAffinity * scroll_room *
            (0.55 + 1.6 * f.scrollsInWindow()) *
            (burst_remaining > 0 ? 3.0 : 1.0);
        // Navigation: a low ambient rate plus a strong gate when large
        // navigation affordances are on screen (an open nav menu). Users
        // who open a menu overwhelmingly pick a destination from it.
        score[2] = p.navBias * user.navAffinity *
            (0.25 + 2.0 * f.visibleLinkFrac() +
             0.7 * f.navsInWindow()) +
            user.navAffinity * 55.0 *
            std::max(0.0, f.visibleLinkFrac() - 0.15);
        score[3] = available[3]
            ? p.submitBias *
              (0.3 + 1.6 * std::max(0.0, 1.0 - 3.0 * f.distToPrevClick()))
            : 0.0;

        std::vector<double> weights(kNumChoices, 0.0);
        for (int c = 0; c < kNumChoices; ++c) {
            if (!available[static_cast<size_t>(c)])
                continue;
            const double s = std::max(1e-6, score[static_cast<size_t>(c)]);
            // Temperature: flattens (temp > 1) or sharpens (temp < 1).
            weights[static_cast<size_t>(c)] =
                std::pow(s, 1.0 / p.behaviorTemp);
        }
        const auto choice = static_cast<UserChoice>(rng.categorical(weights));

        // ---- pick the concrete target within the class ----
        std::vector<Candidate> candidates;
        const DomTree &dom = session.dom();
        const Rect view = session.viewport().rect();
        const double last_x = trace.events.back().x;
        const double last_y = trace.events.back().y;
        for (const AnalyzedCandidate &c : lnes) {
            if (choiceOf(c.event.type) != choice)
                continue;
            double w = std::sqrt(
                std::max(1.0, c.rect.intersectionArea(view)));
            const double dx = c.rect.cx() - last_x;
            const double dy = c.rect.cy() - last_y;
            const double dist = std::sqrt(dx * dx + dy * dy);
            w *= 1.0 + 2.0 / (1.0 + dist / 200.0);
            if (c.role == NodeRole::MenuItem)
                w *= 6.0;  // open menus capture attention
            if (c.event.node == dom.root() &&
                interactionOf(c.event.type) == Interaction::Load) {
                w *= 0.08;  // direct reloads are rare
            }
            candidates.push_back({c.event, w});
        }
        if (candidates.empty())
            continue;  // class sampled but no concrete target; re-think
        std::vector<double> cand_weights;
        cand_weights.reserve(candidates.size());
        for (const Candidate &c : candidates)
            cand_weights.push_back(c.weight);
        const Candidate &picked =
            candidates[static_cast<size_t>(rng.categorical(cand_weights))];

        emit(picked.event, now);
    }

    const DvfsLatencyModel latency_model(*platform_);
    repairOracleFeasibility(trace, latency_model, VsyncClock());
    return trace;
}

int
repairOracleFeasibility(InteractionTrace &trace,
                        const DvfsLatencyModel &latency_model,
                        const VsyncClock &vsync)
{
    const AcmpConfig max_cfg = latency_model.platform().maxConfig();
    // Slack must cover the VSync display floor plus the scheduler's
    // compute overhead and configuration-switch costs, or a borderline
    // event can still slip one refresh past its deadline.
    const TimeMs slack = vsync.periodMs() + 4.0;
    int adjusted = 0;
    TimeMs chain_finish = 0.0;
    TimeMs shift = 0.0;
    for (TraceEvent &e : trace.events) {
        e.arrival += shift;
        chain_finish += latency_model.latency(e.totalWork(), max_cfg);
        const TimeMs latest_ok = e.arrival + e.qosTarget() - slack;
        if (chain_finish > latest_ok) {
            // Push this arrival (and everything after) late enough that
            // even the earliest-possible finish leaves a VSync of margin.
            const TimeMs need = chain_finish - latest_ok;
            e.arrival += need;
            shift += need;
            ++adjusted;
        }
    }
    return adjusted;
}

} // namespace pes
