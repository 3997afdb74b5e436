#include "core/predictor.hh"

#include <algorithm>
#include <cmath>

namespace pes {

EventPredictor::EventPredictor(const LogisticModel &model)
    : EventPredictor(model, Config{})
{
}

EventPredictor::EventPredictor(const LogisticModel &model, Config config)
    : model_(&model), config_(config)
{
}

std::optional<CandidateEvent>
EventPredictor::pickTarget(const DomAnalysis &analysis,
                           const FeatureWindow &window,
                           DomEventType type) const
{
    const Rect view = analysis.viewport.rect();

    double last_x = view.cx();
    double last_y = view.cy();
    window.lastTapPosition(last_x, last_y);

    // Deterministic mirror of the user model's attention heuristic:
    // visible area, proximity to the previous tap, open menus first.
    std::optional<CandidateEvent> best;
    double best_score = -1.0;
    for (const AnalyzedCandidate &cand : analysis.candidates) {
        if (cand.event.type != type)
            continue;
        const Rect &rect = cand.rect;
        double score = std::sqrt(
            std::max(1.0, rect.intersectionArea(view)));
        const double dx = rect.cx() - last_x;
        const double dy = rect.cy() - last_y;
        const double dist = std::sqrt(dx * dx + dy * dy);
        score *= 1.0 + 2.0 / (1.0 + dist / 200.0);
        if (cand.role == NodeRole::MenuItem)
            score *= 6.0;
        if (cand.event.node == 0 &&
            interactionOf(type) == Interaction::Load)
            score *= 0.08;  // direct reloads are rare
        if (best_score < score) {
            best_score = score;
            best = cand.event;
        }
    }
    return best;
}

std::optional<PredictedEvent>
EventPredictor::predictFromAnalysis(const DomAnalysis &analysis,
                                    const DomOverlay &state,
                                    const FeatureWindow &window) const
{
    if (config_.useDomAnalysis && analysis.candidates.empty())
        return std::nullopt;

    const FeatureVector f = window.extract(analysis.stats);
    const auto probs = model_->probabilities(f);

    // Mask the learner's classes with the candidate set (DOM analysis
    // narrows the prediction space, Sec. 5.2). Without DOM analysis
    // (Sec. 6.5 ablation) the learner predicts over the full class
    // space: nothing narrows the prediction to the events the
    // application logic can actually trigger.
    std::array<bool, kNumDomEventTypes> possible{};
    if (config_.useDomAnalysis) {
        for (const AnalyzedCandidate &cand : analysis.candidates)
            possible[static_cast<size_t>(cand.event.type)] = true;
    } else {
        possible.fill(true);
    }

    int best_cls = -1;
    double mass = 0.0;
    for (int c = 0; c < kNumDomEventTypes; ++c) {
        if (!possible[static_cast<size_t>(c)])
            continue;
        mass += probs[static_cast<size_t>(c)];
        if (best_cls == -1 ||
            probs[static_cast<size_t>(c)] >
                probs[static_cast<size_t>(best_cls)]) {
            best_cls = c;
        }
    }
    if (best_cls == -1)
        return std::nullopt;
    const auto type = static_cast<DomEventType>(best_cls);

    const auto target = pickTarget(analysis, window, type);
    if (config_.useDomAnalysis && !target)
        return std::nullopt;

    PredictedEvent prediction;
    prediction.type = type;
    // Learner-only mode may predict a type the page does not even
    // register; fall back to the document root as the nominal target.
    prediction.node = target ? target->node : 0;
    prediction.pageId = state.pageId;
    // Confidence: the chosen logistic model's probability, renormalized
    // over the possible (masked) classes — the probability that the next
    // event is of this type given that it is one the application logic
    // allows. Sec. 5.2's p with the LNES conditioning made explicit.
    prediction.confidence = mass > 0.0
        ? probs[static_cast<size_t>(best_cls)] / mass
        : probs[static_cast<size_t>(best_cls)];
    return prediction;
}

std::optional<PredictedEvent>
EventPredictor::predictNext(const DomAnalyzer &analyzer,
                            const DomOverlay &state,
                            const FeatureWindow &window) const
{
    // One analyze() traversal supplies the LNES, the viewport features
    // and every candidate's geometry.
    if (config_.useDomAnalysis)
        return predictFromAnalysis(analyzer.analyze(state), state, window);

    // The Sec. 6.5 ablation's learner chooses among every event
    // registered anywhere on the page, visible or not.
    DomAnalysis analysis;
    analysis.viewport = analyzer.viewportFor(state);
    analysis.stats = analyzer.viewportStats(state);
    for (const CandidateEvent &event : analyzer.allPageEvents(state)) {
        analysis.candidates.push_back(
            {event, analyzer.nodeRect(state, event.node),
             analyzer.nodeRole(state, event.node)});
    }
    return predictFromAnalysis(analysis, state, window);
}

std::vector<PredictedEvent>
EventPredictor::predictSequence(const DomAnalyzer &analyzer,
                                DomOverlay state,
                                FeatureWindow window) const
{
    std::vector<PredictedEvent> out;
    double cumulative = 1.0;
    while (static_cast<int>(out.size()) < config_.maxDegree) {
        const auto next = predictNext(analyzer, state, window);
        if (!next)
            break;
        const double tentative = cumulative * next->confidence;
        if (tentative < config_.confidenceThreshold)
            break;
        cumulative = tentative;
        out.push_back(*next);

        // Feed the prediction back: window update + static state rollout.
        // Without DOM analysis there is no SemanticTree to roll the
        // hypothetical state forward (Sec. 6.5 ablation): the learner
        // keeps predicting against the stale state, which is what costs
        // it accuracy at higher prediction degrees.
        const Rect rect = analyzer.nodeRect(state, next->node);
        window.observe(next->type, rect.cx(), rect.cy());
        if (config_.useDomAnalysis)
            analyzer.applyHypothetical({next->type, next->node}, state);
    }
    return out;
}

} // namespace pes
