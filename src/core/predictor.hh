/**
 * @file
 * The PES event predictor (paper Sec. 5.2).
 *
 * Combines statistical inference with program analysis: a set of logistic
 * models scores each possible next DOM event type from the Table-1
 * features; the DOM analyzer's Likely-Next-Event-Set masks away types the
 * application logic cannot trigger in the current (hypothetical) state,
 * and supplies the concrete target node. The predictor runs recurrently —
 * each predicted event is fed back (window update + SemanticTree rollout
 * of its effect) to predict the subsequent one — until the cumulative
 * confidence (product of per-step confidences) would fall below the
 * confidence threshold. The number of events predicted per round is the
 * prediction degree (~5 at the paper's 70% threshold).
 */

#ifndef PES_CORE_PREDICTOR_HH
#define PES_CORE_PREDICTOR_HH

#include <vector>

#include "ml/logistic.hh"
#include "sim/sim_types.hh"
#include "web/dom_analyzer.hh"

namespace pes {

/**
 * Recurrent event-sequence predictor.
 */
class EventPredictor
{
  public:
    /** Predictor knobs. */
    struct Config
    {
        /** Cumulative-confidence stopping threshold (paper: 70%). */
        double confidenceThreshold = 0.70;
        /** Hard cap on the prediction degree. */
        int maxDegree = 10;
        /**
         * Use DOM analysis (LNES masking + target selection). Disabling
         * reproduces the Sec. 6.5 "predictor design" ablation: the
         * learner alone, masked only by the handlers that exist anywhere
         * on the current page.
         */
        bool useDomAnalysis = true;
    };

    explicit EventPredictor(const LogisticModel &model);
    EventPredictor(const LogisticModel &model, Config config);

    /**
     * Predict the next event sequence.
     *
     * @param analyzer Analyzer over the live session.
     * @param state Hypothetical DOM state to start from (committed state
     *        rolled through any outstanding events).
     * @param window Event history window matching @p state.
     * @return Predicted events, most imminent first; empty when the first
     *         step's confidence is already below the threshold or no
     *         events are possible.
     */
    std::vector<PredictedEvent>
    predictSequence(const DomAnalyzer &analyzer, DomOverlay state,
                    FeatureWindow window) const;

    /**
     * Single-step prediction (no rollout): the most probable next event
     * in @p state, or nullopt when nothing can trigger.
     */
    std::optional<PredictedEvent>
    predictNext(const DomAnalyzer &analyzer, const DomOverlay &state,
                const FeatureWindow &window) const;

    /** The active configuration. */
    const Config &config() const { return config_; }

  private:
    /**
     * Choose the concrete target node for @p type among the analyzed
     * candidates: largest visible area with a proximity boost toward
     * the previous tap, menu items preferred (deterministic mirror of
     * the user model's attention heuristic).
     */
    std::optional<CandidateEvent>
    pickTarget(const DomAnalysis &analysis, const FeatureWindow &window,
               DomEventType type) const;

    /**
     * predictNext body over an analysis of the state: the LNES from
     * analyze(), or every page event when DOM analysis is off.
     */
    std::optional<PredictedEvent>
    predictFromAnalysis(const DomAnalysis &analysis,
                        const DomOverlay &state,
                        const FeatureWindow &window) const;

    const LogisticModel *model_;
    Config config_;
};

} // namespace pes

#endif // PES_CORE_PREDICTOR_HH
