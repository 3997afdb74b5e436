#include "core/predictor_training.hh"

#include "web/dom_analyzer.hh"

namespace pes {

std::vector<TrainSample>
buildDataset(const WebApp &app, const InteractionTrace &trace)
{
    std::vector<TrainSample> samples;
    samples.reserve(trace.events.size());

    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;

    for (const TraceEvent &ev : trace.events) {
        const DomOverlay state = session.snapshotState();
        const ViewportStats stats = analyzer.viewportStats(state);
        TrainSample sample;
        sample.x = window.extract(stats);
        sample.label = ev.type;
        samples.push_back(sample);

        window.observe(ev.type, ev.x, ev.y);
        session.commitEvent(ev.node, ev.type);
    }
    return samples;
}

LogisticModel
trainEventModel(TraceGenerator &generator,
                const std::vector<AppProfile> &profiles,
                int traces_per_app, const TrainConfig &config)
{
    std::vector<TrainSample> dataset;
    for (const AppProfile &profile : profiles) {
        const WebApp &app = generator.appFor(profile);
        for (const InteractionTrace &trace :
             generator.trainingSet(profile, traces_per_app)) {
            const auto samples = buildDataset(app, trace);
            dataset.insert(dataset.end(), samples.begin(), samples.end());
        }
    }
    SgdTrainer trainer(config);
    return trainer.train(dataset);
}

PredictorEval
evaluatePredictor(const LogisticModel &model, const WebApp &app,
                  const InteractionTrace &trace,
                  EventPredictor::Config config)
{
    PredictorEval eval;
    EventPredictor predictor(model, config);

    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;

    for (const TraceEvent &ev : trace.events) {
        const DomOverlay state = session.snapshotState();
        // Prediction starts once there is history to predict from; the
        // session-opening load is not a prediction target.
        const auto prediction = window.eventsInWindow() == 0
            ? std::nullopt
            : predictor.predictNext(analyzer, state, window);
        if (prediction) {
            eval.confusion.add(ev.type, prediction->type);
            eval.calibration.add(prediction->confidence,
                                 prediction->type == ev.type);
        }
        window.observe(ev.type, ev.x, ev.y);
        session.commitEvent(ev.node, ev.type);
    }
    return eval;
}

} // namespace pes
