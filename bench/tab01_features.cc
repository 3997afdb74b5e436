/**
 * @file
 * Reproduces paper Table 1: the prediction-model features. Prints the
 * feature inventory together with their empirical distributions over the
 * evaluation traces and each feature's univariate usefulness (accuracy
 * of a model trained on that feature alone), grounding the table in
 * measured data.
 */

#include "bench/bench_common.hh"
#include "core/predictor_training.hh"
#include "util/stats.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Table 1 - Model features",
                "PES paper Table 1 (Sec. 5.2).");

    DeviceContext device;

    // Collect the feature matrix over seen-app evaluation traces.
    std::vector<TrainSample> samples;
    for (const AppProfile &p : seenApps()) {
        const WebApp &app = device.generator().appFor(p);
        for (const auto &trace : device.generator().evaluationSet(p, 2)) {
            const auto s = buildDataset(app, trace);
            samples.insert(samples.end(), s.begin(), s.end());
        }
    }

    const char *category[kNumFeatures] = {
        "application-inherent", "application-inherent",
        "interaction-dependent", "interaction-dependent",
        "interaction-dependent"};

    Table table({"category", "feature", "mean", "stddev", "min", "max",
                 "solo_accuracy_pct"});
    for (int f = 0; f < kNumFeatures; ++f) {
        RunningStats stats;
        for (const TrainSample &s : samples)
            stats.add(s.x.v[static_cast<size_t>(f)]);

        // Univariate usefulness: train on this feature alone.
        std::vector<TrainSample> solo = samples;
        for (TrainSample &s : solo) {
            for (int g = 0; g < kNumFeatures; ++g) {
                if (g != f)
                    s.x.v[static_cast<size_t>(g)] = 0.0;
            }
        }
        SgdTrainer trainer;
        const LogisticModel model = trainer.train(solo);
        long correct = 0;
        for (const TrainSample &s : solo) {
            const auto probs = model.probabilities(s.x);
            int best = 0;
            for (int cls = 1; cls < kNumDomEventTypes; ++cls) {
                if (probs[static_cast<size_t>(cls)] >
                    probs[static_cast<size_t>(best)])
                    best = cls;
            }
            correct += best == static_cast<int>(s.label) ? 1 : 0;
        }
        table.beginRow()
            .cell(std::string(category[f]))
            .cell(std::string(featureName(f)))
            .cell(stats.mean(), 3)
            .cell(stats.stddev(), 3)
            .cell(stats.min(), 3)
            .cell(stats.max(), 3)
            .cell(100.0 * correct / static_cast<double>(solo.size()), 1);
    }

    emitTable(table, "tab01_features.csv");
    std::cout << "Dataset: " << samples.size()
              << " (feature, next-event) samples over the 12 seen apps; "
                 "the full 5-feature model is evaluated in "
                 "fig08_prediction_accuracy.\n";
    return 0;
}
