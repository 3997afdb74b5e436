/**
 * @file
 * Reproduces paper Fig. 8: event-predictor accuracy per application.
 * The model is trained on training traces from the 12 seen apps; all
 * evaluation traces come from fresh users (Sec. 6.1/6.2). The paper
 * reports 91.3% (sigma 4.1%) on seen and 89.2% (sigma 4.7%) on unseen
 * applications, ranging from ~82% (google) to ~97% (slashdot).
 */

#include "bench/bench_common.hh"
#include "core/predictor_training.hh"
#include "util/stats.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 8 - Event predictor accuracy",
                "PES paper Fig. 8 (Sec. 6.2).");

    DeviceContext device;
    const LogisticModel &model = device.model();

    Table table({"app", "set", "accuracy_pct", "events"});
    RunningStats seen_acc, unseen_acc;
    for (const AppProfile &p : appRegistry()) {
        const WebApp &app = device.generator().appFor(p);
        double correct_weighted = 0.0;
        long total = 0;
        for (const auto &trace : device.generator().evaluationSet(
                 p, TraceGenerator::kEvalTracesPerApp)) {
            const PredictorEval eval = evaluatePredictor(model, app,
                                                         trace);
            correct_weighted +=
                eval.accuracy() * eval.confusion.total();
            total += eval.confusion.total();
        }
        const double accuracy =
            total ? correct_weighted / static_cast<double>(total) : 0.0;
        (p.seen ? seen_acc : unseen_acc).add(accuracy);
        table.beginRow()
            .cell(p.name)
            .cell(std::string(p.seen ? "seen" : "unseen"))
            .cell(accuracy * 100.0, 1)
            .cell(total);
    }
    table.beginRow().cell(std::string("avg.seen")).cell(std::string("-"))
        .cell(seen_acc.mean() * 100.0, 1).cell(0L);
    table.beginRow().cell(std::string("avg.unseen"))
        .cell(std::string("-")).cell(unseen_acc.mean() * 100.0, 1)
        .cell(0L);

    emitTable(table, "fig08_prediction_accuracy.csv");
    std::cout << "Measured: seen " << formatPercent(seen_acc.mean())
              << " (sigma " << formatPercent(seen_acc.stddev())
              << "), unseen " << formatPercent(unseen_acc.mean())
              << " (sigma " << formatPercent(unseen_acc.stddev())
              << ").\n"
              << "Paper:    seen 91.3% (sigma 4.1%), unseen 89.2% "
                 "(sigma 4.7%).\n";
    return 0;
}
