/**
 * @file
 * Reproduces the Sec. 6.3 runtime-overhead analysis with
 * google-benchmark: the latency of one predictor evaluation (paper:
 * ~2 us for the five-variable logistic model), one constrained
 * optimization (paper: ~10 ms class, amortized across a prediction
 * round), the underlying solver primitives, and the modeled DVFS /
 * migration costs (100 us / 20 us, constants of the platform model).
 */

#include <benchmark/benchmark.h>

#include "core/device_context.hh"
#include "core/ebs_policy.hh"
#include "core/optimizer.hh"
#include "core/predictor.hh"
#include "core/predictor_training.hh"
#include "solver/lp.hh"
#include "util/logging.hh"
#include "web/dom_analyzer.hh"

namespace pes {
namespace {

DeviceContext &
trainedDevice()
{
    static DeviceContext device;
    setQuiet(true);
    device.model();  // trains on the first call only
    return device;
}

/** Paper: "evaluating a simple five-variable logistic model ~2 us". */
void
BM_PredictorSingleStep(benchmark::State &state)
{
    DeviceContext &device = trainedDevice();
    const AppProfile &profile = appByName("cnn");
    const WebApp &app = device.generator().appFor(profile);
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;
    window.observe(DomEventType::Click, 100, 100);
    EventPredictor predictor(device.model());
    const DomOverlay snapshot = session.snapshotState();

    for (auto _ : state) {
        auto p = predictor.predictNext(analyzer, snapshot, window);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_PredictorSingleStep);

/** A full prediction round (degree ~5 with rollouts). */
void
BM_PredictorSequence(benchmark::State &state)
{
    DeviceContext &device = trainedDevice();
    const AppProfile &profile = appByName("cnn");
    const WebApp &app = device.generator().appFor(profile);
    WebAppSession session(app);
    DomAnalyzer analyzer(session);
    FeatureWindow window;
    window.observe(DomEventType::Click, 100, 100);
    EventPredictor predictor(device.model());

    for (auto _ : state) {
        auto seq = predictor.predictSequence(
            analyzer, session.snapshotState(), window);
        benchmark::DoNotOptimize(seq);
    }
}
BENCHMARK(BM_PredictorSequence);

/** Paper: "solving the constrained optimization problem ~10 ms". */
void
BM_GlobalOptimizer(benchmark::State &state)
{
    DeviceContext &device = trainedDevice();
    const DvfsLatencyModel model(device.platform());
    const VsyncClock vsync;
    GlobalOptimizer optimizer(model, device.power(), vsync);
    std::vector<PlanEventSpec> specs(
        static_cast<size_t>(state.range(0)));
    for (size_t i = 0; i < specs.size(); ++i) {
        specs[i].work = {5.0, 60.0 + 30.0 * static_cast<double>(i)};
        specs[i].qosTarget = i % 3 == 0 ? 33.0 : 300.0;
    }
    for (auto _ : state) {
        auto sol = optimizer.planSchedule(
            0.0, device.platform().minConfig(), specs);
        benchmark::DoNotOptimize(sol);
    }
}
BENCHMARK(BM_GlobalOptimizer)->Arg(3)->Arg(6)->Arg(10);

/** The generic branch-and-bound path on the same formulation. */
void
BM_GenericIlp(benchmark::State &state)
{
    ScheduleProblem problem;
    for (int i = 0; i < 4; ++i) {
        ScheduleEvent ev;
        for (int j = 0; j < 6; ++j) {
            ev.latency.push_back(5.0 + 3.0 * j);
            ev.energy.push_back(40.0 - 5.0 * j);
        }
        ev.deadline = 40.0 * (i + 1);
        problem.events.push_back(ev);
    }
    for (auto _ : state) {
        IntegerProgram ilp = problem.toIlp();
        auto sol = ilp.solve();
        benchmark::DoNotOptimize(sol);
    }
}
BENCHMARK(BM_GenericIlp);

/** Dense two-phase simplex on a small LP. */
void
BM_Simplex(benchmark::State &state)
{
    for (auto _ : state) {
        LinearProgram lp(2);
        lp.setObjective({3.0, 5.0});
        lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 4.0);
        lp.addConstraint({0.0, 2.0}, Relation::LessEqual, 12.0);
        lp.addConstraint({3.0, 2.0}, Relation::LessEqual, 18.0);
        auto result = lp.solve();
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_Simplex);

/** One EBS per-event configuration choice (estimate + argmin sweep). */
void
BM_EbsChoice(benchmark::State &state)
{
    DeviceContext &device = trainedDevice();
    EbsPolicy policy(device.platform(), device.power());
    const DvfsLatencyModel model(device.platform());
    const Workload truth{5.0, 120.0};
    policy.recordMeasurement(1, DomEventType::Click,
                             device.platform().maxConfig(),
                             model.latency(truth,
                                           device.platform().maxConfig()));
    policy.recordMeasurement(
        1, DomEventType::Click, {CoreType::Big, 1000.0},
        model.latency(truth, {CoreType::Big, 1000.0}));
    for (auto _ : state) {
        auto cfg = policy.chooseConfig(1, DomEventType::Click, 300.0);
        benchmark::DoNotOptimize(cfg);
    }
}
BENCHMARK(BM_EbsChoice);

/** Full end-to-end replay of one trace under PES (context). */
void
BM_FullPesReplay(benchmark::State &state)
{
    DeviceContext &device = trainedDevice();
    const AppProfile &profile = appByName("cnn");
    const auto trace =
        device.generator().evaluationSet(profile, 1).front();
    for (auto _ : state) {
        const auto driver = device.makeDriver(SchedulerKind::Pes);
        auto r = device.replay(profile, trace, *driver);
        benchmark::DoNotOptimize(r.totalEnergy);
    }
}
BENCHMARK(BM_FullPesReplay)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace pes

BENCHMARK_MAIN();
