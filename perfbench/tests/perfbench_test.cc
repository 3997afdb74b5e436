/**
 * @file
 * Tests of the benchmark's own code: the driver timing wrapper changes
 * no simulated outcome, the tail statistic picks the right order
 * statistic, and span self times subtract exactly the children.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bench_stats.hh"
#include "core/predictor_training.hh"
#include "hw/power_model.hh"
#include "results/result_format.hh"
#include "sim/runtime_simulator.hh"
#include "spans.hh"
#include "timed_driver.hh"
#include "trace/app_profile.hh"
#include "trace/generator.hh"
#include "traced_run.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

TEST(TimedDriver, ReplayIsBitIdenticalForEveryScheduler)
{
    const pes::AcmpPlatform platform = pes::AcmpPlatform::exynos5410();
    const pes::PowerModel power(platform);
    pes::TraceGenerator generator(platform);
    const pes::LogisticModel model =
        pes::trainEventModel(generator, pes::seenApps(), 2);
    const pes::AppProfile &profile = pes::appByName("cnn");
    const pes::WebApp &app = generator.appFor(profile);

    for (const pes::SchedulerKind kind :
         {pes::SchedulerKind::Interactive, pes::SchedulerKind::Ondemand,
          pes::SchedulerKind::Ebs, pes::SchedulerKind::Pes,
          pes::SchedulerKind::Oracle}) {
        SCOPED_TRACE(pes::schedulerKindName(kind));
        for (const uint64_t user_seed : {11u, 12u}) {
            const pes::InteractionTrace trace =
                generator.generate(profile, user_seed);
            const pes::SimConfig config = fleetSimConfig(profile, user_seed);

            pes::RuntimeSimulator bare_engine(platform, power, app, config);
            const std::unique_ptr<pes::SchedulerDriver> bare =
                makeDriver(kind, &model);
            const pes::SessionStats expected =
                bare_engine.runStats(trace, *bare);

            pes::RuntimeSimulator wrapped_engine(platform, power, app,
                                                 config);
            const std::unique_ptr<pes::SchedulerDriver> inner =
                makeDriver(kind, &model);
            DriverTimes times;
            SpanRecorder spans;
            TimedDriver timed(*inner, times, &spans, user_seed);
            const pes::SessionStats got =
                wrapped_engine.runStats(trace, timed);

            EXPECT_TRUE(pes::sessionStatsEqual(expected, got));
            EXPECT_GT(expected.events, 0);
            EXPECT_GT(times.calls, 0u);
            EXPECT_GT(times.planUs.count(), 0u);
            EXPECT_GT(spans.spans().size(), 0u);
            EXPECT_LE(spans.spans().size(), times.calls);
            for (const Span &s : spans.spans())
                EXPECT_EQ(s.session, user_seed);
        }
    }
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    // Descending, so the helper has to sort.
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond)
{
    const TailStat t100 = tail(oneTo(100));
    EXPECT_TRUE(t100.qualified);
    EXPECT_EQ(t100.n, 100u);
    EXPECT_DOUBLE_EQ(t100.value, 90.0);  // 91..100 lie beyond it
    EXPECT_DOUBLE_EQ(t100.percentile, 90.0);

    const TailStat t1000 = tail(oneTo(1000));
    EXPECT_DOUBLE_EQ(t1000.value, 990.0);
    EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
    EXPECT_EQ(t1000.n, 1000u);

    const TailStat t11 = tail(oneTo(11));
    EXPECT_TRUE(t11.qualified);
    EXPECT_DOUBLE_EQ(t11.value, 1.0);  // the only sample with 10 above it
    EXPECT_NEAR(t11.percentile, 100.0 / 11.0, 1e-12);
}

TEST(Tail, SketchTailMatchesTheSampleTail)
{
    pes::PercentileSketch sketch;
    for (const double v : oneTo(1000))
        sketch.add(v);
    const TailStat t = tail(sketch);
    EXPECT_TRUE(t.qualified);
    EXPECT_EQ(t.n, 1000u);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_NEAR(t.value, 990.0, 990.0 * 0.01);  // sketch accuracy
    EXPECT_NEAR(median(sketch), 500.5, 500.5 * 0.01);
}

TEST(Tail, TooFewSamplesFallBackToTheMedian)
{
    const TailStat t10 = tail(oneTo(10));
    EXPECT_FALSE(t10.qualified);
    EXPECT_EQ(t10.n, 10u);
    EXPECT_DOUBLE_EQ(t10.value, 5.5);

    const TailStat empty = tail(std::vector<double>{});
    EXPECT_EQ(empty.n, 0u);
    EXPECT_DOUBLE_EQ(empty.value, 0.0);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
}

TEST(Decile, LeavesATenthOfTheSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(upperDecile(std::vector<double>{}), 0.0);
    EXPECT_DOUBLE_EQ(lowerDecile(std::vector<double>{}), 0.0);
    EXPECT_DOUBLE_EQ(upperDecile({2.0, 9.0, 4.0}), 9.0);
    EXPECT_DOUBLE_EQ(lowerDecile({2.0, 9.0, 4.0}), 2.0);
    std::vector<double> samples;
    for (int i = 25; i >= 1; --i)
        samples.push_back(i);
    // 25 samples: two lie beyond the answer.
    EXPECT_DOUBLE_EQ(upperDecile(samples), 23.0);
    EXPECT_DOUBLE_EQ(lowerDecile(samples), 3.0);
}

Span
span(const char *name, int64_t start, int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    // root [0,100]
    //   a [10,30]      b [20,50] overlaps a     c [90,120] runs past root
    //     g [15,25]
    const std::vector<Span> tree = {
        span("root", 0, 100, kNoParent),
        span("a", 10, 30, 0),
        span("b", 20, 50, 0),
        span("c", 90, 120, 0),
        span("g", 15, 25, 1),
    };
    const std::vector<int64_t> self = selfTimesNs(tree);
    ASSERT_EQ(self.size(), tree.size());
    EXPECT_EQ(self[0], 100 - 40 - 10);  // children cover [10,50] + [90,100]
    EXPECT_EQ(self[1], 20 - 10);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 10);

    const auto layers = layerTimes(tree);
    EXPECT_DOUBLE_EQ(layers.at("root").selfMs, 50.0 / 1e6);
    EXPECT_DOUBLE_EQ(layers.at("root").totalMs, 100.0 / 1e6);
    EXPECT_EQ(layers.at("a").spans, 1u);
}

TEST(Spans, RecorderNestsUnderTheInnermostOpenSpan)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer", 7);
        { ScopedSpan inner(&rec, "inner", 7); }
        { ScopedSpan next(&rec, "next", 8); }
    }
    { ScopedSpan root(&rec, "root", 9); }
    const std::vector<Span> &s = rec.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].parent, kNoParent);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[3].parent, kNoParent);
    EXPECT_EQ(s[2].session, 8u);
    for (const Span &x : s)
        EXPECT_LE(x.startNs, x.endNs);
    EXPECT_LE(s[0].startNs, s[1].startNs);
    EXPECT_GE(s[0].endNs, s[2].endNs);
}

} // namespace
} // namespace perfbench
