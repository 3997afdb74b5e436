/**
 * @file
 * Unit tests for the hardware substrate: ACMP platform, power model,
 * Eqn.-1 latency model, two-point estimator, and energy meter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "hw/acmp.hh"
#include "hw/dvfs_model.hh"
#include "hw/energy_meter.hh"
#include "hw/estimator.hh"
#include "hw/power_model.hh"
#include "util/rng.hh"

namespace pes {
namespace {

// ---------------------------------------------------------------- ACMP

TEST(Acmp, Exynos5410FrequencyLadders)
{
    const AcmpPlatform soc = AcmpPlatform::exynos5410();
    // Paper Sec. 3: A15 800..1800 @100 (11 points); A7 350..600 @50 (6).
    const auto big = soc.cluster(CoreType::Big).frequencies();
    const auto little = soc.cluster(CoreType::Little).frequencies();
    ASSERT_EQ(big.size(), 11u);
    ASSERT_EQ(little.size(), 6u);
    EXPECT_DOUBLE_EQ(big.front(), 800.0);
    EXPECT_DOUBLE_EQ(big.back(), 1800.0);
    EXPECT_DOUBLE_EQ(little.front(), 350.0);
    EXPECT_DOUBLE_EQ(little.back(), 600.0);
    EXPECT_EQ(soc.numConfigs(), 17);
}

TEST(Acmp, ConfigIndexRoundTrip)
{
    const AcmpPlatform soc = AcmpPlatform::exynos5410();
    for (int i = 0; i < soc.numConfigs(); ++i)
        EXPECT_EQ(soc.configIndex(soc.configAt(i)), i);
}

TEST(Acmp, MinMaxConfigs)
{
    const AcmpPlatform soc = AcmpPlatform::exynos5410();
    EXPECT_EQ(soc.maxConfig().core, CoreType::Big);
    EXPECT_DOUBLE_EQ(soc.maxConfig().freq, 1800.0);
    EXPECT_EQ(soc.minConfig().core, CoreType::Little);
    EXPECT_DOUBLE_EQ(soc.minConfig().freq, 350.0);
}

TEST(Acmp, SwitchCosts)
{
    const AcmpPlatform soc = AcmpPlatform::exynos5410();
    const AcmpConfig big_hi = soc.maxConfig();
    const AcmpConfig big_lo{CoreType::Big, 800.0};
    const AcmpConfig little{CoreType::Little, 600.0};

    EXPECT_DOUBLE_EQ(soc.switchCost(big_hi, big_hi), 0.0);
    // DVFS only: ~100 us.
    EXPECT_DOUBLE_EQ(soc.switchCost(big_hi, big_lo), 0.1);
    // Migration + DVFS: ~120 us.
    EXPECT_DOUBLE_EQ(soc.switchCost(big_hi, little), 0.12);
}

TEST(Acmp, VoltageCurveMonotone)
{
    const AcmpPlatform soc = AcmpPlatform::exynos5410();
    const ClusterSpec &big = soc.cluster(CoreType::Big);
    double last = 0.0;
    for (FreqMhz f : big.frequencies()) {
        const double v = big.voltageAt(f);
        EXPECT_GE(v, last);
        last = v;
    }
    EXPECT_DOUBLE_EQ(big.voltageAt(big.fmin), big.vmin);
    EXPECT_DOUBLE_EQ(big.voltageAt(big.fmax), big.vmax);
}

TEST(Acmp, TegraParkerWellFormed)
{
    const AcmpPlatform soc = AcmpPlatform::tegraParker();
    EXPECT_GT(soc.numConfigs(), 8);
    EXPECT_GT(soc.cluster(CoreType::Big).fmax,
              soc.cluster(CoreType::Little).fmax);
}

// ---------------------------------------------------------------- Power

class PowerModelTest : public ::testing::Test
{
  protected:
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    PowerModel power{soc};
};

TEST_F(PowerModelTest, BusyPowerMonotoneInFrequency)
{
    for (CoreType core : {CoreType::Little, CoreType::Big}) {
        double last = 0.0;
        for (FreqMhz f : soc.cluster(core).frequencies()) {
            const double p = power.busyPower({core, f});
            EXPECT_GT(p, last);
            last = p;
        }
    }
}

TEST_F(PowerModelTest, BigDominatesLittle)
{
    const double big_min = power.busyPower({CoreType::Big, 800.0});
    const double little_max = power.busyPower({CoreType::Little, 600.0});
    EXPECT_GT(big_min, little_max);
}

TEST_F(PowerModelTest, RealisticMagnitudes)
{
    // Published Exynos-5410-class figures: little cluster tens to a
    // couple hundred mW, big cluster hundreds to a few thousand mW.
    EXPECT_GT(power.busyPower(soc.minConfig()), 30.0);
    EXPECT_LT(power.busyPower(soc.minConfig()), 250.0);
    EXPECT_GT(power.busyPower(soc.maxConfig()), 1000.0);
    EXPECT_LT(power.busyPower(soc.maxConfig()), 4000.0);
}

TEST_F(PowerModelTest, IdleFarBelowBusy)
{
    EXPECT_LT(power.idlePower(CoreType::Big),
              0.2 * power.busyPower({CoreType::Big, 800.0}));
    EXPECT_LT(power.idlePower(CoreType::Little),
              power.busyPower(soc.minConfig()));
    EXPECT_DOUBLE_EQ(power.platformIdlePower(),
                     power.idlePower(CoreType::Big) +
                         power.idlePower(CoreType::Little));
}

TEST_F(PowerModelTest, EnergySuperlinearInFrequency)
{
    // Same cycles at higher f cost more energy despite shorter time
    // (V^2 scaling): the DVFS slowdown must be a net energy win.
    const DvfsLatencyModel model(soc);
    const Workload work{0.0, 100.0};
    const EnergyMj e_max = power.busyEnergy(
        soc.maxConfig(), model.latency(work, soc.maxConfig()));
    const AcmpConfig big_lo{CoreType::Big, 800.0};
    const EnergyMj e_lo =
        power.busyEnergy(big_lo, model.latency(work, big_lo));
    EXPECT_GT(e_max, e_lo);
}

TEST_F(PowerModelTest, SaveLoadRoundTrip)
{
    const std::string path = "/tmp/pes_power_lut_test.txt";
    ASSERT_TRUE(power.saveToFile(path));
    const auto loaded = PowerModel::loadFromFile(path, soc);
    ASSERT_TRUE(loaded.has_value());
    for (int i = 0; i < soc.numConfigs(); ++i)
        EXPECT_NEAR(loaded->busyPowerAt(i), power.busyPowerAt(i), 1e-9);
    EXPECT_NEAR(loaded->platformIdlePower(), power.platformIdlePower(),
                1e-9);
    std::filesystem::remove(path);
}

TEST_F(PowerModelTest, LoadRejectsMissingFile)
{
    EXPECT_FALSE(PowerModel::loadFromFile("/nonexistent/lut.txt", soc)
                     .has_value());
}

TEST_F(PowerModelTest, LoadRejectsWrongPlatform)
{
    const std::string path = "/tmp/pes_power_lut_test2.txt";
    ASSERT_TRUE(power.saveToFile(path));
    const AcmpPlatform other = AcmpPlatform::tegraParker();
    EXPECT_FALSE(PowerModel::loadFromFile(path, other).has_value());
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------- DVFS

class DvfsModelTest : public ::testing::Test
{
  protected:
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    DvfsLatencyModel model{soc};
};

TEST_F(DvfsModelTest, Eqn1OnBigCore)
{
    // T = Tmem + Ndep / f: 900 Mcycles at 1800 MHz = 500 ms.
    const Workload work{100.0, 900.0};
    EXPECT_NEAR(model.latency(work, soc.maxConfig()), 600.0, 1e-9);
}

TEST_F(DvfsModelTest, LittleCoreAppliesCpiFactor)
{
    const Workload work{0.0, 60.0};
    const double cpi = soc.cluster(CoreType::Little).cpiFactor;
    EXPECT_NEAR(model.latency(work, {CoreType::Little, 600.0}),
                1000.0 * 60.0 * cpi / 600.0, 1e-9);
}

TEST_F(DvfsModelTest, LatencyMonotoneAcrossConfigs)
{
    const Workload work{5.0, 200.0};
    // Within a cluster, higher frequency is never slower.
    for (CoreType core : {CoreType::Little, CoreType::Big}) {
        double last = 1e18;
        for (FreqMhz f : soc.cluster(core).frequencies()) {
            const double t = model.latency(work, {core, f});
            EXPECT_LT(t, last);
            last = t;
        }
    }
}

TEST_F(DvfsModelTest, MemoryTimeIsFrequencyInvariant)
{
    const Workload work{42.0, 0.0};
    for (int i = 0; i < soc.numConfigs(); ++i)
        EXPECT_NEAR(model.latencyAt(work, i), 42.0, 1e-12);
}

/** Two-point recovery must be exact for any pair of distinct configs. */
class TwoPointRecovery
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    DvfsLatencyModel model{soc};
};

TEST_P(TwoPointRecovery, RecoversWorkloadExactly)
{
    const auto [i, j] = GetParam();
    const AcmpConfig a = soc.configAt(i);
    const AcmpConfig b = soc.configAt(j);
    if (std::abs(model.cycleCoeff(a) - model.cycleCoeff(b)) < 1e-12)
        GTEST_SKIP() << "identical cycle coefficients";

    const Workload truth{7.5, 123.0};
    const Workload fit = model.solveTwoPoint(
        a, model.latency(truth, a), b, model.latency(truth, b));
    EXPECT_NEAR(fit.tmemMs, truth.tmemMs, 1e-6);
    EXPECT_NEAR(fit.ndep, truth.ndep, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigPairs, TwoPointRecovery,
    ::testing::Values(std::make_tuple(0, 5), std::make_tuple(0, 16),
                      std::make_tuple(6, 16), std::make_tuple(6, 11),
                      std::make_tuple(2, 9), std::make_tuple(5, 6),
                      std::make_tuple(10, 16), std::make_tuple(1, 3)));

// ------------------------------------------------------------ Estimator

class EstimatorTest : public ::testing::Test
{
  protected:
    AcmpPlatform soc = AcmpPlatform::exynos5410();
    DvfsLatencyModel model{soc};
    TwoPointEstimator estimator{model};
};

TEST_F(EstimatorTest, NoEstimateBeforeTwoMeasurements)
{
    EXPECT_FALSE(estimator.hasEstimate(1));
    estimator.record(1, soc.maxConfig(), 100.0);
    EXPECT_FALSE(estimator.hasEstimate(1));
    EXPECT_EQ(estimator.measurementCount(1), 1);
}

TEST_F(EstimatorTest, ExactAfterTwoCleanMeasurements)
{
    const Workload truth{12.0, 300.0};
    const AcmpConfig a = soc.maxConfig();
    const AcmpConfig b{CoreType::Big, 1000.0};
    estimator.record(7, a, model.latency(truth, a));
    estimator.record(7, b, model.latency(truth, b));
    ASSERT_TRUE(estimator.hasEstimate(7));
    EXPECT_NEAR(estimator.estimate(7)->tmemMs, truth.tmemMs, 1e-6);
    EXPECT_NEAR(estimator.estimate(7)->ndep, truth.ndep, 1e-6);
}

TEST_F(EstimatorTest, LeastSquaresConvergesUnderNoise)
{
    const Workload truth{10.0, 200.0};
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
        const AcmpConfig cfg =
            soc.configAt(rng.uniformInt(0, soc.numConfigs() - 1));
        const double noisy =
            model.latency(truth, cfg) * rng.lognormal(1.0, 0.05);
        estimator.record(9, cfg, noisy);
    }
    ASSERT_TRUE(estimator.hasEstimate(9));
    EXPECT_NEAR(estimator.estimate(9)->ndep, truth.ndep,
                truth.ndep * 0.15);
}

TEST_F(EstimatorTest, SameCoefficientMeasurementsNotIdentifiable)
{
    estimator.record(3, soc.maxConfig(), 100.0);
    estimator.record(3, soc.maxConfig(), 105.0);
    EXPECT_FALSE(estimator.hasEstimate(3));
}

TEST_F(EstimatorTest, ProbeProtocol)
{
    // First encounter probes at the deadline-safe maximum.
    EXPECT_EQ(estimator.probeConfig(4), soc.maxConfig());
    estimator.record(4, soc.maxConfig(), 50.0);
    // Second probe differs so Eqn. 1 is identifiable.
    const AcmpConfig second = estimator.probeConfig(4);
    EXPECT_NE(model.cycleCoeff(second),
              model.cycleCoeff(soc.maxConfig()));
}

TEST_F(EstimatorTest, IgnoresNonPositiveLatencies)
{
    estimator.record(8, soc.maxConfig(), -5.0);
    estimator.record(8, soc.maxConfig(), 0.0);
    EXPECT_EQ(estimator.measurementCount(8), 0);
}

TEST_F(EstimatorTest, ClampsNegativeFitComponents)
{
    // Latencies that *decrease* with the cycle coefficient would imply
    // negative Ndep; the fit clamps to physical values.
    estimator.record(11, soc.maxConfig(), 200.0);
    estimator.record(11, {CoreType::Big, 900.0}, 100.0);
    ASSERT_TRUE(estimator.hasEstimate(11));
    EXPECT_GE(estimator.estimate(11)->tmemMs, 0.0);
    EXPECT_GE(estimator.estimate(11)->ndep, 0.0);
}

TEST_F(EstimatorTest, FirstMeasurementAccessor)
{
    EXPECT_FALSE(estimator.firstMeasurement(2).has_value());
    estimator.record(2, soc.maxConfig(), 80.0);
    const auto first = estimator.firstMeasurement(2);
    ASSERT_TRUE(first.has_value());
    EXPECT_NEAR(first->second, 80.0, 1e-12);
    EXPECT_NEAR(first->first, model.cycleCoeff(soc.maxConfig()), 1e-12);
}

// ------------------------------------------------------------ EnergyMeter

TEST(EnergyMeter, IntegratesSegments)
{
    EnergyMeter meter;
    meter.addSegment(0.0, 1000.0, 500.0, EnergyTag::Busy);   // 500 mJ
    meter.addSegment(1000.0, 3000.0, 100.0, EnergyTag::Idle); // 200 mJ
    EXPECT_NEAR(meter.totalEnergy(), 700.0, 1e-9);
    EXPECT_NEAR(meter.energyOfTag(EnergyTag::Busy), 500.0, 1e-9);
    EXPECT_NEAR(meter.energyOfTag(EnergyTag::Idle), 200.0, 1e-9);
    EXPECT_NEAR(meter.duration(), 3000.0, 1e-9);
}

TEST(EnergyMeter, RetagMovesEnergy)
{
    EnergyMeter meter;
    const uint64_t id =
        meter.addSegment(0.0, 100.0, 1000.0, EnergyTag::Busy);
    meter.retag(id, EnergyTag::SpeculativeWaste);
    EXPECT_NEAR(meter.energyOfTag(EnergyTag::Busy), 0.0, 1e-12);
    EXPECT_NEAR(meter.energyOfTag(EnergyTag::SpeculativeWaste), 100.0,
                1e-9);
    EXPECT_NEAR(meter.energyOfSegment(id), 100.0, 1e-9);
}

TEST(EnergyMeter, AveragePower)
{
    EnergyMeter meter;
    meter.addSegment(0.0, 500.0, 200.0, EnergyTag::Busy);
    meter.addSegment(500.0, 1000.0, 400.0, EnergyTag::Busy);
    EXPECT_NEAR(meter.averagePower(), 300.0, 1e-9);
}

TEST(EnergyMeter, SampleTraceMatchesWaveform)
{
    EnergyMeter meter;
    meter.addSegment(0.0, 10.0, 100.0, EnergyTag::Busy);
    meter.addSegment(10.0, 20.0, 300.0, EnergyTag::Busy);
    // 1 kHz sampling: one sample per ms.
    const auto trace = meter.sampleTrace(1000.0);
    ASSERT_GE(trace.size(), 20u);
    EXPECT_NEAR(trace[5], 100.0, 1e-9);
    EXPECT_NEAR(trace[15], 300.0, 1e-9);
}

TEST(EnergyMeter, OverlappingSegmentsSum)
{
    EnergyMeter meter;
    meter.addSegment(0.0, 10.0, 100.0, EnergyTag::Busy);
    meter.addSegment(0.0, 10.0, 50.0, EnergyTag::Idle);
    const auto trace = meter.sampleTrace(1000.0);
    EXPECT_NEAR(trace[5], 150.0, 1e-9);
}

TEST(EnergyMeter, ZeroLengthSegmentContributesNothing)
{
    EnergyMeter meter;
    meter.addSegment(5.0, 5.0, 1000.0, EnergyTag::Busy);
    EXPECT_NEAR(meter.totalEnergy(), 0.0, 1e-12);
}

TEST(EnergyMeter, TickRunReadsExactlyLikeOneSegmentPerTick)
{
    // An idle governor's skipped ticks are metered as one run; every
    // reading must be bit-identical to one addSegment() per tick. With
    // non-integer intervals the ticks differ in their last bits, so a
    // closed-form N * energy would not match.
    for (const TimeMs interval : {20.0, 1000.0 / 60.0, 33.3}) {
        SCOPED_TRACE(interval);
        const int64_t first = 7;
        const int64_t end = 419;
        const TimeMs run_start = static_cast<double>(first) * interval;
        const TimeMs run_end = static_cast<double>(end) * interval;
        EnergyMeter per_tick;
        EnergyMeter run;
        std::vector<uint64_t> tick_ids;
        uint64_t run_id = 0;
        for (EnergyMeter *m : {&per_tick, &run}) {
            m->addSegment(0.0, 100.0, 900.0, EnergyTag::Busy);
            m->addSegment(0.0, 100.0, 45.0, EnergyTag::Idle);
            m->addSegment(100.0, run_start, 150.0, EnergyTag::Idle);
            if (m == &run) {
                run_id = m->addTickRun(interval, first, end, 137.3,
                                       EnergyTag::Idle);
            } else {
                for (int64_t k = first; k < end; ++k) {
                    tick_ids.push_back(m->addSegment(
                        static_cast<double>(k) * interval,
                        static_cast<double>(k + 1) * interval, 137.3,
                        EnergyTag::Idle));
                }
            }
            m->addSegment(run_end, run_end + 3.7, 640.0,
                          EnergyTag::Overhead);
            m->addSegment(run_end, run_end + 3.7, 45.0, EnergyTag::Idle);
        }
        EXPECT_EQ(run.segmentCount() + tick_ids.size() - 1,
                  per_tick.segmentCount());

        const EnergyTotals a = per_tick.tagTotals();
        const EnergyTotals b = run.tagTotals();
        EXPECT_EQ(a.total, b.total);
        EXPECT_EQ(per_tick.totalEnergy(), run.totalEnergy());
        EXPECT_EQ(run.totalEnergy(), b.total);
        for (int t = 0; t < kNumEnergyTags; ++t) {
            const auto tag = static_cast<EnergyTag>(t);
            EXPECT_EQ(a.of(tag), b.of(tag)) << "tag " << t;
            EXPECT_EQ(per_tick.energyOfTag(tag), run.energyOfTag(tag));
        }
        EXPECT_EQ(per_tick.duration(), run.duration());
        EXPECT_EQ(per_tick.averagePower(), run.averagePower());
        EXPECT_EQ(per_tick.sampleTrace(1000.0), run.sampleTrace(1000.0));
        EXPECT_EQ(per_tick.sampleTrace(60.0), run.sampleTrace(60.0));

        EnergyMj tick_sum = 0.0;
        for (const uint64_t id : tick_ids)
            tick_sum += per_tick.energyOfSegment(id);
        EXPECT_EQ(tick_sum, run.energyOfSegment(run_id));
    }
}

} // namespace
} // namespace pes
