/**
 * @file
 * Reproduces the Sec. 6.5 "Other Devices" study: the same experiment on
 * the NVIDIA Parker (Jetson TX2) platform model. The paper reports
 * ~24.6% energy savings for PES over Interactive on the TX2, showing
 * the mechanism is not tied to the 2013-era Exynos 5410.
 */

#include "bench/bench_common.hh"

using namespace pes;

namespace {

void
runOn(const char *label, AcmpPlatform platform, Table &table)
{
    DeviceContext device(std::move(platform));
    const std::vector<SchedulerKind> kinds{
        SchedulerKind::Interactive, SchedulerKind::Ebs,
        SchedulerKind::Pes, SchedulerKind::Oracle};
    const auto profiles = seenApps();
    const ResultSet rs =
        runComplete(evaluationFleet(device, profiles, kinds)).results;
    const auto apps = namesOf(profiles);
    table.beginRow()
        .cell(std::string(label))
        .cell(100.0, 1)
        .cell(rs.meanNormalizedEnergy(apps, "EBS", "Interactive") *
                  100.0, 1)
        .cell(rs.meanNormalizedEnergy(apps, "PES", "Interactive") *
                  100.0, 1)
        .cell(rs.meanNormalizedEnergy(apps, "Oracle", "Interactive") *
                  100.0, 1)
        .cell(rs.summarizeScheduler("PES").violationRate * 100.0, 1);
}

} // namespace

int
main()
{
    setQuiet(true);
    benchHeader("Sec. 6.5 - Other devices (NVIDIA Parker / TX2)",
                "PES paper Sec. 6.5: portability across SoC "
                "generations.");

    Table table({"platform", "Interactive", "EBS", "PES", "Oracle",
                 "PES_viol_pct"});
    runOn("Exynos 5410 (2013)", AcmpPlatform::exynos5410(), table);
    runOn("Parker / TX2 (2017)", AcmpPlatform::tegraParker(), table);

    emitTable(table, "sec65_other_devices.csv");
    std::cout << "Paper reference: ~24.6% PES energy saving vs "
                 "Interactive on the TX2.\n";
    return 0;
}
