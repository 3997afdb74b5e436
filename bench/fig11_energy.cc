/**
 * @file
 * Reproduces paper Fig. 11: per-application energy consumption of
 * Interactive / EBS / PES / Oracle, normalized to Interactive, for the
 * 12 seen and 6 unseen applications (three fresh evaluation traces per
 * app, as in Sec. 6.1).
 */

#include "bench/bench_common.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 11 - Normalized energy consumption",
                "PES paper Fig. 11 (Sec. 6.4). Lower is better; "
                "Interactive = 100%.");

    DeviceContext device;

    const std::vector<SchedulerKind> kinds{
        SchedulerKind::Interactive, SchedulerKind::Ebs,
        SchedulerKind::Pes, SchedulerKind::Oracle};

    Table table({"app", "set", "Interactive", "EBS", "PES", "Oracle"});
    for (const bool seen : {true, false}) {
        const auto profiles = seen ? seenApps() : unseenApps();
        // Fleet-backed sweep; normalization needs the raw per-trace
        // energies, so use the outcome's ResultSet.
        const ResultSet rs =
            runComplete(evaluationFleet(device, profiles, kinds)).results;
        for (const AppProfile &p : profiles) {
            table.beginRow()
                .cell(p.name)
                .cell(std::string(seen ? "seen" : "unseen"))
                .cell(100.0, 1)
                .cell(rs.normalizedEnergy(p.name, "EBS", "Interactive") *
                          100.0, 1)
                .cell(rs.normalizedEnergy(p.name, "PES", "Interactive") *
                          100.0, 1)
                .cell(rs.normalizedEnergy(p.name, "Oracle",
                                          "Interactive") * 100.0, 1);
        }
        const auto apps = namesOf(profiles);
        table.beginRow()
            .cell(std::string(seen ? "avg.seen" : "avg.unseen"))
            .cell(std::string(seen ? "seen" : "unseen"))
            .cell(100.0, 1)
            .cell(rs.meanNormalizedEnergy(apps, "EBS", "Interactive") *
                      100.0, 1)
            .cell(rs.meanNormalizedEnergy(apps, "PES", "Interactive") *
                      100.0, 1)
            .cell(rs.meanNormalizedEnergy(apps, "Oracle", "Interactive") *
                      100.0, 1);
    }

    emitTable(table, "fig11_energy.csv");
    std::cout <<
        "Paper reference points (seen apps): EBS ~90%, PES ~72%, "
        "Oracle below PES.\n"
        "Expected shape: Interactive > EBS > PES > Oracle on average.\n";
    return 0;
}
