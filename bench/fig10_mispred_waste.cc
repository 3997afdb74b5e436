/**
 * @file
 * Reproduces paper Fig. 10: mispredict waste per application — the
 * execution time spent generating speculative frames that a squash
 * discarded, averaged per misprediction, plus the amortized per-event
 * waste and the energy overhead (Sec. 6.3).
 */

#include "bench/bench_common.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 10 - Mispredict waste",
                "PES paper Fig. 10 + Sec. 6.3 overhead analysis.");

    DeviceContext device;
    const ResultSet rs =
        runComplete(evaluationFleet(device, appRegistry(),
                                    {SchedulerKind::Pes}))
            .results;

    Table table({"app", "set", "waste_per_mispredict_ms",
                 "waste_per_event_ms", "waste_energy_per_mispredict_mJ",
                 "waste_energy_pct", "mispredicts"});
    double seen_ms = 0, unseen_ms = 0, seen_pct = 0, unseen_pct = 0;
    int seen_n = 0, unseen_n = 0;
    for (const AppProfile &p : appRegistry()) {
        const GroupSummary s = rs.summarize(p.name, "PES");

        int mispredicts = 0;
        double waste_mj = 0.0, total_mj = 0.0;
        for (const SimResult &r : rs.results()) {
            if (r.appName != p.name)
                continue;
            mispredicts += r.mispredictions;
            waste_mj += r.wasteEnergy - r.endOfRunWasteMj;
            total_mj += r.totalEnergy;
        }
        const double pct = total_mj > 0 ? waste_mj / total_mj : 0.0;
        table.beginRow()
            .cell(p.name)
            .cell(std::string(p.seen ? "seen" : "unseen"))
            .cell(s.wastePerMispredictMs, 1)
            .cell(s.wastePerEventMs, 2)
            .cell(s.wastePerMispredictMj, 1)
            .cell(pct * 100.0, 2)
            .cell(static_cast<long>(mispredicts));
        if (p.seen) {
            seen_ms += s.wastePerMispredictMs;
            seen_pct += pct;
            ++seen_n;
        } else {
            unseen_ms += s.wastePerMispredictMs;
            unseen_pct += pct;
            ++unseen_n;
        }
    }

    emitTable(table, "fig10_mispred_waste.csv");
    std::cout << "Measured: seen avg " << seen_ms / seen_n
              << " ms/mispredict (" << formatPercent(seen_pct / seen_n)
              << " of energy); unseen avg " << unseen_ms / unseen_n
              << " ms (" << formatPercent(unseen_pct / unseen_n)
              << ").\n"
              << "Paper:    ~20 ms per mispredict, ~2 ms amortized per "
                 "event, 1.8%/2.2% energy overhead.\n"
              << "Note: our speculative frames are often generated on "
                 "the little cluster, so per-mispredict waste times run "
                 "higher than the paper's while the energy share stays "
                 "small.\n";
    return 0;
}
