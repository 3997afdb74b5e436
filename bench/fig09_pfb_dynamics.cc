/**
 * @file
 * Reproduces paper Fig. 9: Pending Frame Buffer occupancy over an ebay
 * interaction (Sec. 6.2): frames committed one by one as real events
 * match, occasional squashes dropping the buffer to zero, and new
 * prediction rounds refilling it.
 */

#include "bench/bench_common.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 9 - Pending Frame Buffer dynamics (ebay)",
                "PES paper Fig. 9 (Sec. 6.2).");

    DeviceContext device;
    device.model();
    const AppProfile &profile = appByName("ebay");
    const auto driver = device.makeDriver(SchedulerKind::Pes);
    const auto traces = device.generator().evaluationSet(
        profile, TraceGenerator::kEvalTracesPerApp);

    Table table({"trace", "time_s", "event_idx", "pfb_size",
                 "after_squash"});
    int max_pfb = 0;
    int squashes = 0;
    int rounds = 0;
    for (size_t t = 0; t < traces.size(); ++t) {
        const SimResult r = device.replay(profile, traces[t], *driver);
        int last = 0;
        for (const PfbSample &s : r.pfbTrace) {
            table.beginRow()
                .cell(static_cast<long>(t))
                .cell(s.time / 1000.0, 2)
                .cell(static_cast<long>(s.eventIndex))
                .cell(static_cast<long>(s.pfbSize))
                .cell(std::string(s.afterSquash ? "squash" : ""));
            max_pfb = std::max(max_pfb, s.pfbSize);
            squashes += s.afterSquash ? 1 : 0;
            if (s.pfbSize > last && last == 0 && !s.afterSquash)
                ++rounds;
            last = s.pfbSize;
        }
    }

    emitTable(table, "fig09_pfb_dynamics.csv");
    std::cout << "Max PFB occupancy: " << max_pfb
              << " frames (paper plot peaks at ~9).\n"
              << "Squash events: " << squashes
              << "; new prediction rounds: " << rounds << ".\n";
    return 0;
}
