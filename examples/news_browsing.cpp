/**
 * @file
 * News-browsing scenario (the paper's motivating workload, Sec. 4.2).
 *
 * Replays a cnn session under PES and narrates the proactive machinery
 * event by event: what the predictor anticipated, which events were
 * served from pre-computed speculative frames, where the control unit
 * squashed, and what each event cost. Ends with the Pending Frame
 * Buffer occupancy timeline (paper Fig. 9's view of the same data).
 *
 * Run: ./build/examples/news_browsing [user-seed]
 */

#include <cstdlib>
#include <iostream>

#include "core/device_context.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pes;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const uint64_t seed = argc > 1
        ? std::strtoull(argv[1], nullptr, 10) : 9001ull;

    DeviceContext device;
    device.model();
    const AppProfile &profile = appByName("cnn");
    const InteractionTrace trace =
        device.generator().generate(profile, seed);

    std::cout << "cnn session of user " << seed << ": " << trace.size()
              << " events, "
              << formatDouble(trace.duration() / 1000.0, 1) << " s.\n\n";

    const auto pes = device.makeDriver(SchedulerKind::Pes);
    const SimResult r = device.replay(profile, trace, *pes);

    Table table({"#", "t_s", "event", "served", "config", "latency_ms",
                 "qos_ms", "ok", "busy_mJ"});
    for (size_t i = 0; i < r.events.size(); ++i) {
        const EventRecord &e = r.events[i];
        const AcmpConfig cfg = device.platform().configAt(e.configIndex);
        table.beginRow()
            .cell(static_cast<long>(i))
            .cell(e.arrival / 1000.0, 1)
            .cell(std::string(domEventTypeName(e.type)))
            .cell(std::string(e.servedSpeculatively ? "speculative"
                                                    : "reactive"))
            .cell(std::string(coreTypeName(cfg.core)) + "@" +
                  formatDouble(cfg.freq, 0))
            .cell(e.latency(), 1)
            .cell(e.qosTarget, 0)
            .cell(std::string(e.violated() ? "MISS" : "meet"))
            .cell(e.busyEnergy, 1);
    }
    table.print(std::cout);

    int speculative = 0;
    for (const EventRecord &e : r.events)
        speculative += e.servedSpeculatively ? 1 : 0;
    std::cout << "\nSummary: " << speculative << "/" << r.events.size()
              << " events served from speculative frames; prediction "
              << "accuracy "
              << formatPercent(r.predictionAccuracy()) << " ("
              << r.mispredictions << " squashes, "
              << formatDouble(r.mispredictWasteMs, 1)
              << " ms of discarded frame work).\n"
              << "Energy: " << formatDouble(r.totalEnergy, 1)
              << " mJ total = " << formatDouble(r.busyEnergy, 1)
              << " busy + " << formatDouble(r.idleEnergy, 1)
              << " idle + " << formatDouble(r.overheadEnergy, 1)
              << " overhead + " << formatDouble(r.wasteEnergy, 1)
              << " speculative waste.\n";

    std::cout << "\nPending Frame Buffer timeline (paper Fig. 9):\n";
    std::cout << "  time_s  size  note\n";
    for (const PfbSample &s : r.pfbTrace) {
        std::cout << "  " << formatDouble(s.time / 1000.0, 2) << "\t"
                  << s.pfbSize << "   "
                  << std::string(static_cast<size_t>(s.pfbSize), '#')
                  << (s.afterSquash ? "  <- squash" : "") << "\n";
    }
    return 0;
}
