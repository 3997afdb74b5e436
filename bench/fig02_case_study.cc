/**
 * @file
 * Reproduces paper Fig. 2: a snapshot of an event sequence taken while
 * interacting with cnn.com. The snapshot is a burst around an inherently
 * heavy event (the paper's E2): under reactive schedulers the heavy
 * event misses its deadline (Type I) and drags its successors with it
 * (Type II) or forces them onto over-provisioned configurations
 * (Type III); the oracle coordinates across the burst and meets
 * everything; PES approximates the oracle through speculation.
 *
 * Like the paper, the snapshot comes from a real interaction session:
 * we replay cnn evaluation traces under all four schedulers and print
 * the window around the first heavy-tap burst.
 */

#include "bench/bench_common.hh"

using namespace pes;

namespace {

/** Find a burst window [i-1 .. i+2] around an inherently heavy tap. */
int
findBurst(const InteractionTrace &trace)
{
    for (size_t i = 1; i + 2 < trace.events.size(); ++i) {
        const TraceEvent &e = trace.events[i];
        if (interactionOf(e.type) != Interaction::Tap)
            continue;
        if (e.totalWork().ndep < 350.0)
            continue;
        // Followers arrive quickly (the interference the paper shows).
        if (trace.events[i + 1].arrival - e.arrival < 1500.0 &&
            trace.events[i + 2].arrival - e.arrival < 3000.0) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

} // namespace

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 2 - cnn.com interaction snapshot",
                "PES paper Fig. 2 (Sec. 4.2): a burst around an "
                "inherently heavy event under each scheduler.");

    DeviceContext device;
    device.model();
    const AppProfile &profile = appByName("cnn");

    // Scan fresh-user sessions for the paper's scenario.
    InteractionTrace snapshot_trace;
    int heavy_idx = -1;
    for (uint64_t seed = TraceGenerator::kEvaluationSeedBase;
         seed < TraceGenerator::kEvaluationSeedBase + 40; ++seed) {
        InteractionTrace candidate =
            device.generator().generate(profile, seed);
        const int idx = findBurst(candidate);
        if (idx >= 0) {
            snapshot_trace = std::move(candidate);
            heavy_idx = idx;
            break;
        }
    }
    fatal_if(heavy_idx < 0, "no heavy-tap burst found in 40 sessions");

    std::cout << "Session of user "
              << snapshot_trace.userSeed << ": "
              << snapshot_trace.size() << " events; snapshot window is "
              << "events " << heavy_idx - 1 << ".." << heavy_idx + 2
              << " (E2 = inherently heavy tap, "
              << formatDouble(
                     snapshot_trace.events[static_cast<size_t>(heavy_idx)]
                         .totalWork().ndep, 0)
              << " Mcycles).\n\n";

    Table table({"scheduler", "event", "type", "gap_ms", "config",
                 "latency_ms", "qos_ms", "verdict", "busy_mJ"});
    Table summary({"scheduler", "window_violations", "window_busy_mJ",
                   "trace_energy_mJ"});
    for (const SchedulerKind kind :
         {SchedulerKind::Interactive, SchedulerKind::Ebs,
          SchedulerKind::Pes, SchedulerKind::Oracle}) {
        const SimResult r = device.replay(profile, snapshot_trace,
                                          *device.makeDriver(kind));
        int violations = 0;
        double busy = 0.0;
        for (int k = -1; k <= 2; ++k) {
            const size_t i = static_cast<size_t>(heavy_idx + k);
            const EventRecord &e = r.events[i];
            const TraceEvent &ev = snapshot_trace.events[i];
            const AcmpConfig cfg =
                device.platform().configAt(e.configIndex);
            const double gap = i > 0
                ? ev.arrival - snapshot_trace.events[i - 1].arrival
                : 0.0;
            violations += e.violated() ? 1 : 0;
            busy += e.busyEnergy;
            table.beginRow()
                .cell(r.schedulerName)
                .cell("E" + std::to_string(k + 2))
                .cell(std::string(domEventTypeName(e.type)))
                .cell(gap, 0)
                .cell(std::string(coreTypeName(cfg.core)) + "@" +
                      formatDouble(cfg.freq, 0))
                .cell(e.latency(), 1)
                .cell(e.qosTarget, 0)
                .cell(std::string(e.violated()
                                      ? "MISS"
                                      : (e.servedSpeculatively
                                             ? "meet (spec)"
                                             : "meet")))
                .cell(e.busyEnergy, 1);
        }
        summary.beginRow()
            .cell(r.schedulerName)
            .cell(static_cast<long>(violations))
            .cell(busy, 1)
            .cell(r.totalEnergy, 1);
    }

    emitTable(table, "fig02_case_study.csv");
    std::cout << "\nWindow summary:\n";
    summary.print(std::cout);
    std::cout <<
        "\nExpected narrative (paper Fig. 2): reactive schedulers miss "
        "the heavy event and/or its followers; the oracle meets all "
        "four with the least energy; PES sits between EBS and the "
        "oracle.\n";
    return 0;
}
