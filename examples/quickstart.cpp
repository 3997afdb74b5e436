/**
 * @file
 * Quickstart: the five-minute tour of the PES library.
 *
 *   1. Pick a benchmark application and synthesize its pages.
 *   2. Generate a user interaction trace (and round-trip it to disk).
 *   3. Train the event-sequence model on the seen applications.
 *   4. Replay the trace under EBS (reactive baseline) and PES.
 *   5. Compare energy, QoS violations, and prediction quality.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [app-name]
 */

#include <cstdio>
#include <iostream>

#include "core/device_context.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pes;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::string app_name = argc > 1 ? argv[1] : "cnn";

    // ---- 1. The application -------------------------------------------
    const AppProfile &profile = appByName(app_name);
    DeviceContext device;  // Exynos 5410 platform + power table + generator
    const WebApp &app = device.generator().appFor(profile);
    std::cout << "App '" << profile.name << "': " << app.numPages()
              << " pages, " << app.dom(0).size()
              << " DOM nodes on the landing page.\n";

    // ---- 2. A user session --------------------------------------------
    InteractionTrace trace = device.generator().generate(profile, 12345);
    std::cout << "Generated session: " << trace.size() << " events over "
              << formatDouble(trace.duration() / 1000.0, 1) << " s.\n";

    // Traces serialize for record/replay workflows.
    const std::string path = "/tmp/pes_quickstart_trace.txt";
    trace.saveToFile(path);
    trace = *InteractionTrace::loadFromFile(path);
    std::remove(path.c_str());

    // ---- 3. Train the predictor (cached across calls) -----------------
    std::cout << "Training the event-sequence model on the 12 seen "
                 "apps...\n";
    device.model();

    // ---- 4. Replay under both schedulers -------------------------------
    const auto ebs = device.makeDriver(SchedulerKind::Ebs);
    const auto pes = device.makeDriver(SchedulerKind::Pes);
    const SimResult ebs_result = device.replay(profile, trace, *ebs);
    const SimResult pes_result = device.replay(profile, trace, *pes);

    // ---- 5. Compare -----------------------------------------------------
    Table table({"metric", "EBS", "PES"});
    table.beginRow().cell(std::string("total energy (mJ)"))
        .cell(ebs_result.totalEnergy, 1).cell(pes_result.totalEnergy, 1);
    table.beginRow().cell(std::string("QoS violations"))
        .cell(formatPercent(ebs_result.violationRate()))
        .cell(formatPercent(pes_result.violationRate()));
    table.beginRow().cell(std::string("busy energy (mJ)"))
        .cell(ebs_result.busyEnergy, 1).cell(pes_result.busyEnergy, 1);
    table.beginRow().cell(std::string("events served speculatively"))
        .cell(0L)
        .cell([&] {
            long n = 0;
            for (const EventRecord &e : pes_result.events)
                n += e.servedSpeculatively ? 1 : 0;
            return n;
        }());
    table.beginRow().cell(std::string("prediction accuracy"))
        .cell(std::string("-"))
        .cell(formatPercent(pes_result.predictionAccuracy()));
    table.beginRow().cell(std::string("mispredict waste (ms)"))
        .cell(0.0, 1).cell(pes_result.mispredictWasteMs, 1);
    table.print(std::cout);

    std::cout << "\nPES speculates the user's next events, executes them "
                 "during think time on low-power configurations, and "
                 "commits the frames when the real inputs arrive.\n";
    return 0;
}
