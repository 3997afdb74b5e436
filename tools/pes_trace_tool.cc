/**
 * @file
 * pes_trace_tool — command-line record/replay utility for single
 * traces; the verb table in main() is its help (`pes_trace_tool --help`).
 */

#include <iostream>

#include "core/device_context.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace pes;

namespace {

InteractionTrace
loadOrDie(const std::string &path)
{
    auto trace = InteractionTrace::loadFromFile(path);
    fatal_if(!trace, "cannot read trace file '%s'", path.c_str());
    return *trace;
}

int
cmdApps(const Command &cmd)
{
    cmd.parse({});
    Table table({"app", "set", "pages", "temp", "load_scale"});
    for (const AppProfile &p : appRegistry()) {
        table.beginRow()
            .cell(p.name)
            .cell(std::string(p.seen ? "seen" : "unseen"))
            .cell(static_cast<long>(p.numPages))
            .cell(p.behaviorTemp, 2)
            .cell(p.loadWorkScale, 2);
    }
    table.print(std::cout);
    return 0;
}

int
cmdGen(const Command &cmd)
{
    const FlagParse args = cmd.parse({});
    const std::string &app = args.operands[0];
    const std::string &path = args.operands[2];
    uint64_t seed = 0;
    fatal_if(!parseUint64(args.operands[1], seed),
             "bad seed '%s' (expected an unsigned integer)",
             args.operands[1].c_str());
    DeviceContext device;
    const InteractionTrace trace =
        device.generator().generate(appByName(app), seed);
    fatal_if(!trace.saveToFile(path), "cannot write '%s'", path.c_str());
    std::cout << "wrote " << trace.size() << " events ("
              << formatDouble(trace.duration() / 1000.0, 1) << " s) to "
              << path << "\n";
    return 0;
}

int
cmdInfo(const Command &cmd)
{
    const InteractionTrace trace = loadOrDie(cmd.parse({}).operands[0]);
    std::cout << "app:      " << trace.appName << "\n"
              << "user:     " << trace.userSeed << "\n"
              << "events:   " << trace.size() << "\n"
              << "duration: "
              << formatDouble(trace.duration() / 1000.0, 1) << " s\n";
    int counts[kNumInteractions] = {};
    double gaps = 0.0;
    for (size_t i = 0; i < trace.events.size(); ++i) {
        ++counts[static_cast<int>(interactionOf(trace.events[i].type))];
        if (i)
            gaps += trace.events[i].arrival - trace.events[i - 1].arrival;
    }
    std::cout << "mix:      " << counts[0] << " loads, " << counts[1]
              << " taps, " << counts[2] << " moves\n";
    if (trace.size() > 1) {
        std::cout << "mean gap: "
                  << formatDouble(gaps / (trace.size() - 1) / 1000.0, 2)
                  << " s\n";
    }
    return 0;
}

void
printResult(const SimResult &r)
{
    std::cout << r.schedulerName << ": energy "
              << formatDouble(r.totalEnergy, 1) << " mJ, violations "
              << formatPercent(r.violationRate());
    if (r.predictionsMade > 0) {
        std::cout << ", prediction accuracy "
                  << formatPercent(r.predictionAccuracy());
    }
    std::cout << "\n";
}

int
cmdReplay(const Command &cmd)
{
    const FlagParse args = cmd.parse({});
    const auto kind = schedulerKindFromName(args.operands[1]);
    fatal_if(!kind, "unknown scheduler '%s' (interactive, ondemand, ebs, "
             "pes, oracle)", args.operands[1].c_str());
    const InteractionTrace trace = loadOrDie(args.operands[0]);
    DeviceContext device;
    if (*kind == SchedulerKind::Pes)
        device.model();
    const AppProfile &profile = appByName(trace.appName);
    printResult(
        device.replay(profile, trace, *device.makeDriver(*kind)));
    return 0;
}

int
cmdCompare(const Command &cmd)
{
    const InteractionTrace trace = loadOrDie(cmd.parse({}).operands[0]);
    DeviceContext device;
    device.model();
    const AppProfile &profile = appByName(trace.appName);
    for (SchedulerKind kind :
         {SchedulerKind::Interactive, SchedulerKind::Ondemand,
          SchedulerKind::Ebs, SchedulerKind::Pes,
          SchedulerKind::Oracle})
        printResult(device.replay(profile, trace, *device.makeDriver(kind)));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    static const Tool tool{
        "pes_trace_tool",
        "record and replay single interaction traces",
        {
            {"apps", cmdApps, "list the 18 benchmark applications"},
            {"gen", cmdGen, "generate one session and save it", "",
             {"APP SEED FILE", 3, 3}},
            {"info", cmdInfo, "summarize a saved trace", "", {"FILE", 1, 1}},
            {"replay", cmdReplay, "replay a trace under one scheduler",
             "SCHEDULER: interactive, ondemand, ebs, pes or oracle",
             {"FILE SCHEDULER", 2, 2}},
            {"compare", cmdCompare, "replay a trace under all five schedulers",
             "", {"FILE", 1, 1}},
        }};
    return runTool(tool, argc, argv);
}
