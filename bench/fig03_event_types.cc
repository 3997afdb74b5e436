/**
 * @file
 * Reproduces paper Fig. 3: the distribution of events across Type I-IV
 * under the reactive EBS scheduler for the 12 seen applications
 * (Sec. 4.3). Type I+II violate QoS; Type III meets QoS but wastes
 * energy; Type IV is benign.
 */

#include "bench/bench_common.hh"
#include "sim/classifier.hh"

using namespace pes;

int
main()
{
    setQuiet(true);
    benchHeader("Fig. 3 - Event Type I-IV distribution under EBS",
                "PES paper Fig. 3 (Sec. 4.3).");

    DeviceContext device;
    EventClassifier classifier(device.platform(), device.power());

    Table table({"app", "TypeI_pct", "TypeII_pct", "TypeIII_pct",
                 "TypeIV_pct"});
    CategoryDistribution overall;
    for (const AppProfile &p : seenApps()) {
        const auto driver = device.makeDriver(SchedulerKind::Ebs);
        CategoryDistribution dist;
        for (const auto &trace : device.generator().evaluationSet(
                 p, TraceGenerator::kEvalTracesPerApp)) {
            const SimResult r = device.replay(p, trace, *driver);
            dist.merge(classifier.classifyRun(trace, r));
        }
        overall.merge(dist);
        table.beginRow()
            .cell(p.name)
            .cell(dist.fraction(EventCategory::TypeI) * 100.0, 1)
            .cell(dist.fraction(EventCategory::TypeII) * 100.0, 1)
            .cell(dist.fraction(EventCategory::TypeIII) * 100.0, 1)
            .cell(dist.fraction(EventCategory::TypeIV) * 100.0, 1);
    }
    table.beginRow()
        .cell(std::string("overall"))
        .cell(overall.fraction(EventCategory::TypeI) * 100.0, 1)
        .cell(overall.fraction(EventCategory::TypeII) * 100.0, 1)
        .cell(overall.fraction(EventCategory::TypeIII) * 100.0, 1)
        .cell(overall.fraction(EventCategory::TypeIV) * 100.0, 1);

    emitTable(table, "fig03_event_types.csv");
    const double miss = overall.fraction(EventCategory::TypeI) +
        overall.fraction(EventCategory::TypeII);
    std::cout << "Measured: " << formatPercent(miss)
              << " of events miss QoS under the reactive scheduler; "
              << formatPercent(overall.fraction(EventCategory::TypeIII))
              << " waste energy (Type III).\n"
              << "Paper:    ~21% miss QoS (Type I+II), ~14% Type III.\n";
    return 0;
}
