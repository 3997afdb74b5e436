/**
 * @file
 * pes_perf: the perf-history ledger CLI — record, gate, chart.
 *
 *   # Measure (replicates!), summarize, remember:
 *   pes_fleet ... --telemetry-out=r1.json   # x N replicates
 *   pes_perf record --history=PERF.jsonl --label=sweep \
 *            --telemetry=r1.json,r2.json,r3.json --report=fleet.json
 *
 *   # Gate HEAD against the committed baseline (CI):
 *   pes_perf record --history=head.jsonl ...      # fresh sample
 *   pes_perf gate --history=PERF.jsonl --sample=head.jsonl
 *
 *   # Chart speed and quality trajectories:
 *   pes_perf report --history=PERF.jsonl --csv=trajectory.csv
 *
 * The ledger is append-only JSONL (telemetry/perf_history.hh); the gate
 * classifies every metric with the diff vocabulary under noise-
 * calibrated bands (sigmas x replicate CV, or a `pes_fleet diff
 * --calibrate` tolerance file) and exits 0 within noise / 2 regressed /
 * 3 missing history / 4 corrupt history or fingerprint-config mismatch.
 * Regressions are named on stderr ("REGRESSED t4.sessions_per_sec ...")
 * so a failing CI log says what slowed down.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "results/report_diff.hh"
#include "results/tolerance.hh"
#include "telemetry/perf_history.hh"
#include "telemetry/run_telemetry.hh"
#include "util/binary_io.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/stats.hh"

using namespace pes;

namespace {

// ------------------------------------------------------------- record

/** Scheduler-mean headline metrics of a report (the quality series). */
std::vector<std::pair<std::string, double>>
reportQualityMetrics(const FleetReport &report)
{
    static const std::vector<std::string> kHeadlines = {
        "violation_rate", "mean_energy_mj", "p95_session_latency_ms",
        "prediction_accuracy"};
    const std::vector<std::string> &names = cellMetricNames();
    std::vector<std::pair<std::string, double>> quality;
    for (const std::string &scheduler : report.schedulers) {
        std::map<std::string, RunningStats> stats;
        for (const CellSummary &cell : report.cells) {
            if (cell.scheduler != scheduler)
                continue;
            const std::vector<double> values = cellMetricValues(cell);
            for (size_t m = 0; m < names.size(); ++m)
                stats[names[m]].add(values[m]);
        }
        for (const std::string &headline : kHeadlines) {
            const auto it = stats.find(headline);
            if (it != stats.end())
                quality.emplace_back(scheduler + "." + headline,
                                     it->second.mean());
        }
    }
    std::sort(quality.begin(), quality.end());
    return quality;
}

int
cmdRecord(const Command &cmd)
{
    std::string history_path;
    std::string label = "sweep";
    std::string rev;
    std::string machine;
    std::string report_path;
    std::vector<std::string> telemetry_paths;
    bool quiet = false;
    cmd.parse({{
        stringFlag("history", "FILE", history_path, "ledger (required)"),
        listFlag("telemetry", "FILES", telemetry_paths,
                 "RunTelemetry replicates (required)"),
        stringFlag("label", "NAME", label, "sample label [sweep]"),
        stringFlag("rev", "REV", rev, "revision [$PES_GIT_REV or unknown]"),
        stringFlag("machine", "FP", machine, "fingerprint [this host's]"),
        stringFlag("report", "FILE", report_path,
                   "fold in a fleet report's quality metrics"),
        switchFlag("quiet", quiet, "suppress progress chatter"),
    }});
    fatal_if(history_path.empty(), "record: --history is required");
    fatal_if(telemetry_paths.empty(),
             "record: at least one --telemetry input is required");

    PerfSample sample;
    sample.label = label;
    if (!rev.empty()) {
        sample.rev = rev;
    } else if (const char *env = std::getenv("PES_GIT_REV")) {
        sample.rev = env;
    }
    sample.machine = machine.empty() ? machineFingerprint() : machine;

    // Parse every replicate, grouped by thread count. All of them must
    // match the first one's sessions, events and scenario: a point that
    // averages two sweep sizes gates nothing. The telemetry header has
    // no scheduler set, so runs that differ only in scheduler pass;
    // the label is what names the scheduler.
    std::vector<IntegrityProblem> problems;
    std::map<int, std::vector<RunTelemetry>> by_threads;
    std::string scenario;
    const auto sweepOf = [](const RunTelemetry &t) {
        return "sessions " + std::to_string(t.sessions) + ", events " +
            std::to_string(t.events) + ", scenario \"" + t.scenario +
            "\"";
    };
    std::string first_path, first_sweep;
    for (const std::string &path : telemetry_paths) {
        std::string text;
        if (!readFileBytes(path, text, nullptr)) {
            problems.push_back({IntegrityProblem::Kind::MissingFile,
                                "telemetry input not found: " + path});
            continue;
        }
        auto t = parseRunTelemetry(text);
        if (!t) {
            problems.push_back(
                {IntegrityProblem::Kind::Corrupt,
                 "unparseable RunTelemetry (or version skew): " + path});
            continue;
        }
        if (first_path.empty()) {
            first_path = path;
            first_sweep = sweepOf(*t);
            sample.sessions = t->sessions;
            sample.events = t->events;
            scenario = t->scenario;
        } else if (sweepOf(*t) != first_sweep) {
            problems.push_back({IntegrityProblem::Kind::Mismatch,
                                path + " measures a different sweep (" +
                                    sweepOf(*t) + ") than " + first_path +
                                    " (" + first_sweep + ")"});
            continue;
        }
        by_threads[std::max(1, t->threads)].push_back(std::move(*t));
    }
    if (!problems.empty())
        return failProblems(problems);

    const std::vector<std::pair<std::string, double>> schema =
        perfPointMetrics(by_threads.begin()->second.front());
    for (const auto &group : by_threads) {
        PerfPoint point;
        point.threads = group.first;
        std::map<std::string, std::vector<double>> series;
        for (const RunTelemetry &t : group.second) {
            for (const auto &metric : perfPointMetrics(t))
                series[metric.first].push_back(metric.second);
        }
        for (const auto &metric : schema) {
            const auto it = series.find(metric.first);
            if (it != series.end())
                point.set(metric.first, it->second);
        }
        sample.points.push_back(std::move(point));
    }

    // Parallel efficiency: rate_tN / (N x mean t1 rate), one value per
    // replicate so it gets the same CV-based noise band as raw rates.
    derivePerfParallelEfficiency(sample);

    if (!report_path.empty()) {
        const DiffInput input = loadDiffInput(report_path);
        if (!input.report)
            return failProblems(input.problems);
        sample.quality = reportQualityMetrics(*input.report);
    }

    // Workload identity: label + population size + the measured thread
    // counts + scenario. Changing any of these is a different
    // experiment — the gate refuses rather than "regressing".
    std::vector<int> threads;
    for (const PerfPoint &point : sample.points)
        threads.push_back(point.threads);
    sample.config = perfConfigIdentity(label, sample.sessions,
                                       sample.events, threads, scenario);

    std::string error;
    fatal_if(!appendPerfSample(history_path, sample, &error), "%s",
             error.c_str());
    if (!quiet) {
        std::cerr << "recorded " << sample.label << " sample (rev "
                  << sample.rev << ", " << sample.replicates()
                  << " replicate(s), " << sample.points.size()
                  << " thread point(s)) -> " << history_path << "\n";
    }
    return 0;
}

// ----------------------------------------------------- compare / gate

/** The compare and gate verbs: gate enforces, compare only classifies. */
int
cmdCompare(const Command &cmd)
{
    const bool enforce = std::string(cmd.verb.name) == "gate";
    std::string history_path;
    std::string sample_path;
    std::string label;
    std::string tolerance_file;
    PerfCompareOptions options;
    bool quiet = false;
    cmd.parse({{
        stringFlag("history", "FILE", history_path, "ledger (required)"),
        stringFlag("sample", "FILE", sample_path,
                   "candidate ledger [--history]"),
        stringFlag("label", "NAME", label, "compare only this label"),
        doubleFlag("sigmas", "K", options.sigmas, kPositive, kUnbounded,
                   "band: K x replicate CV [3]"),
        doubleFlag("min-rel", "R", options.minRel, 0.0, kUnbounded,
                   "relative band floor [0.02]"),
        listFlag("metric", "LIST", options.metrics, "gate these metrics"),
        stringFlag("tolerance-file", "FILE", tolerance_file,
                   "calibrated bands (pes_fleet diff --calibrate)"),
        switchFlag("quiet", quiet, "suppress the comparison table"),
    }});
    fatal_if(history_path.empty(), "%s: --history is required",
             enforce ? "gate" : "compare");

    ToleranceSpec calibrated;
    if (!tolerance_file.empty()) {
        std::string error;
        auto spec = loadToleranceSpec(tolerance_file, &error);
        fatal_if(!spec, "%s", error.c_str());
        calibrated = std::move(*spec);
        options.tolerance = &calibrated;
    }

    const PerfHistory history = loadPerfHistory(history_path);
    if (!history.problems.empty())
        return failProblems(history.problems);

    const PerfSample *base = nullptr;
    const PerfSample *test = nullptr;
    PerfHistory candidate;
    if (!sample_path.empty()) {
        candidate = loadPerfHistory(sample_path);
        if (!candidate.problems.empty())
            return failProblems(candidate.problems);
        test = candidate.latest(label);
        base = history.latest(label);
    } else {
        // Self-gate within one ledger: latest vs the sample before it.
        test = history.latest(label);
        for (auto it = history.samples.rbegin();
             it != history.samples.rend(); ++it) {
            if (&*it == test)
                continue;
            if (label.empty() || it->label == label) {
                base = &*it;
                break;
            }
        }
    }
    if (!test || !base) {
        IntegrityProblem p;
        p.kind = IntegrityProblem::Kind::MissingFile;
        p.message = !test
            ? "no candidate sample" +
                (label.empty() ? std::string()
                               : " with label \"" + label + "\"")
            : "history has no baseline sample to compare against" +
                (label.empty() ? std::string()
                               : " (label \"" + label + "\")");
        std::cerr << "FAIL " << p.message << "\n";
        return kExitMissing;
    }

    const PerfComparison comparison =
        comparePerfSamples(*base, *test, options);
    if (!quiet) {
        std::cout << "baseline: rev " << base->rev << " ("
                  << base->replicates() << " replicates)  candidate: rev "
                  << test->rev << " (" << test->replicates()
                  << " replicates)\n";
        printPerfComparison(comparison, std::cout);
    }
    // Name every gated regression (and every incomparability) on
    // stderr even under --quiet: a failing CI gate must say WHY.
    for (const IntegrityProblem &p : comparison.problems)
        std::cerr << "FAIL " << p.message << "\n";
    for (const PerfMetricDelta &d : comparison.deltas) {
        if (d.gated && d.outcome == DiffOutcome::Regressed) {
            std::cerr << "REGRESSED " << d.name << ": " << d.base
                      << " -> " << d.test << " (delta "
                      << d.relDelta * 100.0 << "%, band "
                      << d.tolerance * 100.0 << "%)\n";
        }
    }
    const int exit_code = perfGateExitCode(comparison);
    if (!enforce)
        return exit_code == kExitDrift ? 0 : exit_code;
    return exit_code;
}

// ------------------------------------------------------------- report

int
cmdReport(const Command &cmd)
{
    std::string history_path;
    std::string label;
    std::string csv_path;
    std::vector<std::string> selected;
    bool quiet = false;
    cmd.parse({{
        stringFlag("history", "FILE", history_path, "ledger (required)"),
        stringFlag("label", "NAME", label, "chart only this label"),
        listFlag("metric", "LIST", selected, "series [default-gated]"),
        stringFlag("csv", "FILE", csv_path, "write the trajectory CSV"),
        switchFlag("quiet", quiet, "suppress the ASCII chart"),
    }});
    fatal_if(history_path.empty(), "report: --history is required");

    const PerfHistory history = loadPerfHistory(history_path);
    if (!history.problems.empty())
        return failProblems(history.problems);

    std::vector<const PerfSample *> samples;
    for (const PerfSample &sample : history.samples)
        if (label.empty() || sample.label == label)
            samples.push_back(&sample);
    if (samples.empty()) {
        std::cerr << "FAIL history has no samples"
                  << (label.empty() ? std::string()
                                    : " with label \"" + label + "\"")
                  << "\n";
        return kExitMissing;
    }

    // Series selection: --metric list, else every default-gated metric
    // seen anywhere in the ledger, in first-seen flatten order.
    std::vector<std::string> names;
    if (!selected.empty()) {
        names = selected;
    } else {
        for (const PerfSample *sample : samples) {
            for (const auto &entry : flattenPerfSample(*sample)) {
                if (perfMetricGatedByDefault(entry.first) &&
                    std::find(names.begin(), names.end(), entry.first) ==
                        names.end())
                    names.push_back(entry.first);
            }
        }
    }

    // One pass per metric feeds both views: the trajectory CSV (replicate
    // mean/spread per sample) and the ASCII chart (one bar row per
    // sample, scaled to the series max so trends read at a glance).
    constexpr int kBarWidth = 40;
    size_t label_width = 0;
    for (const PerfSample *sample : samples)
        label_width = std::max(label_width, sample->label.size());
    std::ostringstream csv, chart;
    csv << "index,label,rev,machine,replicates,metric,mean,stddev,cv\n";
    for (const std::string &name : names) {
        std::vector<std::pair<size_t, PerfNoise>> series;
        double peak = 0.0;
        for (size_t i = 0; i < samples.size(); ++i) {
            const PerfSample &sample = *samples[i];
            for (const auto &entry : flattenPerfSample(sample)) {
                if (entry.first != name)
                    continue;
                const PerfNoise noise = perfNoise(entry.second);
                peak = std::max(peak, std::fabs(noise.mean));
                series.emplace_back(i, noise);
                csv << i << "," << sample.label << "," << sample.rev << ","
                    << sample.machine << "," << entry.second.size() << ","
                    << name << "," << csvNum(noise.mean) << ","
                    << csvNum(noise.stddev) << "," << csvNum(noise.cv)
                    << "\n";
            }
        }
        if (series.empty())
            continue;
        chart << name << "\n";
        for (const auto &[i, noise] : series) {
            const int width = peak > 0.0
                ? static_cast<int>(kBarWidth * std::fabs(noise.mean) / peak +
                                   0.5)
                : 0;
            chart << "  [" << i << "] " << std::left
                  << std::setw(static_cast<int>(label_width))
                  << samples[i]->label << " "
                  << std::string(static_cast<size_t>(width), '#') << " "
                  << csvNum(noise.mean) << " (cv " << csvNum(noise.cv)
                  << ", rev " << samples[i]->rev << ")\n";
        }
    }
    if (!csv_path.empty()) {
        std::ofstream os(csv_path, std::ios::binary);
        fatal_if(!os, "cannot open '%s'", csv_path.c_str());
        os << csv.str();
    }
    if (!quiet)
        std::cout << chart.str();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    static const Tool tool{
        "pes_perf",
        "perf-history ledger: record, gate and chart simulator speed",
        {
            {"record", cmdRecord, "append one replicated sample",
             "Every replicate must match the first one's sessions, events "
             "and scenario.\nThe scheduler set is not checked: name it in "
             "--label.\nexit: 0 appended, 3 missing inputs, 4 unparseable "
             "inputs or replicates\nof different sizes or scenarios"},
            {"compare", cmdCompare, "classify a sample against its baseline",
             "The candidate is the latest --sample (else --history) sample, "
             "the baseline\nthe latest earlier --history sample. Never "
             "enforces.\nexit: 0, 3 missing inputs, 4 corrupt or "
             "incomparable inputs"},
            {"gate", cmdCompare, "enforce the noise-calibrated gate",
             "Gates *_per_sec, parallel_efficiency and quality.* by default, "
             "other metrics\nonly when named by --metric.\n"
             "exit: 0 within noise, 2 a gated metric regressed, 3 missing "
             "history,\n4 corrupt history or machine/config mismatch"},
            {"report", cmdReport, "chart the ledger's trajectories",
             "exit: 0, 3 missing history, 4 corrupt history"},
        }};
    return runTool(tool, argc, argv);
}
