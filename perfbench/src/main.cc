/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR
 *
 * --trace 0 measures the end-to-end metrics: it samples set-up alone
 * for a while, then repeats set-up and FleetRunner::run() of the
 * workload while another repeat still fits in S seconds (at least
 * kMinReps times). It reports the lower decile of the set-up times and
 * the upper decile of the repeats' rates (see upperDecile). --trace 1
 * runs the traced breakdown (see traced_run.hh). Either way the last line of
 * standard output is one JSON object: correct, attempted, failed and
 * metrics. The exit code is 0 only when every output check passed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hh"
#include "traced_run.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/** Repetitions of set-up + run() a measured run makes at least. */
constexpr int kMinReps = 2;
/** ... and at most, whatever --seconds says. */
constexpr int kMaxReps = 200;
/**
 * Set-up is first sampled alone for this share of --seconds (at most
 * kSetupPhaseMaxS), starting one set-up every kSetupSpacingS at most.
 * Set-up takes microseconds to tens of milliseconds, and on a shared
 * machine such short operations run up to twice as slow for seconds at
 * a time; spreading the samples over seconds lets their fast end show.
 */
constexpr double kSetupPhaseShare = 0.2;
constexpr double kSetupPhaseMaxS = 5.0;
constexpr std::chrono::milliseconds kSetupSpacing{5};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = 0;
    std::string workDir;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\nworkloads:";
    for (const WorkloadSpec &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 3600))
                usage("--seconds must be in (0, 3600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_seed)
        usage("--seed must be a non-negative integer");
    if (args.seconds <= 0.0)
        usage("--seconds is required");
    if (args.workDir.empty())
        usage("--work-dir is required");
    return args;
}

/** A number with every digit; JSON has no NaN or infinity. */
std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
    return os.str();
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
printMetrics(const std::string &workload, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::cout << workload << "  " << std::left << std::setw(30) << m.name
                  << std::right << " " << std::setprecision(6) << m.value
                  << " " << m.unit << "\n";
    }
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
runEndToEnd(const WorkloadSpec &w, const Args &args)
{
    const std::string store_dir = args.workDir + "/store";
    std::vector<double> setup_s;
    std::vector<double> rates;
    std::vector<std::string> problems;
    std::string report;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    const auto timedSetup = [&] {
        removeTree(store_dir);
        const auto t0 = Clock::now();
        std::unique_ptr<Setup> setup = makeSetup(w, args.seed, store_dir);
        setup_s.push_back(secondsSince(t0));
        return setup;
    };

    const auto start = Clock::now();
    const double setup_phase_s =
        std::min(kSetupPhaseMaxS, kSetupPhaseShare * args.seconds);
    do {
        const auto sample_start = Clock::now();
        timedSetup();
        std::this_thread::sleep_until(sample_start + kSetupSpacing);
    } while (secondsSince(start) < setup_phase_s);

    // After kMinReps, start a repeat only if one as long as the last
    // still ends within --seconds, so the run does not overshoot.
    double last_rep_s = 0.0;
    for (int rep = 0; rep < kMaxReps &&
         (rep < kMinReps ||
          secondsSince(start) + last_rep_s <= args.seconds);
         ++rep) {
        const auto rep_start = Clock::now();
        const FleetRun run = runFleet(*timedSetup());
        last_rep_s = secondsSince(rep_start);
        for (const std::string &p : checkRun(w, run))
            problems.push_back("rep " + std::to_string(rep) + ": " + p);
        if (report.empty())
            report = run.reportJson;
        else if (run.reportJson != report)
            problems.push_back("rep " + std::to_string(rep) +
                               ": report differs from rep 0");
        attempted += static_cast<uint64_t>(run.attempted);
        failed += static_cast<uint64_t>(run.failed);
        rates.push_back(run.attempted / run.wallS);
        std::cout << w.name << " rep " << rep << ": setup "
                  << std::setprecision(4) << setup_s.back() << " s, "
                  << run.attempted << " sessions in " << run.wallS
                  << " s = " << rates.back() << " sessions/s\n";
    }
    removeTree(store_dir);

    const std::vector<Metric> metrics = {
        {"sessions_per_sec", upperDecile(rates), "sessions/s"},
        {"setup_s", lowerDecile(setup_s), "s"},
        {"peak_rss_mb",
         static_cast<double>(pes::currentPeakRssKb()) / 1024.0, "MiB"},
    };
    printMetrics(w.name, metrics);
    std::cout << w.name << "  error_rate "
              << (attempted ? static_cast<double>(failed) / attempted : 0.0)
              << " (" << failed << " of " << attempted
              << " sessions failed)\n";
    for (const std::string &p : problems)
        std::cerr << "CHECK FAILED: " << p << "\n";
    printResult(problems.empty(), attempted, failed, metrics);
    return problems.empty() ? 0 : 1;
}

int
runTracedMode(const WorkloadSpec &w, const Args &args)
{
    const TracedResult result =
        runTraced(w, args.seed, args.seconds, args.workDir);
    for (const std::string &note : result.notes)
        std::cout << w.name << "  " << note << "\n";
    printMetrics(w.name, result.metrics);
    for (const std::string &p : result.problems)
        std::cerr << "CHECK FAILED: " << p << "\n";
    printResult(result.problems.empty(), result.attempted, result.failed,
                result.metrics);
    return result.problems.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *w = findWorkload(args.workload);
    if (!w)
        usage("unknown workload '" + args.workload + "'");
    return args.trace ? runTracedMode(*w, args) : runEndToEnd(*w, args);
}
