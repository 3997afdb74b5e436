#include "telemetry/perf_history.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>

#if !defined(_WIN32)
#include <sys/utsname.h>
#endif

#include "telemetry/run_telemetry.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace pes {

namespace {

IntegrityProblem
problemOf(IntegrityProblem::Kind kind, std::string message)
{
    IntegrityProblem p;
    p.kind = kind;
    p.message = std::move(message);
    return p;
}

/** Strip the "t<threads>." / "quality.<scheduler>." qualifier, leaving
 *  the bare metric name calibration files speak. */
std::string
stripQualifier(const std::string &qualified)
{
    if (qualified.rfind("quality.", 0) == 0) {
        const size_t dot = qualified.find('.', 8);
        return dot == std::string::npos ? qualified.substr(8)
                                        : qualified.substr(dot + 1);
    }
    if (qualified.size() > 1 && qualified[0] == 't' &&
        std::isdigit(static_cast<unsigned char>(qualified[1]))) {
        const size_t dot = qualified.find('.');
        if (dot != std::string::npos)
            return qualified.substr(dot + 1);
    }
    return qualified;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

} // namespace

const std::vector<double> *
PerfPoint::find(const std::string &name) const
{
    const auto it = std::lower_bound(
        metrics.begin(), metrics.end(), name,
        [](const auto &entry, const std::string &n) {
            return entry.first < n;
        });
    if (it == metrics.end() || it->first != name)
        return nullptr;
    return &it->second;
}

void
PerfPoint::set(const std::string &name, std::vector<double> values)
{
    const auto it = std::lower_bound(
        metrics.begin(), metrics.end(), name,
        [](const auto &entry, const std::string &n) {
            return entry.first < n;
        });
    if (it != metrics.end() && it->first == name) {
        it->second = std::move(values);
        return;
    }
    metrics.emplace(it, name, std::move(values));
}

int
PerfSample::replicates() const
{
    size_t longest = 0;
    for (const PerfPoint &point : points)
        for (const auto &entry : point.metrics)
            longest = std::max(longest, entry.second.size());
    return static_cast<int>(longest);
}

const PerfPoint *
PerfSample::point(int threads) const
{
    for (const PerfPoint &p : points)
        if (p.threads == threads)
            return &p;
    return nullptr;
}

std::string
machineFingerprint()
{
    std::string sysname = "unknown";
    std::string machine = "unknown";
#if !defined(_WIN32)
    struct utsname u;
    if (uname(&u) == 0) {
        sysname = u.sysname;
        machine = u.machine;
    }
#endif
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    return sysname + "-" + machine + "-" + std::to_string(cpus) + "cpu";
}

std::string
perfDigest(const std::string &text)
{
    const uint64_t h = hashBytes(text.data(), text.size());
    std::ostringstream os;
    os << "cfg-" << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

std::vector<std::pair<std::string, double>>
perfPointMetrics(const RunTelemetry &t)
{
    // Series outside the header and the typed view read straight from
    // the snapshot.
    const auto ms = [&t](const char *us_counter) {
        return static_cast<double>(t.snapshot.counter(us_counter)) / 1000.0;
    };
    return {
        {"sessions_per_sec", t.sessionsPerSec},
        {"events_per_sec", t.eventsPerSec},
        {"plan_ms", t.planMs},
        {"setup_ms", t.setupMs},
        {"execute_ms", t.executeMs},
        {"persist_ms", t.persistMs},
        {"reduce_ms", t.reduceMs},
        {"total_ms", t.totalMs},
        {"cache_hits", static_cast<double>(t.cacheHits)},
        {"cache_misses", static_cast<double>(t.cacheMisses)},
        {"cache_evictions",
         static_cast<double>(t.snapshot.counter("cache.evictions"))},
        {"duplicate_synthesis",
         static_cast<double>(t.cacheDuplicateSynthesis)},
        {"cache_lock_waits", static_cast<double>(t.cacheLockWaits)},
        {"cache_lock_wait_ms", ms("cache.lock_wait_us")},
        {"persist_lock_waits", static_cast<double>(t.persistLockWaits)},
        {"persist_lock_wait_ms", ms("store.push_lock_wait_us")},
        {"pool_busy_ms", t.poolBusyMs},
        {"pool_idle_ms", t.poolIdleMs},
    };
}

void
derivePerfParallelEfficiency(PerfSample &sample)
{
    const PerfPoint *t1 = sample.point(1);
    const std::vector<double> *t1_rates =
        t1 ? t1->find("sessions_per_sec") : nullptr;
    const double t1_mean = t1_rates ? perfNoise(*t1_rates).mean : 0.0;
    if (t1_mean <= 0.0)
        return;
    for (PerfPoint &point : sample.points) {
        const std::vector<double> *rates =
            point.find("sessions_per_sec");
        if (!rates)
            continue;
        std::vector<double> efficiency;
        efficiency.reserve(rates->size());
        for (double rate : *rates)
            efficiency.push_back(rate / (point.threads * t1_mean));
        point.set("parallel_efficiency", std::move(efficiency));
    }
}

std::string
perfConfigIdentity(const std::string &label, uint64_t sessions,
                   uint64_t events, const std::vector<int> &threads,
                   const std::string &scenario)
{
    std::ostringstream identity;
    identity << label << "|" << sessions << "|" << events;
    for (int t : threads)
        identity << "|t" << t;
    identity << "|" << scenario;
    return perfDigest(identity.str());
}

std::string
perfSampleToJsonLine(const PerfSample &sample)
{
    std::ostringstream os;
    os << "{\"perf_version\": " << PerfSample::kVersion
       << ", \"label\": \"" << jsonEscape(sample.label)
       << "\", \"rev\": \"" << jsonEscape(sample.rev)
       << "\", \"machine\": \"" << jsonEscape(sample.machine)
       << "\", \"config\": \"" << jsonEscape(sample.config)
       << "\", \"sessions\": " << sample.sessions
       << ", \"events\": " << sample.events << ", \"points\": [";
    for (size_t i = 0; i < sample.points.size(); ++i) {
        const PerfPoint &point = sample.points[i];
        os << (i ? ", " : "") << "{\"threads\": " << point.threads
           << ", \"metrics\": {";
        for (size_t m = 0; m < point.metrics.size(); ++m) {
            os << (m ? ", " : "") << "\""
               << jsonEscape(point.metrics[m].first) << "\": [";
            const std::vector<double> &values = point.metrics[m].second;
            for (size_t v = 0; v < values.size(); ++v)
                os << (v ? ", " : "") << jsonNum(values[v]);
            os << "]";
        }
        os << "}}";
    }
    os << "], \"quality\": {";
    for (size_t q = 0; q < sample.quality.size(); ++q) {
        os << (q ? ", " : "") << "\""
           << jsonEscape(sample.quality[q].first)
           << "\": " << jsonNum(sample.quality[q].second);
    }
    os << "}}\n";
    return os.str();
}

std::optional<PerfSample>
parsePerfSampleLine(const std::string &line, IntegrityProblem *problem)
{
    const auto doc = parseJson(line);
    if (!doc || doc->kind != JsonValue::Kind::Object) {
        if (problem)
            *problem = problemOf(
                IntegrityProblem::Kind::Corrupt,
                "unparseable perf sample line (truncated write?)");
        return std::nullopt;
    }
    const JsonValue *version = doc->find("perf_version");
    if (!version) {
        if (problem)
            *problem = problemOf(IntegrityProblem::Kind::Corrupt,
                                 "not a perf sample (bad magic: no "
                                 "perf_version key)");
        return std::nullopt;
    }
    if (version->number() != static_cast<double>(PerfSample::kVersion)) {
        if (problem)
            *problem = problemOf(
                IntegrityProblem::Kind::Mismatch,
                "perf_version skew: ledger line is v" + version->str +
                    ", this build reads v" +
                    std::to_string(PerfSample::kVersion));
        return std::nullopt;
    }

    PerfSample sample;
    if (const JsonValue *label = doc->find("label"))
        sample.label = label->str;
    if (const JsonValue *rev = doc->find("rev"))
        sample.rev = rev->str;
    if (const JsonValue *machine = doc->find("machine"))
        sample.machine = machine->str;
    if (const JsonValue *config = doc->find("config"))
        sample.config = config->str;
    if (const JsonValue *sessions = doc->find("sessions"))
        sample.sessions = sessions->number64();
    if (const JsonValue *events = doc->find("events"))
        sample.events = events->number64();

    if (const JsonValue *points = doc->find("points")) {
        for (const JsonValue &row : points->arr) {
            PerfPoint point;
            if (const JsonValue *threads = row.find("threads"))
                point.threads = static_cast<int>(threads->number());
            if (const JsonValue *metrics = row.find("metrics")) {
                for (const auto &entry : metrics->obj) {
                    std::vector<double> values;
                    values.reserve(entry.second.arr.size());
                    for (const JsonValue &v : entry.second.arr)
                        values.push_back(v.number());
                    point.set(entry.first, std::move(values));
                }
            }
            sample.points.push_back(std::move(point));
        }
    }
    std::sort(sample.points.begin(), sample.points.end(),
              [](const PerfPoint &a, const PerfPoint &b) {
                  return a.threads < b.threads;
              });

    if (const JsonValue *quality = doc->find("quality")) {
        for (const auto &entry : quality->obj)
            sample.quality.emplace_back(entry.first,
                                        entry.second.number());
        std::sort(sample.quality.begin(), sample.quality.end());
    }
    return sample;
}

const PerfSample *
PerfHistory::latest(const std::string &label) const
{
    for (auto it = samples.rbegin(); it != samples.rend(); ++it)
        if (label.empty() || it->label == label)
            return &*it;
    return nullptr;
}

PerfHistory
loadPerfHistory(const std::string &path)
{
    PerfHistory history;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        history.problems.push_back(
            problemOf(IntegrityProblem::Kind::MissingFile,
                      "perf history not found: " + path));
        return history;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        IntegrityProblem problem;
        auto sample = parsePerfSampleLine(line, &problem);
        if (sample) {
            history.samples.push_back(std::move(*sample));
        } else {
            problem.message = path + ":" + std::to_string(lineno) +
                ": " + problem.message;
            history.problems.push_back(std::move(problem));
        }
    }
    if (history.samples.empty() && history.problems.empty()) {
        history.problems.push_back(
            problemOf(IntegrityProblem::Kind::MissingFile,
                      "perf history is empty: " + path));
    }
    return history;
}

bool
appendPerfSample(const std::string &path, const PerfSample &sample,
                 std::string *error)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) {
        if (error)
            *error = "cannot open perf history for append: " + path;
        return false;
    }
    out << perfSampleToJsonLine(sample);
    out.flush();
    if (!out) {
        if (error)
            *error = "short write appending perf sample: " + path;
        return false;
    }
    return true;
}

PerfNoise
perfNoise(const std::vector<double> &values)
{
    PerfNoise noise;
    RunningStats stats;
    for (double v : values)
        stats.add(v);
    noise.mean = stats.mean();
    noise.stddev = stats.stddev();
    noise.cv = noise.mean != 0.0 ? noise.stddev / std::fabs(noise.mean)
                                 : 0.0;
    return noise;
}

std::vector<std::pair<std::string, std::vector<double>>>
flattenPerfSample(const PerfSample &sample)
{
    std::vector<std::pair<std::string, std::vector<double>>> flat;
    for (const PerfPoint &point : sample.points) {
        const std::string prefix =
            "t" + std::to_string(point.threads) + ".";
        for (const auto &entry : point.metrics)
            flat.emplace_back(prefix + entry.first, entry.second);
    }
    for (const auto &entry : sample.quality)
        flat.emplace_back("quality." + entry.first,
                          std::vector<double>{entry.second});
    return flat;
}

MetricDirection
perfMetricDirection(const std::string &qualified)
{
    if (qualified.rfind("quality.", 0) == 0)
        return metricDirection(stripQualifier(qualified));
    const std::string name = stripQualifier(qualified);
    if (endsWith(name, "_per_sec") || name == "parallel_efficiency" ||
        name == "cache_hits")
        return MetricDirection::HigherIsBetter;
    if (endsWith(name, "_ms") || endsWith(name, "_waits") ||
        name == "cache_misses" || name == "cache_evictions" ||
        name == "duplicate_synthesis" || name == "max_queue_depth")
        return MetricDirection::LowerIsBetter;
    return MetricDirection::Structural;
}

bool
perfMetricGatedByDefault(const std::string &qualified)
{
    if (qualified.rfind("quality.", 0) == 0)
        return true;
    const std::string name = stripQualifier(qualified);
    return endsWith(name, "_per_sec") || name == "parallel_efficiency";
}

PerfComparison
comparePerfSamples(const PerfSample &base, const PerfSample &test,
                   const PerfCompareOptions &options)
{
    PerfComparison cmp;
    if (base.label != test.label) {
        cmp.problems.push_back(problemOf(
            IntegrityProblem::Kind::Mismatch,
            "label mismatch: baseline \"" + base.label +
                "\" vs candidate \"" + test.label + "\""));
    }
    if (base.machine != test.machine) {
        cmp.problems.push_back(problemOf(
            IntegrityProblem::Kind::Mismatch,
            "machine fingerprint mismatch: baseline \"" + base.machine +
                "\" vs candidate \"" + test.machine +
                "\" (perf numbers from different machines never gate "
                "against each other)"));
    }
    if (base.config != test.config) {
        cmp.problems.push_back(problemOf(
            IntegrityProblem::Kind::Mismatch,
            "workload config mismatch: baseline " + base.config +
                " vs candidate " + test.config +
                " (a changed workload is a different experiment; "
                "re-seed the baseline)"));
    }
    if (!cmp.problems.empty()) {
        cmp.comparable = false;
        return cmp;
    }

    const auto baseFlat = flattenPerfSample(base);
    const auto testFlat = flattenPerfSample(test);
    const auto findIn =
        [](const std::vector<std::pair<std::string, std::vector<double>>>
               &flat,
           const std::string &name) -> const std::vector<double> * {
        for (const auto &entry : flat)
            if (entry.first == name)
                return &entry.second;
        return nullptr;
    };

    const auto gated = [&options](const std::string &name) {
        if (!options.metrics.empty())
            return std::find(options.metrics.begin(),
                             options.metrics.end(),
                             name) != options.metrics.end();
        return perfMetricGatedByDefault(name);
    };

    // Baseline order first, then candidate-only extras.
    std::vector<std::string> names;
    for (const auto &entry : baseFlat)
        names.push_back(entry.first);
    for (const auto &entry : testFlat)
        if (!findIn(baseFlat, entry.first))
            names.push_back(entry.first);

    for (const std::string &name : names) {
        const std::vector<double> *bv = findIn(baseFlat, name);
        const std::vector<double> *tv = findIn(testFlat, name);
        PerfMetricDelta delta;
        delta.name = name;
        delta.gated = gated(name);
        if (!bv || !tv) {
            // One-sided series chart fine but cannot gate: the metric
            // set changed with the code, not the performance.
            delta.outcome =
                bv ? DiffOutcome::Missing : DiffOutcome::Extra;
            ++cmp.missing;
            cmp.deltas.push_back(std::move(delta));
            continue;
        }
        const PerfNoise baseNoise = perfNoise(*bv);
        const PerfNoise testNoise = perfNoise(*tv);
        delta.base = baseNoise.mean;
        delta.test = testNoise.mean;

        const bool isQuality = name.rfind("quality.", 0) == 0;
        const double cv = std::max(baseNoise.cv, testNoise.cv);
        double rel = isQuality
            ? std::max(options.qualityRel, options.sigmas * cv)
            : std::max(options.minRel, options.sigmas * cv);
        double abs = options.absTolerance;
        if (options.tolerance) {
            const MetricTolerance *t = options.tolerance->find(name);
            if (!t)
                t = options.tolerance->find(stripQualifier(name));
            if (t) {
                // Calibrated bands replace the noise-derived ones.
                rel = t->rel;
                abs = std::max(t->abs, options.absTolerance);
            }
        }
        delta.tolerance = rel;

        const double absDelta = std::fabs(delta.test - delta.base);
        delta.relDelta = delta.base != 0.0
            ? absDelta / std::fabs(delta.base)
            : 0.0;

        const bool identical = delta.base == delta.test ||
            (std::isnan(delta.base) && std::isnan(delta.test));
        if (identical) {
            delta.outcome = DiffOutcome::Identical;
            ++cmp.identical;
        } else if (absDelta <= abs ||
                   (delta.base != 0.0 && delta.relDelta <= rel)) {
            delta.outcome = DiffOutcome::WithinTolerance;
            ++cmp.withinNoise;
        } else {
            const bool higher = delta.test > delta.base;
            bool better = false;
            switch (perfMetricDirection(name)) {
              case MetricDirection::HigherIsBetter:
                better = higher;
                break;
              case MetricDirection::LowerIsBetter:
                better = !higher;
                break;
              case MetricDirection::Structural:
                better = false;
                break;
            }
            delta.outcome =
                better ? DiffOutcome::Improved : DiffOutcome::Regressed;
            ++(better ? cmp.improved : cmp.regressed);
        }
        cmp.deltas.push_back(std::move(delta));
    }
    return cmp;
}

bool
PerfComparison::clean() const
{
    if (!comparable)
        return false;
    for (const PerfMetricDelta &delta : deltas)
        if (delta.gated && delta.outcome == DiffOutcome::Regressed)
            return false;
    return true;
}

int
perfGateExitCode(const PerfComparison &comparison)
{
    if (!comparison.comparable || !comparison.problems.empty())
        return integrityExitCode(comparison.problems);
    return comparison.clean() ? 0 : kExitDrift;
}

void
printPerfComparison(const PerfComparison &comparison, std::ostream &os)
{
    if (!comparison.comparable) {
        for (const IntegrityProblem &p : comparison.problems)
            os << "not comparable: " << p.message << "\n";
        return;
    }
    for (const PerfMetricDelta &delta : comparison.deltas) {
        if (delta.outcome == DiffOutcome::Identical)
            continue;
        os << std::left << std::setw(10)
           << diffOutcomeName(delta.outcome) << " "
           << (delta.gated ? "[gated]   " : "[advisory]") << " "
           << std::setw(34) << delta.name << " " << jsonNum(delta.base)
           << " -> " << jsonNum(delta.test) << " (delta "
           << jsonNum(delta.relDelta * 100.0) << "%, band "
           << jsonNum(delta.tolerance * 100.0) << "%)\n";
    }
    os << "perf: " << comparison.identical << " identical, "
       << comparison.withinNoise << " within noise, "
       << comparison.improved << " improved, " << comparison.regressed
       << " regressed, " << comparison.missing << " one-sided\n";
    if (comparison.improved > 0 && comparison.clean()) {
        os << "note: improvements beyond noise — the committed baseline "
              "is stale; re-record it to ratchet the gains\n";
    }
}

} // namespace pes
