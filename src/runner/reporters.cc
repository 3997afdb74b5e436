#include "runner/reporters.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "runner/fleet_config.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace pes {

namespace {

/** Shortest round-trippable-enough float formatting (deterministic). */
std::string
num(double v)
{
    return jsonNum(v);
}

double
fieldNum(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v ? v->number() : 0.0;
}

std::string
fieldStr(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v ? v->str : std::string();
}

bool
fillCellNumbers(CellSummary &c, const std::vector<double> &xs)
{
    if (xs.size() != cellMetricNames().size())
        return false;
    size_t i = 0;
    c.sessions = static_cast<int>(xs[i++]);
    c.events = static_cast<long>(xs[i++]);
    c.violations = static_cast<long>(xs[i++]);
    c.violationRate = xs[i++];
    c.meanEnergyMj = xs[i++];
    c.stddevEnergyMj = xs[i++];
    c.minEnergyMj = xs[i++];
    c.maxEnergyMj = xs[i++];
    c.meanBusyEnergyMj = xs[i++];
    c.meanIdleEnergyMj = xs[i++];
    c.meanOverheadEnergyMj = xs[i++];
    c.meanWasteEnergyMj = xs[i++];
    c.meanDurationMs = xs[i++];
    c.meanLatencyMs = xs[i++];
    c.p50LatencyMs = xs[i++];
    c.p95LatencyMs = xs[i++];
    c.p99LatencyMs = xs[i++];
    c.p50SessionLatencyMs = xs[i++];
    c.p95SessionLatencyMs = xs[i++];
    c.maxLatencyMs = xs[i++];
    c.avgQueueLength = xs[i++];
    c.predictionAccuracy = xs[i++];
    c.mispredictsPerSession = xs[i++];
    c.mispredictWasteMsPerSession = xs[i++];
    c.fallbackRate = xs[i++];
    return true;
}

} // namespace

std::string
csvNum(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "Infinity" : "-Infinity";
    return jsonNum(v);
}

const std::vector<std::string> &
cellMetricNames()
{
    /** The cell column order shared by the JSON and CSV schemas. */
    static const std::vector<std::string> kColumns = {
        "sessions", "events", "violations", "violation_rate",
        "mean_energy_mj", "stddev_energy_mj", "min_energy_mj",
        "max_energy_mj", "mean_busy_energy_mj", "mean_idle_energy_mj",
        "mean_overhead_energy_mj", "mean_waste_energy_mj",
        "mean_duration_ms", "mean_latency_ms", "p50_latency_ms",
        "p95_latency_ms", "p99_latency_ms", "p50_session_latency_ms",
        "p95_session_latency_ms", "max_latency_ms", "avg_queue_length",
        "prediction_accuracy", "mispredicts_per_session",
        "mispredict_waste_ms_per_session", "fallback_rate",
    };
    return kColumns;
}

std::vector<double>
cellMetricValues(const CellSummary &c)
{
    return {static_cast<double>(c.sessions), static_cast<double>(c.events),
            static_cast<double>(c.violations), c.violationRate,
            c.meanEnergyMj, c.stddevEnergyMj, c.minEnergyMj, c.maxEnergyMj,
            c.meanBusyEnergyMj, c.meanIdleEnergyMj, c.meanOverheadEnergyMj,
            c.meanWasteEnergyMj, c.meanDurationMs, c.meanLatencyMs,
            c.p50LatencyMs, c.p95LatencyMs, c.p99LatencyMs,
            c.p50SessionLatencyMs, c.p95SessionLatencyMs, c.maxLatencyMs,
            c.avgQueueLength, c.predictionAccuracy,
            c.mispredictsPerSession, c.mispredictWasteMsPerSession,
            c.fallbackRate};
}

FleetReport
makeFleetReport(const FleetConfig &config, const MetricsAggregator &metrics)
{
    FleetReport report;
    report.baseSeed = config.baseSeed;
    report.seedMode =
        config.seedMode == SeedMode::Fleet ? "fleet" : "evaluation";
    report.warmDrivers = config.warmDrivers;
    report.scenario = config.scenario;
    report.population = config.populationTag;
    report.users = config.effectiveUsers();
    report.sessions = metrics.sessions();
    report.events = metrics.events();
    if (config.devices.empty()) {
        report.devices.push_back(AcmpPlatform::exynos5410().name());
    } else {
        for (const AcmpPlatform &d : config.devices)
            report.devices.push_back(d.name());
    }
    for (const AppProfile &p : config.apps)
        report.apps.push_back(p.name);
    for (const SchedulerKind k : config.schedulers)
        report.schedulers.push_back(schedulerKindName(k));
    report.cells = metrics.cells();
    return report;
}

// ------------------------------------------------------------ JSON sink

void
JsonReporter::write(const FleetReport &report, std::ostream &os)
{
    os << "{\n";
    os << "  \"version\": " << FleetReport::kVersion << ",\n";
    os << "  \"meta\": {\n";
    os << "    \"base_seed\": " << report.baseSeed << ",\n";
    os << "    \"seed_mode\": \"" << jsonEscape(report.seedMode) << "\",\n";
    os << "    \"warm\": " << (report.warmDrivers ? 1 : 0) << ",\n";
    os << "    \"scenario\": \"" << jsonEscape(report.scenario)
       << "\",\n";
    os << "    \"population\": \"" << jsonEscape(report.population)
       << "\",\n";
    os << "    \"users\": " << report.users << ",\n";
    os << "    \"sessions\": " << report.sessions << ",\n";
    os << "    \"events\": " << report.events << ",\n";
    os << "    \"devices\": ";
    writeJsonStringArray(os, report.devices);
    os << ",\n    \"apps\": ";
    writeJsonStringArray(os, report.apps);
    os << ",\n    \"schedulers\": ";
    writeJsonStringArray(os, report.schedulers);
    os << "\n  },\n";
    os << "  \"cells\": [";
    for (size_t i = 0; i < report.cells.size(); ++i) {
        const CellSummary &c = report.cells[i];
        os << (i ? ",\n" : "\n");
        os << "    {\"device\": \"" << jsonEscape(c.device)
           << "\", \"app\": \"" << jsonEscape(c.app)
           << "\", \"scheduler\": \"" << jsonEscape(c.scheduler) << "\",\n";
        const std::vector<double> xs = cellMetricValues(c);
        const std::vector<std::string> &cols = cellMetricNames();
        os << "     ";
        for (size_t k = 0; k < xs.size(); ++k) {
            os << (k ? ", " : "") << '"' << cols[k]
               << "\": " << num(xs[k]);
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

std::string
JsonReporter::toString(const FleetReport &report)
{
    std::ostringstream ss;
    write(report, ss);
    return ss.str();
}

std::optional<FleetReport>
JsonReporter::parse(const std::string &text)
{
    const auto parsed = parseJson(text);
    if (!parsed || parsed->kind != JsonValue::Kind::Object)
        return std::nullopt;
    const JsonValue &root = *parsed;

    FleetReport report;
    const JsonValue *meta = root.find("meta");
    const JsonValue *cells = root.find("cells");
    if (!meta || !cells || cells->kind != JsonValue::Kind::Array)
        return std::nullopt;

    if (const JsonValue *v = meta->find("base_seed"))
        report.baseSeed = v->number64();
    report.seedMode = fieldStr(*meta, "seed_mode");
    report.warmDrivers = fieldNum(*meta, "warm") != 0.0;
    report.scenario = fieldStr(*meta, "scenario");
    report.population = fieldStr(*meta, "population");
    report.users = static_cast<int>(fieldNum(*meta, "users"));
    report.sessions = static_cast<int>(fieldNum(*meta, "sessions"));
    report.events = static_cast<long>(fieldNum(*meta, "events"));
    if (const JsonValue *v = meta->find("devices"))
        report.devices = jsonStringArray(*v);
    if (const JsonValue *v = meta->find("apps"))
        report.apps = jsonStringArray(*v);
    if (const JsonValue *v = meta->find("schedulers"))
        report.schedulers = jsonStringArray(*v);

    for (const JsonValue &cv : cells->arr) {
        if (cv.kind != JsonValue::Kind::Object)
            return std::nullopt;
        CellSummary c;
        c.device = fieldStr(cv, "device");
        c.app = fieldStr(cv, "app");
        c.scheduler = fieldStr(cv, "scheduler");
        std::vector<double> xs;
        for (const std::string &col : cellMetricNames())
            xs.push_back(fieldNum(cv, col.c_str()));
        if (!fillCellNumbers(c, xs))
            return std::nullopt;
        report.cells.push_back(std::move(c));
    }
    return report;
}

// ------------------------------------------------------------- CSV sink

void
CsvReporter::write(const FleetReport &report, std::ostream &os)
{
    os << "# pes_fleet report v" << FleetReport::kVersion << "\n";
    os << "# base_seed=" << report.baseSeed
       << " seed_mode=" << report.seedMode
       << " warm=" << (report.warmDrivers ? 1 : 0)
       << " scenario=" << report.scenario
       << " population=" << report.population
       << " users=" << report.users
       << " sessions=" << report.sessions << " events=" << report.events
       << "\n";
    os << "device,app,scheduler";
    for (const std::string &col : cellMetricNames())
        os << ',' << col;
    os << "\n";
    for (const CellSummary &c : report.cells) {
        os << c.device << ',' << c.app << ',' << c.scheduler;
        for (const double x : cellMetricValues(c))
            os << ',' << csvNum(x);
        os << "\n";
    }
}

std::string
CsvReporter::toString(const FleetReport &report)
{
    std::ostringstream ss;
    write(report, ss);
    return ss.str();
}

std::optional<std::vector<CellSummary>>
CsvReporter::parse(const std::string &text)
{
    std::vector<CellSummary> cells;
    bool seen_header = false;
    for (const std::string &line : split(text, '\n')) {
        const std::string row = trim(line);
        if (row.empty() || row[0] == '#')
            continue;
        if (!seen_header) {
            // Column-name row.
            if (!startsWith(row, "device,"))
                return std::nullopt;
            seen_header = true;
            continue;
        }
        const std::vector<std::string> fields = split(row, ',');
        if (fields.size() < 4)
            return std::nullopt;
        CellSummary c;
        c.device = fields[0];
        c.app = fields[1];
        c.scheduler = fields[2];
        std::vector<double> xs;
        for (size_t i = 3; i < fields.size(); ++i)
            xs.push_back(std::strtod(fields[i].c_str(), nullptr));
        if (!fillCellNumbers(c, xs))
            return std::nullopt;
        cells.push_back(std::move(c));
    }
    if (!seen_header)
        return std::nullopt;
    return cells;
}

std::optional<FleetReport>
CsvReporter::parseReport(const std::string &text)
{
    auto cells = parse(text);
    if (!cells)
        return std::nullopt;

    FleetReport report;
    bool seen_meta = false;
    for (const std::string &line : split(text, '\n')) {
        const std::string row = trim(line);
        if (row.empty() || row[0] != '#')
            continue;
        // The meta comment is the '#' line carrying key=value tokens.
        for (const std::string &token : split(row.substr(1), ' ')) {
            const size_t eq = token.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            long long n = 0;
            if (key == "base_seed") {
                uint64_t seed = 0;
                if (!parseUint64(value, seed))
                    return std::nullopt;
                report.baseSeed = seed;
                seen_meta = true;
            } else if (key == "seed_mode") {
                report.seedMode = value;
            } else if (key == "warm" && parseInt64(value, n)) {
                report.warmDrivers = n != 0;
            } else if (key == "scenario") {
                report.scenario = value;
            } else if (key == "population") {
                report.population = value;
            } else if (key == "users" && parseInt64(value, n)) {
                report.users = static_cast<int>(n);
            } else if (key == "sessions" && parseInt64(value, n)) {
                report.sessions = static_cast<int>(n);
            } else if (key == "events" && parseInt64(value, n)) {
                report.events = static_cast<long>(n);
            }
        }
    }
    if (!seen_meta)
        return std::nullopt;

    // CSV rows carry no axis lists; reconstruct them in first-seen
    // order (write() emits cells sorted by key, so identical sweeps
    // reconstruct identical axes).
    const auto note = [](std::vector<std::string> &axis,
                         const std::string &value) {
        for (const std::string &x : axis)
            if (x == value)
                return;
        axis.push_back(value);
    };
    for (const CellSummary &c : *cells) {
        note(report.devices, c.device);
        note(report.apps, c.app);
        note(report.schedulers, c.scheduler);
    }
    report.cells = std::move(*cells);
    return report;
}

void
writeReportFiles(const FleetReport &report, const std::string &json_path,
                 const std::string &csv_path, std::ostream &log)
{
    if (!json_path.empty()) {
        std::ofstream os(json_path);
        fatal_if(!os, "cannot open '%s'", json_path.c_str());
        JsonReporter::write(report, os);
        log << "[json: " << json_path << "]\n";
    }
    if (!csv_path.empty()) {
        std::ofstream os(csv_path);
        fatal_if(!os, "cannot open '%s'", csv_path.c_str());
        CsvReporter::write(report, os);
        log << "[csv: " << csv_path << "]\n";
    }
}

void
printCellTable(const FleetReport &report, std::ostream &os)
{
    Table table({"device", "app", "scheduler", "sessions", "viol%",
                 "energy(mJ)", "waste(mJ)", "lat(ms)", "p95(ms)",
                 "pred%"});
    for (const CellSummary &c : report.cells) {
        table.beginRow()
            .cell(c.device)
            .cell(c.app)
            .cell(c.scheduler)
            .cell(static_cast<long>(c.sessions))
            .cell(c.violationRate * 100.0, 2)
            .cell(c.meanEnergyMj, 1)
            .cell(c.meanWasteEnergyMj, 1)
            .cell(c.meanLatencyMs, 2)
            .cell(c.p95SessionLatencyMs, 2)
            .cell(c.predictionAccuracy * 100.0, 1);
    }
    table.print(os);
}

} // namespace pes
