#include "telemetry/run_telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/json.hh"

namespace pes {

namespace {

/** Trailing-zero-trimmed bucket list (keeps documents compact). */
size_t
usedBuckets(const DurationStats &d)
{
    size_t used = DurationStats::kBuckets;
    while (used > 0 && d.buckets[used - 1] == 0)
        --used;
    return used;
}

double
fieldNum(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v ? v->number() : 0.0;
}

uint64_t
fieldU64(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v ? v->number64() : 0;
}

std::string
fieldStr(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::String ? v->str
                                                   : std::string();
}

} // namespace

void
RunTelemetry::setSnapshot(TelemetrySnapshot snap)
{
    snapshot = std::move(snap);
    const auto ms = [this](const char *us_counter) {
        return static_cast<double>(snapshot.counter(us_counter)) / 1000.0;
    };
    poolBusyMs = ms("pool.busy_us");
    poolIdleMs = ms("pool.idle_us");
    cacheHits = snapshot.counter("cache.hits");
    cacheMisses = snapshot.counter("cache.misses");
    cacheDuplicateSynthesis = snapshot.counter("cache.duplicate_synthesis");
    cacheLockWaits = snapshot.counter("cache.lock_waits");
    persistLockWaits = snapshot.counter("store.push_lock_waits");
    checkpointFlushes = snapshot.counter("store.checkpoint_flushes");
    checkpointBytes = snapshot.counter("store.checkpoint_bytes");
}

void
RunTelemetry::recomputeRates()
{
    const double secs = executeMs / 1000.0;
    sessionsPerSec = secs > 0.0 ? static_cast<double>(sessions) / secs
                                : 0.0;
    eventsPerSec = secs > 0.0 ? static_cast<double>(events) / secs : 0.0;
}

void
writeRunTelemetryJson(const RunTelemetry &t, std::ostream &os)
{
    os << "{\n"
       << "  \"telemetry_version\": " << RunTelemetry::kVersion << ",\n"
       << "  \"tool\": \"" << jsonEscape(t.tool) << "\",\n"
       << "  \"scenario\": \"" << jsonEscape(t.scenario) << "\",\n"
       << "  \"logical_clock\": " << (t.logicalClock ? 1 : 0) << ",\n"
       << "  \"threads\": " << t.threads << ",\n"
       << "  \"sessions\": " << t.sessions << ",\n"
       << "  \"events\": " << t.events << ",\n"
       << "  \"sessions_per_sec\": " << jsonNum(t.sessionsPerSec)
       << ",\n"
       << "  \"events_per_sec\": " << jsonNum(t.eventsPerSec) << ",\n"
       << "  \"stage_ms\": {\"plan\": " << jsonNum(t.planMs)
       << ", \"setup\": " << jsonNum(t.setupMs)
       << ", \"execute\": " << jsonNum(t.executeMs)
       << ", \"persist\": " << jsonNum(t.persistMs)
       << ", \"reduce\": " << jsonNum(t.reduceMs)
       << ", \"total\": " << jsonNum(t.totalMs) << "},\n";

    os << "  \"counters\": [";
    for (size_t i = 0; i < t.snapshot.counters.size(); ++i) {
        os << (i ? "," : "") << "\n    {\"name\": \""
           << jsonEscape(t.snapshot.counters[i].first)
           << "\", \"value\": " << t.snapshot.counters[i].second << "}";
    }
    os << (t.snapshot.counters.empty() ? "" : "\n  ") << "],\n";

    os << "  \"gauges\": [";
    for (size_t i = 0; i < t.snapshot.gauges.size(); ++i) {
        os << (i ? "," : "") << "\n    {\"name\": \""
           << jsonEscape(t.snapshot.gauges[i].first)
           << "\", \"value\": " << jsonNum(t.snapshot.gauges[i].second)
           << "}";
    }
    os << (t.snapshot.gauges.empty() ? "" : "\n  ") << "],\n";

    os << "  \"durations\": [";
    for (size_t i = 0; i < t.snapshot.durations.size(); ++i) {
        const DurationStats &d = t.snapshot.durations[i].second;
        os << (i ? "," : "") << "\n    {\"name\": \""
           << jsonEscape(t.snapshot.durations[i].first)
           << "\", \"count\": " << d.count << ", \"sum_ms\": "
           << jsonNum(d.sumMs) << ", \"min_ms\": " << jsonNum(d.minMs)
           << ", \"max_ms\": " << jsonNum(d.maxMs) << ", \"buckets\": [";
        const size_t used = usedBuckets(d);
        for (size_t b = 0; b < used; ++b)
            os << (b ? ", " : "") << d.buckets[b];
        os << "]}";
    }
    os << (t.snapshot.durations.empty() ? "" : "\n  ") << "]\n"
       << "}\n";
}

std::string
runTelemetryToString(const RunTelemetry &t)
{
    std::ostringstream os;
    writeRunTelemetryJson(t, os);
    return os.str();
}

std::optional<RunTelemetry>
parseRunTelemetry(const std::string &text)
{
    const auto doc = parseJson(text);
    if (!doc || doc->kind != JsonValue::Kind::Object)
        return std::nullopt;
    if (fieldNum(*doc, "telemetry_version") != RunTelemetry::kVersion)
        return std::nullopt;

    RunTelemetry t;
    t.tool = fieldStr(*doc, "tool");
    t.scenario = fieldStr(*doc, "scenario");
    t.logicalClock = fieldNum(*doc, "logical_clock") != 0.0;
    t.threads = static_cast<int>(fieldNum(*doc, "threads"));
    t.sessions = fieldU64(*doc, "sessions");
    t.events = fieldU64(*doc, "events");
    t.sessionsPerSec = fieldNum(*doc, "sessions_per_sec");
    t.eventsPerSec = fieldNum(*doc, "events_per_sec");

    if (const JsonValue *stage = doc->find("stage_ms")) {
        t.planMs = fieldNum(*stage, "plan");
        t.setupMs = fieldNum(*stage, "setup");
        t.executeMs = fieldNum(*stage, "execute");
        t.persistMs = fieldNum(*stage, "persist");
        t.reduceMs = fieldNum(*stage, "reduce");
        t.totalMs = fieldNum(*stage, "total");
    }

    TelemetrySnapshot snap;
    if (const JsonValue *counters = doc->find("counters")) {
        for (const JsonValue &row : counters->arr)
            snap.counters.emplace_back(fieldStr(row, "name"),
                                       fieldU64(row, "value"));
    }
    if (const JsonValue *gauges = doc->find("gauges")) {
        for (const JsonValue &row : gauges->arr)
            snap.gauges.emplace_back(fieldStr(row, "name"),
                                     fieldNum(row, "value"));
    }
    if (const JsonValue *durations = doc->find("durations")) {
        for (const JsonValue &row : durations->arr) {
            DurationStats d;
            d.count = fieldU64(row, "count");
            d.sumMs = fieldNum(row, "sum_ms");
            d.minMs = fieldNum(row, "min_ms");
            d.maxMs = fieldNum(row, "max_ms");
            if (const JsonValue *buckets = row.find("buckets")) {
                const size_t n =
                    std::min(buckets->arr.size(),
                             static_cast<size_t>(DurationStats::kBuckets));
                for (size_t b = 0; b < n; ++b)
                    d.buckets[b] = buckets->arr[b].number64();
            }
            snap.durations.emplace_back(fieldStr(row, "name"), d);
        }
    }
    t.setSnapshot(std::move(snap));
    return t;
}

namespace {

// Folds ingest parts parsed from JSON, where a non-finite value
// round-trips as quoted "NaN"/"Infinity".  One poisoned part must not
// poison the whole rollup (perf-ledger samples and pes_perf noise
// bands consume folded means), so sums skip non-finite contributions.
void
addFinite(double &into, double part)
{
    if (std::isfinite(part))
        into += part;
}

} // namespace

void
foldRunTelemetry(RunTelemetry &into, const RunTelemetry &part)
{
    if (into.sessions == 0 && into.events == 0) {
        into.tool = part.tool;
        into.threads = part.threads;
        into.logicalClock = part.logicalClock;
    }
    into.sessions += part.sessions;
    into.events += part.events;
    addFinite(into.planMs, part.planMs);
    addFinite(into.setupMs, part.setupMs);
    addFinite(into.executeMs, part.executeMs);
    addFinite(into.persistMs, part.persistMs);
    addFinite(into.reduceMs, part.reduceMs);
    addFinite(into.totalMs, part.totalMs);
    TelemetrySnapshot merged = std::move(into.snapshot);
    merged.merge(part.snapshot);
    into.setSnapshot(std::move(merged));
    into.recomputeRates();
}

uint64_t
currentPeakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    uint64_t kb = 0;
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            unsigned long long parsed = 0;
            if (std::sscanf(line + 6, "%llu", &parsed) == 1)
                kb = parsed;
            break;
        }
    }
    std::fclose(f);
    return kb;
}

} // namespace pes
