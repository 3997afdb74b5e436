/**
 * @file
 * Serialization sinks for fleet results.
 *
 * A FleetReport is the serializable view of one fleet run: the sweep
 * axes plus the per-cell summaries. JsonReporter and CsvReporter write
 * it; both can parse their own output back (used by tests and by
 * downstream tooling that post-processes sweeps). Output is fully
 * deterministic — no timestamps, hostnames, or wall-clock values ever
 * enter a report, so two runs of the same fleet are byte-identical
 * regardless of thread count or machine.
 */

#ifndef PES_RUNNER_REPORTERS_HH
#define PES_RUNNER_REPORTERS_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "runner/metrics_aggregator.hh"

namespace pes {

struct FleetConfig;

/** Serializable view of one fleet run. */
struct FleetReport
{
    /** Report-format version (bumped on schema changes).
     *  v2: added the "warm" meta flag (driver mode is part of a run's
     *  identity — diffing a warm sweep against a fresh one is
     *  meaningless, so reports must carry it for alignment).
     *  v3: added the "scenario" meta string (stress-family identity,
     *  "<family>@<severity>"; empty for baseline sweeps) — severity
     *  cells of a scenario sweep are different user populations and
     *  must never silently diff against each other or the baseline.
     *  v4: added the "population" meta tag ("<name>#<digest>", empty
     *  for homogeneous sweeps) and the sketch-sourced event-level
     *  p50/p95/p99_latency_ms cell columns. */
    static constexpr int kVersion = 4;

    uint64_t baseSeed = 0;
    /** "fleet" or "evaluation" (see SeedMode). */
    std::string seedMode = "fleet";
    /** Warm per-cell drivers (FleetConfig::warmDrivers). */
    bool warmDrivers = false;
    /** Scenario identity (FleetConfig::scenario; empty = baseline). */
    std::string scenario;
    /** Population identity tag (FleetConfig::populationTag,
     *  "<name>#<digest>"; empty = homogeneous i.i.d. users). */
    std::string population;
    int users = 0;
    int sessions = 0;
    long events = 0;
    std::vector<std::string> devices;
    std::vector<std::string> apps;
    std::vector<std::string> schedulers;
    std::vector<CellSummary> cells;
};

/**
 * The per-cell metric schema shared by the JSON and CSV sinks: JSON key
 * == CSV column == diffable metric name. Exposed so tooling that walks
 * cell metrics generically (report diffing, post-processors) can never
 * drift from the serialized schema.
 */
const std::vector<std::string> &cellMetricNames();

/** The metric values of @p c, in cellMetricNames() order. */
std::vector<double> cellMetricValues(const CellSummary &c);

/**
 * CSV/plain-text spelling of a metric value: finite values share the
 * JSON formatting, non-finite values are the bare strtod-parseable
 * tokens NaN / Infinity / -Infinity (no JSON quoting). Use for any
 * human-readable or CSV sink.
 */
std::string csvNum(double v);

/** Assemble a report from a finished aggregation. */
FleetReport makeFleetReport(const FleetConfig &config,
                            const MetricsAggregator &metrics);

/**
 * Write @p report as JSON to @p json_path and as CSV to @p csv_path
 * (each skipped when empty), noting each file written on @p log;
 * fatal() when a file cannot be opened. The tools' one report writer.
 */
void writeReportFiles(const FleetReport &report,
                      const std::string &json_path,
                      const std::string &csv_path, std::ostream &log);

/** Print the human summary of @p report: one table row per cell. */
void printCellTable(const FleetReport &report, std::ostream &os);

/**
 * JSON sink: one object with a "meta" header and a "cells" array.
 */
class JsonReporter
{
  public:
    /** Write @p report as JSON. */
    static void write(const FleetReport &report, std::ostream &os);

    /** Serialize to a string. */
    static std::string toString(const FleetReport &report);

    /**
     * Parse a report previously produced by write(); nullopt on
     * malformed input. Understands exactly this reporter's schema, not
     * arbitrary JSON.
     */
    static std::optional<FleetReport> parse(const std::string &text);
};

/**
 * CSV sink: one row per cell (meta header carried as '#' comments).
 */
class CsvReporter
{
  public:
    /** Write @p report as CSV. */
    static void write(const FleetReport &report, std::ostream &os);

    /** Serialize to a string. */
    static std::string toString(const FleetReport &report);

    /** Parse the cell rows of a CSV produced by write(). */
    static std::optional<std::vector<CellSummary>>
    parse(const std::string &text);

    /**
     * Parse a full report from a CSV produced by write(): the meta
     * comment line plus the cell rows. CSV carries no explicit axis
     * lists, so devices/apps/schedulers are reconstructed in first-seen
     * cell order (cells are written sorted by key, so two CSVs of the
     * same sweep reconstruct identical axes). nullopt on malformed
     * input.
     */
    static std::optional<FleetReport> parseReport(const std::string &text);
};

} // namespace pes

#endif // PES_RUNNER_REPORTERS_HH
