/**
 * @file
 * The perf-history ledger: speed, historied and gated like bytes.
 *
 * Report bytes have been gated since PR 4 (pes_fleet diff); this module
 * gives wall-clock the same treatment. A history file is append-only
 * JSONL — one self-describing PerfSample per line, carrying the git
 * revision, a machine fingerprint, a workload-config digest, and the
 * replicated measurements (per thread count, metric name -> one value
 * per replicate). Replication is what makes gating honest: per-metric
 * noise is estimated from the replicate spread (coefficient of
 * variation), and the comparison classifies each metric with the PR 4
 * vocabulary — Identical / WithinTolerance (within noise) / Improved /
 * Regressed — under a band of `sigmas x CV` instead of a guessed
 * constant.
 *
 * Exit-code contract (pes_perf gate, CI-gateable, mirrors diff):
 *   0            within noise (Improved passes too — it is a stale
 *                baseline, reported as a note, never a failure)
 *   kExitDrift   (2) any gated metric Regressed
 *   kExitMissing (3) history file absent or empty
 *   kExitCorrupt (4) history corrupt (bad magic / truncation /
 *                version skew) or fingerprint/config mismatch
 *
 * Samples also carry a `quality` table (scheduler headline metrics:
 * violation rate, energy, p95 latency, prediction accuracy) so one
 * ledger charts speed and quality trajectories side by side
 * (`pes_perf report`). Quality values are byte-deterministic, so their
 * noise band is exact unless a calibrated ToleranceSpec widens it.
 *
 * Loading NEVER crashes on a damaged ledger: every bad line becomes a
 * classified IntegrityProblem (the util/integrity vocabulary) and the
 * good lines still load.
 */

#ifndef PES_TELEMETRY_PERF_HISTORY_HH
#define PES_TELEMETRY_PERF_HISTORY_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "results/report_diff.hh"
#include "results/tolerance.hh"
#include "util/integrity.hh"

namespace pes {

/** One thread count's replicated measurements. */
struct PerfPoint
{
    int threads = 0;
    /** Metric name -> one value per replicate (name-sorted). */
    std::vector<std::pair<std::string, std::vector<double>>> metrics;

    /** The replicate values of @p name; nullptr when absent. */
    const std::vector<double> *find(const std::string &name) const;

    /** Insert or replace @p name's replicate values (keeps sorting). */
    void set(const std::string &name, std::vector<double> values);
};

/** One ledger entry: a replicated measurement of one build. */
struct PerfSample
{
    /** Line-format version; doubles as the magic — a line without
     *  "perf_version" is not a perf sample at all. */
    static constexpr int kVersion = 1;

    /** Git revision that produced the numbers ("unknown" outside CI). */
    std::string rev = "unknown";
    /** Machine fingerprint (see machineFingerprint()); samples from
     *  different machines never gate against each other. */
    std::string machine;
    /** Workload identity digest (see perfDigest()); a changed workload
     *  is a different experiment, not a regression. */
    std::string config;
    /** Ledger series name (e.g. "sim_pes"). */
    std::string label;

    uint64_t sessions = 0;
    uint64_t events = 0;

    /** Thread-count points, threads ascending. */
    std::vector<PerfPoint> points;

    /** Deterministic quality headline metrics, name-sorted
     *  ("<scheduler>.<metric>", e.g. "ebs.violation_rate"). */
    std::vector<std::pair<std::string, double>> quality;

    /** Replicates recorded (longest metric vector; 0 when empty). */
    int replicates() const;

    /** The point for @p threads; nullptr when absent. */
    const PerfPoint *point(int threads) const;
};

struct RunTelemetry;

/** "sysname-machine-Ncpu" of the running host (uname + thread count). */
std::string machineFingerprint();

/** The point metrics one RunTelemetry replicate contributes to a
 *  sample — the single source of the telemetry -> ledger mapping
 *  (`pes_perf record` uses it). */
std::vector<std::pair<std::string, double>>
perfPointMetrics(const RunTelemetry &t);

/** Derive per-replicate parallel efficiency — rate_i / (threads x mean
 *  t1 rate) — into every point of @p sample. No-op without a t1
 *  sessions_per_sec anchor (efficiency is meaningless unanchored). */
void derivePerfParallelEfficiency(PerfSample &sample);

/** The workload-identity digest of a measurement (PerfSample::config):
 *  label + population size + measured thread counts + scenario. */
std::string perfConfigIdentity(const std::string &label,
                               uint64_t sessions, uint64_t events,
                               const std::vector<int> &threads,
                               const std::string &scenario);

/** Short stable content digest ("cfg-<16 hex>") for config identity. */
std::string perfDigest(const std::string &text);

/** Serialize one sample as a single JSONL line (no interior newline,
 *  trailing '\n' included, deterministic key order). */
std::string perfSampleToJsonLine(const PerfSample &sample);

/** Parse one JSONL line. On failure returns nullopt and classifies the
 *  reason into @p problem (nullable): Corrupt for bad magic/truncation,
 *  Mismatch for version skew. */
std::optional<PerfSample>
parsePerfSampleLine(const std::string &line, IntegrityProblem *problem);

/** A loaded ledger: every good sample plus every classified problem. */
struct PerfHistory
{
    std::vector<PerfSample> samples;
    std::vector<IntegrityProblem> problems;

    /** Last sample, optionally restricted to @p label (empty = any);
     *  nullptr when none match. */
    const PerfSample *latest(const std::string &label = "") const;
};

/** Load @p path. Missing file -> one MissingFile problem; damaged
 *  lines -> Corrupt/Mismatch problems; never throws. */
PerfHistory loadPerfHistory(const std::string &path);

/** Append one sample line to @p path (creating it). */
bool appendPerfSample(const std::string &path, const PerfSample &sample,
                      std::string *error);

/** Replicate-spread noise of one metric. */
struct PerfNoise
{
    double mean = 0.0;
    double stddev = 0.0;
    /** Coefficient of variation: stddev / |mean| (0 when mean is 0). */
    double cv = 0.0;
};

/** Noise estimate over @p values (exactly the CV hand-math). */
PerfNoise perfNoise(const std::vector<double> &values);

/**
 * Flatten a sample into qualified series: "t<threads>.<metric>" for
 * every point metric (replicate vector) and "quality.<name>" for every
 * quality metric (single-element vector). Deterministic order: points
 * by threads, metrics name-sorted, quality last.
 */
std::vector<std::pair<std::string, std::vector<double>>>
flattenPerfSample(const PerfSample &sample);

/** Direction of a qualified perf metric ("t4.sessions_per_sec",
 *  "quality.ebs.violation_rate"). Rates/efficiency/accuracy are
 *  HigherIsBetter; times/waits/misses LowerIsBetter; counts that define
 *  the workload shape Structural. */
MetricDirection perfMetricDirection(const std::string &qualified);

/** Whether a qualified metric gates by default. Throughput rates,
 *  parallel efficiency and quality gate; scheduling-jittery
 *  attribution counters (lock waits, stage times, cache traffic) are
 *  advisory — recorded and compared, never failing the gate unless
 *  explicitly selected. */
bool perfMetricGatedByDefault(const std::string &qualified);

/** Comparison knobs. */
struct PerfCompareOptions
{
    /** Band width: tolerance = max(minRel, sigmas x CV). */
    double sigmas = 3.0;
    /** Relative floor — a handful of replicates underestimates CV. */
    double minRel = 0.02;
    /** Absolute floor for near-zero metrics. */
    double absTolerance = 1e-9;
    /** Band for deterministic quality metrics (exact-ish by default). */
    double qualityRel = 1e-9;
    /** Gate only these qualified metrics (empty = the default gated
     *  set); explicitly selected metrics always gate. */
    std::vector<std::string> metrics;
    /** Calibrated per-metric bands; looked up by qualified name first,
     *  then with the "t<threads>."/"quality.<scheduler>." qualifier
     *  stripped, so `pes_fleet diff --calibrate` output applies. */
    const ToleranceSpec *tolerance = nullptr;
};

/** One metric's comparison across two samples (means compared). */
struct PerfMetricDelta
{
    std::string name;
    double base = 0.0;
    double test = 0.0;
    /** |test - base| / |base| (0 when base == 0). */
    double relDelta = 0.0;
    /** The relative band actually applied. */
    double tolerance = 0.0;
    /** Whether this metric can fail the gate. */
    bool gated = false;
    DiffOutcome outcome = DiffOutcome::Identical;
};

/** Outcome of comparing a candidate sample against a baseline. */
struct PerfComparison
{
    /** False on fingerprint/config/label mismatch (see problems). */
    bool comparable = true;
    std::vector<IntegrityProblem> problems;

    /** Every compared metric in flatten order. */
    std::vector<PerfMetricDelta> deltas;

    int identical = 0;
    int withinNoise = 0;
    int improved = 0;
    int regressed = 0;
    /** Metrics present on one side only (notes, never failures). */
    int missing = 0;

    /** Gated regressions only — improvements pass (stale baseline). */
    bool clean() const;
};

/** Compare @p test against the @p base baseline. Never fails — an
 *  incomparable pair returns comparable == false with problems. */
PerfComparison comparePerfSamples(const PerfSample &base,
                                  const PerfSample &test,
                                  const PerfCompareOptions &options);

/** The CI-gateable exit code (see file header). */
int perfGateExitCode(const PerfComparison &comparison);

/** Human summary: one row per non-Identical metric plus totals;
 *  "REGRESSED <name>" lines are DRIFT-style greppable. */
void printPerfComparison(const PerfComparison &comparison,
                         std::ostream &os);

} // namespace pes

#endif // PES_TELEMETRY_PERF_HISTORY_HH
