#include "scenario/scenario_plan.hh"

#include <algorithm>

#include "util/json.hh"
#include "util/strings.hh"

namespace pes {

std::vector<ScenarioCell>
ScenarioPlan::expand(const FleetConfig &base) const
{
    std::vector<ScenarioCell> cells;
    cells.reserve(severities.size());
    for (const double severity : severities) {
        ScenarioCell cell;
        cell.severity = severity;
        cell.severityTag = jsonNum(severity);
        cell.scenario = scenarioTag(family.name, severity);
        cell.config = base;
        cell.config.scenario = cell.scenario;
        cell.config.resultStore = nullptr;
        cell.config.resume = false;
        // The transform captures the family BY VALUE: a cell config
        // must stay runnable after the plan goes out of scope. It is a
        // pure function of the input trace, so cache re-materialization
        // after eviction reproduces identical bytes.
        const ScenarioFamily family_copy = family;
        const double sev = severity;
        const uint64_t seed = mutatorSeed;
        cell.config.traceTransform =
            [family_copy, sev, seed](const InteractionTrace &trace) {
                return family_copy.derive(trace, sev, seed);
            };
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::optional<ScenarioPlan>
makeScenarioPlan(const ScenarioFamily &family,
                 const std::vector<double> &severities,
                 uint64_t mutator_seed,
                 std::vector<IntegrityProblem> &problems)
{
    const size_t before = problems.size();
    validateScenarioFamily(family, problems);

    const auto bad = [&](const std::string &message) {
        problems.push_back({IntegrityProblem::Kind::Mismatch,
                            "severity grid: " + message});
    };
    std::vector<double> grid = severities;
    if (grid.empty())
        bad("at least one severity is required");
    for (const double s : grid) {
        if (!(s >= 0.0 && s <= 1.0))
            bad("severity " + jsonNum(s) + " outside [0, 1]");
    }
    std::sort(grid.begin(), grid.end());
    for (size_t i = 1; i < grid.size(); ++i) {
        if (grid[i] == grid[i - 1])
            bad("duplicate severity " + jsonNum(grid[i]));
    }
    if (problems.size() != before)
        return std::nullopt;

    ScenarioPlan plan;
    plan.family = family;
    plan.severities = std::move(grid);
    plan.mutatorSeed = mutator_seed;
    return plan;
}

std::vector<double>
parseSeverityList(const std::string &spec,
                  std::vector<IntegrityProblem> &problems)
{
    std::vector<double> severities;
    for (const std::string &raw : split(spec, ',')) {
        const std::string token = trim(raw);
        if (token.empty())
            continue;
        double v = 0.0;
        if (!parseDouble(token, v)) {
            problems.push_back({IntegrityProblem::Kind::Mismatch,
                                "severity grid: bad value '" + token +
                                    "'"});
            continue;
        }
        severities.push_back(v);
    }
    return severities;
}

} // namespace pes
