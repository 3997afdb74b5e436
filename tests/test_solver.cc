/**
 * @file
 * Tests for the solver substrate: simplex LP, branch-and-bound ILP, and
 * the specialized Pareto-DP schedule solver — including the property
 * suite asserting DP/ILP agreement on randomized Eqn.-5 instances and the
 * real-size exactness gate (C = 17 with switch costs) against brute
 * force and an unbounded, uncapped reference DP.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/optimizer.hh"
#include "hw/acmp.hh"
#include "hw/dvfs_model.hh"
#include "hw/power_model.hh"
#include "solver/ilp.hh"
#include "solver/lp.hh"
#include "solver/schedule_problem.hh"
#include "trace/app_profile.hh"
#include "trace/generator.hh"
#include "util/rng.hh"
#include "web/event_types.hh"
#include "web/vsync.hh"

namespace pes {
namespace {

// ---------------------------------------------------------------- LP

TEST(Simplex, TextbookMaximization)
{
    // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at
    // (2, 6).
    LinearProgram lp(2);
    lp.setObjective({3.0, 5.0});
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 4.0);
    lp.addConstraint({0.0, 2.0}, Relation::LessEqual, 12.0);
    lp.addConstraint({3.0, 2.0}, Relation::LessEqual, 18.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, 36.0, 1e-9);
    EXPECT_NEAR(result.x[0], 2.0, 1e-9);
    EXPECT_NEAR(result.x[1], 6.0, 1e-9);
}

TEST(Simplex, EqualityConstraint)
{
    // max x + y st x + y = 5, x <= 3 -> 5, e.g. x=3,y=2.
    LinearProgram lp(2);
    lp.setObjective({1.0, 1.0});
    lp.addConstraint({1.0, 1.0}, Relation::Equal, 5.0);
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 3.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, 5.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraint)
{
    // max -x st x >= 2 (i.e. min x) -> objective -2.
    LinearProgram lp(1);
    lp.setObjective({-1.0});
    lp.addConstraint({1.0}, Relation::GreaterEqual, 2.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, -2.0, 1e-9);
    EXPECT_NEAR(result.x[0], 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible)
{
    LinearProgram lp(1);
    lp.setObjective({1.0});
    lp.addConstraint({1.0}, Relation::LessEqual, 1.0);
    lp.addConstraint({1.0}, Relation::GreaterEqual, 2.0);
    EXPECT_EQ(lp.solve().status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    LinearProgram lp(1);
    lp.setObjective({1.0});
    lp.addConstraint({-1.0}, Relation::LessEqual, 0.0);  // x >= 0 only
    EXPECT_EQ(lp.solve().status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization)
{
    // x <= -1 written as -x >= 1: feasible at x ... wait, with x >= 0
    // the row x <= -1 is infeasible; the solver must see that.
    LinearProgram lp(1);
    lp.setObjective({1.0});
    lp.addConstraint({1.0}, Relation::LessEqual, -1.0);
    EXPECT_EQ(lp.solve().status, LpStatus::Infeasible);
}

TEST(Simplex, DegenerateInstanceTerminates)
{
    // Classic degenerate corner; Bland's rule must not cycle.
    LinearProgram lp(2);
    lp.setObjective({1.0, 1.0});
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 1.0);
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 1.0);
    lp.addConstraint({0.0, 1.0}, Relation::LessEqual, 1.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, 2.0, 1e-9);
}

// ---------------------------------------------------------------- ILP

TEST(Ilp, BinaryKnapsackByConstraints)
{
    // min -(values) st weights <= 5: items (v=6,w=4),(v=5,w=3),(v=5,w=2)
    // -> best = items 2+3 (v=10).
    IntegerProgram ilp(3);
    ilp.setObjective({-6.0, -5.0, -5.0});
    ilp.addConstraint({4.0, 3.0, 2.0}, Relation::LessEqual, 5.0);
    const IlpResult result = ilp.solve();
    ASSERT_EQ(result.status, IlpStatus::Optimal);
    EXPECT_NEAR(result.objective, -10.0, 1e-9);
    EXPECT_EQ(result.x[0], 0);
    EXPECT_EQ(result.x[1], 1);
    EXPECT_EQ(result.x[2], 1);
}

TEST(Ilp, AssignmentConstraint)
{
    // Exactly one of three options, minimize cost -> picks cheapest.
    IntegerProgram ilp(3);
    ilp.setObjective({5.0, 2.0, 9.0});
    ilp.addConstraint({1.0, 1.0, 1.0}, Relation::Equal, 1.0);
    const IlpResult result = ilp.solve();
    ASSERT_EQ(result.status, IlpStatus::Optimal);
    EXPECT_NEAR(result.objective, 2.0, 1e-9);
    EXPECT_EQ(result.x[1], 1);
}

TEST(Ilp, InfeasibleDetected)
{
    IntegerProgram ilp(2);
    ilp.setObjective({1.0, 1.0});
    ilp.addConstraint({1.0, 1.0}, Relation::GreaterEqual, 3.0);  // > 2
    EXPECT_EQ(ilp.solve().status, IlpStatus::Infeasible);
}

TEST(Ilp, FractionalRelaxationRequiresBranching)
{
    // LP relaxation is fractional; the ILP must still find the integral
    // optimum. min x1+x2 st 2x1+2x2 >= 3 -> LP 1.5, ILP 2.
    IntegerProgram ilp(2);
    ilp.setObjective({1.0, 1.0});
    ilp.addConstraint({2.0, 2.0}, Relation::GreaterEqual, 3.0);
    const IlpResult result = ilp.solve();
    ASSERT_EQ(result.status, IlpStatus::Optimal);
    EXPECT_NEAR(result.objective, 2.0, 1e-9);
    EXPECT_GT(result.nodesExplored, 1);
}

// ------------------------------------------------------------ ParetoDP

/** Build a simple two-config problem for hand-checks. */
ScheduleProblem
twoConfigProblem()
{
    // Config 0: slow and cheap (10 ms, 1 mJ); config 1: fast and costly
    // (2 ms, 5 mJ).
    ScheduleProblem problem;
    for (int i = 0; i < 3; ++i) {
        ScheduleEvent ev;
        ev.latency = {10.0, 2.0};
        ev.energy = {1.0, 5.0};
        ev.deadline = 1e9;
        problem.events.push_back(ev);
    }
    return problem;
}

TEST(ParetoDp, PicksCheapWhenDeadlinesLoose)
{
    const ScheduleProblem problem = twoConfigProblem();
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.configOf, (std::vector<int>{0, 0, 0}));
    EXPECT_NEAR(sol.totalEnergy, 3.0, 1e-9);
    EXPECT_NEAR(sol.finishTime.back(), 30.0, 1e-9);
}

TEST(ParetoDp, UsesFastConfigToMeetTightDeadline)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.events[1].deadline = 13.0;  // slow+slow = 20 > 13
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    // One of the first two events must be fast; the cheapest way is one
    // fast + one slow (12 ms <= 13), then slow.
    EXPECT_NEAR(sol.totalEnergy, 7.0, 1e-9);
    EXPECT_LE(sol.finishTime[1], 13.0 + 1e-9);
}

TEST(ParetoDp, LexicographicTardinessWhenInfeasible)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.events[0].deadline = 1.0;  // unmeetable (fastest is 2 ms)
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    EXPECT_FALSE(sol.feasible);
    // Minimum possible tardiness = 2 - 1 = 1 (run event 0 fast).
    EXPECT_NEAR(sol.totalTardiness, 1.0, 1e-9);
    EXPECT_EQ(sol.configOf[0], 1);
}

TEST(ParetoDp, SwitchCostsCharged)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.events.resize(2);
    problem.switchCost = {{0.0, 1.0}, {1.0, 0.0}};
    problem.initialConfig = 0;
    problem.events[0].deadline = 1e9;
    problem.events[1].deadline = 1e9;
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    // All-slow from initial 0: no switches, finish 20.
    EXPECT_EQ(sol.configOf, (std::vector<int>{0, 0}));
    EXPECT_NEAR(sol.finishTime.back(), 20.0, 1e-9);
}

TEST(ParetoDp, SwitchCostCanMakeStayingCheaperFeasible)
{
    // Deadline forces event 0 fast; event 1 can then be slow but pays a
    // switch back. The DP must account for both transitions.
    ScheduleProblem problem = twoConfigProblem();
    problem.events.resize(2);
    problem.switchCost = {{0.0, 3.0}, {3.0, 0.0}};
    problem.initialConfig = 1;
    problem.events[0].deadline = 2.5;   // fast only (no switch from 1)
    problem.events[1].deadline = 16.0;
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.configOf[0], 1);
    // Slow for event 1: 2 + 3 (switch) + 10 = 15 <= 16 -> feasible and
    // cheaper.
    EXPECT_EQ(sol.configOf[1], 0);
}

TEST(ParetoDp, EmptyProblemIsTriviallyFeasible)
{
    const ScheduleSolution sol = ParetoDpSolver().solve(ScheduleProblem{});
    EXPECT_TRUE(sol.feasible);
    EXPECT_EQ(sol.totalEnergy, 0.0);
}

TEST(ParetoDp, LongChainStaysFast)
{
    // 80 events x 17 configs must solve in well under a second (the
    // regression that once hung the oracle).
    Rng rng(77);
    ScheduleProblem problem;
    for (int i = 0; i < 80; ++i) {
        ScheduleEvent ev;
        for (int j = 0; j < 17; ++j) {
            const double lat = rng.uniform(1.0, 50.0);
            ev.latency.push_back(lat);
            ev.energy.push_back(lat * rng.uniform(0.1, 3.0));
        }
        ev.deadline = 40.0 * (i + 1);
        problem.events.push_back(ev);
    }
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    EXPECT_EQ(sol.configOf.size(), 80u);
    // The bounds keep every bucket under the cap: the answer is exact.
    EXPECT_EQ(sol.thinnedPrunes, 0);
}

TEST(ParetoDp, ExactTieFollowsDocumentedOrder)
{
    // Two identical events, each fast (1 ms, 2 mJ) or slow (2 ms, 1 mJ);
    // event 1 must finish by 3 ms. Fast-then-slow and slow-then-fast
    // tie exactly: finish 3 ms, 3 mJ.
    ScheduleProblem problem;
    for (int i = 0; i < 2; ++i) {
        ScheduleEvent ev;
        ev.latency = {1.0, 2.0};
        ev.energy = {2.0, 1.0};
        ev.deadline = i == 0 ? 10.0 : 3.0;
        problem.events.push_back(ev);
    }
    // One bucket: of the two candidates finishing at 3 ms with equal
    // cost, the one extending the earlier source state (fast event 0)
    // comes first and survives.
    ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.configOf, (std::vector<int>{0, 1}));
    EXPECT_EQ(sol.finishTime, (std::vector<TimeMs>{1.0, 3.0}));
    EXPECT_EQ(sol.totalEnergy, 3.0);

    // Free switches still bucket states by last config: the two tied
    // assignments end in different buckets, and the final pick keeps
    // the first in bucket order (slow-then-fast ends in bucket 0).
    problem.switchCost = {{0.0, 0.0}, {0.0, 0.0}};
    sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.configOf, (std::vector<int>{1, 0}));
    EXPECT_EQ(sol.finishTime, (std::vector<TimeMs>{2.0, 3.0}));
    EXPECT_EQ(sol.totalEnergy, 3.0);
}

// ------------------- real-size exactness gate (C = 17) ------------------

/**
 * Test-only reference: the same DP without bounds, merge or cap. Each
 * bucket's candidates are sorted by the total order (finish, cost,
 * source state, config) and a candidate survives when its cost beats
 * the last survivor's by more than 1e-12; the final pick is the first
 * strict (tardiness, energy) improvement in bucket order.
 */
ScheduleSolution
referenceSolve(const ScheduleProblem &problem)
{
    struct State
    {
        double finish;
        double tardiness;
        double energy;
        int parent;
        int config;
        double cost() const { return tardiness * 1e12 + energy; }
    };
    const int n = static_cast<int>(problem.events.size());
    const int c = problem.numConfigs();
    const bool use_switch = !problem.switchCost.empty();
    const int buckets = use_switch ? c : 1;

    std::vector<std::vector<State>> stages;
    std::vector<State> frontier{
        {0.0, 0.0, 0.0, -1, problem.initialConfig}};
    for (int i = 0; i < n; ++i) {
        const ScheduleEvent &ev = problem.events[static_cast<size_t>(i)];
        std::vector<State> next;
        for (int b = 0; b < buckets; ++b) {
            std::vector<State> cand;
            for (size_t p = 0; p < frontier.size(); ++p) {
                const State &from = frontier[p];
                for (int j = 0; j < c; ++j) {
                    if (use_switch && j != b)
                        continue;
                    const size_t sj = static_cast<size_t>(j);
                    const double finish = from.finish +
                        (ev.latency[sj] + (use_switch
                            ? problem.switchCost
                                  [static_cast<size_t>(from.config)][sj]
                            : 0.0));
                    cand.push_back(
                        {finish,
                         from.tardiness +
                             std::max(0.0, finish - ev.deadline),
                         from.energy + ev.energy[sj],
                         static_cast<int>(p), j});
                }
            }
            std::sort(cand.begin(), cand.end(),
                      [](const State &x, const State &y) {
                          if (x.finish != y.finish)
                              return x.finish < y.finish;
                          if (x.cost() != y.cost())
                              return x.cost() < y.cost();
                          if (x.parent != y.parent)
                              return x.parent < y.parent;
                          return x.config < y.config;
                      });
            double min_cost = std::numeric_limits<double>::infinity();
            for (const State &st : cand) {
                if (st.cost() < min_cost - 1e-12) {
                    next.push_back(st);
                    min_cost = st.cost();
                }
            }
        }
        stages.push_back(next);
        frontier = std::move(next);
    }

    const std::vector<State> &finals = stages.back();
    size_t best = 0;
    for (size_t k = 1; k < finals.size(); ++k) {
        const State &a = finals[k];
        const State &b = finals[best];
        if (a.tardiness < b.tardiness - 1e-12 ||
            (std::abs(a.tardiness - b.tardiness) <= 1e-12 &&
             a.energy < b.energy - 1e-12)) {
            best = k;
        }
    }
    ScheduleSolution solution;
    solution.configOf.assign(static_cast<size_t>(n), 0);
    solution.finishTime.assign(static_cast<size_t>(n), 0.0);
    int idx = static_cast<int>(best);
    for (int i = n - 1; i >= 0; --i) {
        const State &st =
            stages[static_cast<size_t>(i)][static_cast<size_t>(idx)];
        solution.configOf[static_cast<size_t>(i)] = st.config;
        solution.finishTime[static_cast<size_t>(i)] = st.finish;
        idx = st.parent;
    }
    solution.totalEnergy = finals[best].energy;
    solution.totalTardiness = finals[best].tardiness;
    solution.feasible = finals[best].tardiness <= 1e-9;
    return solution;
}

/** Exynos 5410 models: 17 configurations with their switch costs. */
class ExynosSolverFixture : public ::testing::Test
{
  protected:
    ExynosSolverFixture()
    {
        const int c = soc.numConfigs();
        switchCost.assign(static_cast<size_t>(c),
                          std::vector<TimeMs>(static_cast<size_t>(c)));
        for (int a = 0; a < c; ++a) {
            for (int b = 0; b < c; ++b) {
                switchCost[static_cast<size_t>(a)][static_cast<size_t>(b)] =
                    soc.switchCost(soc.configAt(a), soc.configAt(b));
            }
        }
    }

    /**
     * @p n events with random workloads through the platform's latency
     * and power models, and deadlines from tight (often infeasible) to
     * loose; with switch costs unless @p eqn5.
     */
    ScheduleProblem randomProblem(Rng &rng, int n, bool eqn5) const
    {
        ScheduleProblem problem;
        if (!eqn5) {
            problem.switchCost = switchCost;
            problem.initialConfig = rng.uniformInt(0, soc.numConfigs() - 1);
        }
        TimeMs chain_min = 0.0;
        for (int i = 0; i < n; ++i) {
            const Workload work{rng.uniform(0.0, 20.0),
                                rng.uniform(5.0, 400.0)};
            ScheduleEvent ev;
            TimeMs fastest = std::numeric_limits<TimeMs>::infinity();
            for (int j = 0; j < soc.numConfigs(); ++j) {
                const TimeMs latency = model.latencyAt(work, j);
                ev.latency.push_back(latency);
                ev.energy.push_back(
                    energyOf(power.busyPowerAt(j), latency));
                fastest = std::min(fastest, latency);
            }
            chain_min += fastest;
            ev.deadline = chain_min * rng.uniform(0.9, 4.0);
            problem.events.push_back(ev);
        }
        return problem;
    }

    AcmpPlatform soc = AcmpPlatform::exynos5410();
    PowerModel power{soc};
    DvfsLatencyModel model{soc};
    std::vector<std::vector<TimeMs>> switchCost;
};

/** The solver and the reference agree to the bit; no thinning. Returns
 *  the solver's answer. */
ScheduleSolution
expectSameAsReference(const ScheduleProblem &problem,
                      const std::string &what)
{
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    const ScheduleSolution ref = referenceSolve(problem);
    EXPECT_EQ(sol.thinnedPrunes, 0) << what;
    EXPECT_EQ(sol.configOf, ref.configOf) << what;
    EXPECT_EQ(sol.finishTime, ref.finishTime) << what;
    EXPECT_EQ(sol.totalEnergy, ref.totalEnergy) << what;
    EXPECT_EQ(sol.totalTardiness, ref.totalTardiness) << what;
    EXPECT_EQ(sol.feasible, ref.feasible) << what;
    return sol;
}

TEST(ParetoDp, CrossBucketDominanceCountsTheSwitch)
{
    // From config 1, event 0 ends in bucket 0 at 7 + 3 = 10 ms for 2 mJ
    // or in bucket 1 at 8 ms for 1 mJ. The bucket-1 state is earlier and
    // cheaper, but by less than the 3 ms switch, so it beats the bucket-0
    // state only in bucket 1: only the bucket-0 state can run event 1 at
    // config 0 by its 15 ms deadline (10 + 5 = 15, while 8 + 3 + 5 = 16).
    ScheduleProblem problem;
    problem.switchCost = {{0.0, 3.0}, {3.0, 0.0}};
    problem.initialConfig = 1;
    ScheduleEvent ev;
    ev.latency = {7.0, 8.0};
    ev.energy = {2.0, 1.0};
    ev.deadline = 1e9;
    problem.events.push_back(ev);
    ev.latency = {5.0, 50.0};
    ev.energy = {1.0, 0.5};
    ev.deadline = 15.0;
    problem.events.push_back(ev);

    const ScheduleSolution sol =
        expectSameAsReference(problem, "cross-bucket dominance");
    EXPECT_TRUE(sol.feasible);
    EXPECT_EQ(sol.configOf, (std::vector<int>{0, 0}));
    EXPECT_EQ(sol.totalEnergy, 3.0);
}

TEST_F(ExynosSolverFixture, MatchesBruteForceOnSmallChains)
{
    Rng rng(2019);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = 1 + trial % 4;
        const ScheduleProblem problem =
            randomProblem(rng, n, /*eqn5=*/trial % 5 == 4);
        const int c = problem.numConfigs();

        // Lexicographic (tardiness, energy) optimum over all c^n
        // assignments.
        double best_tardiness = std::numeric_limits<double>::infinity();
        double best_energy = std::numeric_limits<double>::infinity();
        std::vector<int> assign(static_cast<size_t>(n), 0);
        for (;;) {
            double t = 0.0;
            double tardiness = 0.0;
            double energy = 0.0;
            int last = problem.initialConfig;
            for (int i = 0; i < n; ++i) {
                const ScheduleEvent &ev =
                    problem.events[static_cast<size_t>(i)];
                const int j = assign[static_cast<size_t>(i)];
                t += ev.latency[static_cast<size_t>(j)];
                if (!problem.switchCost.empty()) {
                    t += problem.switchCost[static_cast<size_t>(last)]
                                           [static_cast<size_t>(j)];
                }
                tardiness += std::max(0.0, t - ev.deadline);
                energy += ev.energy[static_cast<size_t>(j)];
                last = j;
            }
            if (tardiness < best_tardiness - 1e-9 ||
                (tardiness <= best_tardiness + 1e-9 &&
                 energy < best_energy)) {
                best_tardiness = tardiness;
                best_energy = energy;
            }
            int k = 0;
            while (k < n && ++assign[static_cast<size_t>(k)] == c)
                assign[static_cast<size_t>(k++)] = 0;
            if (k == n)
                break;
        }

        const ScheduleSolution sol = ParetoDpSolver().solve(problem);
        EXPECT_EQ(sol.thinnedPrunes, 0) << "trial " << trial;
        EXPECT_NEAR(sol.totalTardiness, best_tardiness, 1e-9)
            << "trial " << trial;
        EXPECT_NEAR(sol.totalEnergy, best_energy, 1e-9)
            << "trial " << trial;
    }
}

TEST_F(ExynosSolverFixture, MatchesReferenceDpOnRandomChains)
{
    Rng rng(1911);
    for (int trial = 0; trial < 60; ++trial) {
        const int n = 1 + trial % 8;
        expectSameAsReference(
            randomProblem(rng, n, /*eqn5=*/trial % 5 == 4),
            "trial " + std::to_string(trial));
    }
}

/**
 * Sliding PES plan windows over fixed-seed traces of three apps: the head
 * has arrived, the rest are predicted, loads with an expected arrival and
 * others chained (the default deadline model). Calls @p visit with each
 * window's label, specs, head event and start configuration.
 */
template <typename Visit>
void
forEachPesWindow(const AcmpPlatform &soc, Visit visit)
{
    TraceGenerator generator(soc);
    for (const char *app : {"cnn", "social_feed", "youtube"}) {
        const InteractionTrace trace = generator.generate(
            appByName(app), TraceGenerator::kEvaluationSeedBase);
        const std::vector<TraceEvent> &events = trace.events;
        const int n = static_cast<int>(events.size());
        for (int first = 0; first + 2 <= n; ++first) {
            const int last = std::min(n, first + 2 + first % 9);
            std::vector<PlanEventSpec> specs;
            for (int j = first; j < last; ++j) {
                const TraceEvent &ev = events[static_cast<size_t>(j)];
                PlanEventSpec spec;
                spec.work = ev.totalWork();
                spec.qosTarget = ev.qosTarget();
                if (j == first)
                    spec.arrival = ev.arrival;
                else if (interactionOf(ev.type) == Interaction::Load)
                    spec.expectedArrival = ev.arrival;
                specs.push_back(spec);
            }
            visit(std::string(app) + " window at " + std::to_string(first),
                  specs, events[static_cast<size_t>(first)],
                  soc.configAt(first % soc.numConfigs()));
        }
    }
}

TEST_F(ExynosSolverFixture, MatchesReferenceDpOnPesWindows)
{
    const VsyncClock vsync;
    const GlobalOptimizer optimizer(model, power, vsync);
    int windows = 0;
    forEachPesWindow(soc, [&](const std::string &what,
                              const std::vector<PlanEventSpec> &specs,
                              const TraceEvent &head,
                              const AcmpConfig &start) {
        expectSameAsReference(
            optimizer.buildProblem(head.arrival, start, specs), what);
        ++windows;
    });
    EXPECT_GT(windows, 50);
}

TEST_F(ExynosSolverFixture, MatchesReferenceDpOnLateWindows)
{
    // The same windows planned after the head's display deadline, as
    // when a plan drains late: no schedule is on time, so the greedy
    // incumbent fails and the late path runs against the all-fastest
    // schedule.
    const VsyncClock vsync;
    const GlobalOptimizer optimizer(model, power, vsync);
    int windows = 0;
    int infeasible = 0;
    forEachPesWindow(soc, [&](const std::string &what,
                              const std::vector<PlanEventSpec> &specs,
                              const TraceEvent &head,
                              const AcmpConfig &start) {
        const TimeMs late_by = 1.0 + static_cast<double>(windows % 40);
        const ScheduleSolution sol = expectSameAsReference(
            optimizer.buildProblem(
                head.arrival + head.qosTarget() + late_by, start, specs),
            what);
        infeasible += sol.feasible ? 0 : 1;
        ++windows;
    });
    EXPECT_GT(windows, 50);
    EXPECT_GE(infeasible, 50);
}

TEST_F(ExynosSolverFixture, WholeTraceChainCountsItsThinning)
{
    // The chain OracleScheduler solves for one long session outgrows the
    // frontier cap even with the bounds: the plan is complete, and the
    // thinning that makes it approximate is counted. No reference DP
    // covers a thinned answer, so its count and energy are pinned.
    const VsyncClock vsync;
    GlobalOptimizer optimizer(model, power, vsync);
    TraceGenerator generator(soc);
    const InteractionTrace trace = generator.generate(
        appByName("youtube"), TraceGenerator::kEvaluationSeedBase + 1);
    std::vector<PlanEventSpec> specs;
    for (const TraceEvent &ev : trace.events) {
        PlanEventSpec spec;
        spec.work = ev.totalWork();
        spec.qosTarget = ev.qosTarget();
        spec.arrival = ev.arrival;
        specs.push_back(spec);
    }
    const ScheduleSolution sol = optimizer.planSchedule(
        2.0, soc.minConfig(), specs);
    EXPECT_EQ(sol.configOf.size(), specs.size());
    EXPECT_TRUE(sol.feasible);
    EXPECT_EQ(sol.thinnedPrunes, 208);
    EXPECT_EQ(sol.totalEnergy, 0x1.1faf3c004f2ecp+13);  // 9,205.904... mJ
}

// ---------------------- DP == ILP equivalence (property) ----------------

/** Random Eqn.-5 instances; the DP must match branch-and-bound exactly. */
class DpIlpEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(DpIlpEquivalence, SameOptimalEnergy)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
    const int n = rng.uniformInt(2, 5);
    const int c = rng.uniformInt(2, 4);

    ScheduleProblem problem;
    double chain_min = 0.0;
    for (int i = 0; i < n; ++i) {
        ScheduleEvent ev;
        double fastest = std::numeric_limits<double>::infinity();
        for (int j = 0; j < c; ++j) {
            const double lat = rng.uniform(1.0, 20.0);
            ev.latency.push_back(lat);
            // Faster should generally be costlier, with noise.
            ev.energy.push_back((30.0 - lat) * rng.uniform(0.5, 1.5));
            fastest = std::min(fastest, lat);
        }
        chain_min += fastest;
        // Deadline: sometimes tight, sometimes loose, always feasible.
        ev.deadline = chain_min * rng.uniform(1.05, 2.5);
        problem.events.push_back(ev);
    }

    const ScheduleSolution dp = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(dp.feasible);

    IntegerProgram ilp = problem.toIlp();
    const IlpResult reference = ilp.solve();
    ASSERT_EQ(reference.status, IlpStatus::Optimal);

    EXPECT_NEAR(dp.totalEnergy, reference.objective, 1e-6)
        << "DP and branch-and-bound disagree on instance "
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpIlpEquivalence,
                         ::testing::Range(0, 25));

/** The DP solution must satisfy every constraint it claims to satisfy. */
class DpFeasibilityCheck : public ::testing::TestWithParam<int>
{
};

TEST_P(DpFeasibilityCheck, ReportedScheduleIsConsistent)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
    const int n = rng.uniformInt(2, 8);
    const int c = rng.uniformInt(2, 6);

    ScheduleProblem problem;
    for (int i = 0; i < n; ++i) {
        ScheduleEvent ev;
        for (int j = 0; j < c; ++j) {
            ev.latency.push_back(rng.uniform(1.0, 30.0));
            ev.energy.push_back(rng.uniform(1.0, 50.0));
        }
        ev.deadline = rng.uniform(5.0, 40.0 * n);
        problem.events.push_back(ev);
    }

    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    // Recompute the chain from the reported configs.
    double t = 0.0;
    double energy = 0.0;
    double tardiness = 0.0;
    for (int i = 0; i < n; ++i) {
        const int j = sol.configOf[static_cast<size_t>(i)];
        t += problem.events[static_cast<size_t>(i)]
                 .latency[static_cast<size_t>(j)];
        energy += problem.events[static_cast<size_t>(i)]
                      .energy[static_cast<size_t>(j)];
        tardiness += std::max(
            0.0, t - problem.events[static_cast<size_t>(i)].deadline);
        EXPECT_NEAR(sol.finishTime[static_cast<size_t>(i)], t, 1e-9);
    }
    EXPECT_NEAR(sol.totalEnergy, energy, 1e-9);
    EXPECT_NEAR(sol.totalTardiness, tardiness, 1e-9);
    EXPECT_EQ(sol.feasible, tardiness <= 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpFeasibilityCheck,
                         ::testing::Range(0, 20));

TEST(ScheduleProblem, ToIlpRejectsSwitchCosts)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.switchCost = {{0.0, 1.0}, {1.0, 0.0}};
    EXPECT_DEATH((void)problem.toIlp(), "switch costs");
}

} // namespace
} // namespace pes
