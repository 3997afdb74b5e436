/**
 * @file
 * The PES scheduling formulation and its custom solver.
 *
 * Paper Sec. 5.3 (Eqns. 2-5): pick exactly one ACMP configuration per
 * event so that the chain of event executions meets every event's deadline
 * while the total energy  sum_i p(i) * dt(i)  is minimized. The paper
 * implements "our own solver customized to this particular formulation" —
 * this file is that solver: a dynamic program over Pareto-optimal
 * (finish time, cost) states per event, with a last-configuration state
 * dimension that accounts for DVFS-switch and migration costs.
 *
 * Each stage sorts the previous stage's states once, by (finish, arena
 * index), and builds every bucket's candidates from one walk of that
 * list: state st extended at configuration b finishes at
 * st.finish + (latency[b] + switchCost[st.config][b]). A bucket sorts the
 * candidates that finish by its cut and keeps, finish group by finish
 * group, the first in (cost, parent, config) order when it beats the
 * running minimum cost by a margin; so the order within a group of equal
 * finishes never matters, and there is no merge heap.
 *
 * With switch costs the list leaves out each state q that some state p
 * beats: p.finish + (maxSwitch + slack) <= q.finish, with no more
 * tardiness and no more energy, maxSwitch being the costliest switch.
 * That is exact. In any bucket p's candidate finishes strictly earlier
 * than q's (the slack covers the switch difference and the rounding;
 * switch costs are non-negative, as every bound here assumes), and costs
 * no more, because every operation in the cost is monotone.
 * Once p's finish group has closed, the running minimum is at most p's
 * cost plus the margin, so q's candidate cannot beat it by the margin;
 * and a candidate that does not survive changes neither that minimum nor
 * the arena. Survivors, thinning, both passes and the final
 * pick are therefore bit-identical. A left-out state stays in the arena,
 * as a parent and as a final state; it is only no longer extended. Only
 * the survivors of one bucket are Pareto-pruned against each other;
 * this filter is the one test across buckets.
 *
 * When a greedy incumbent meets every deadline, states that provably
 * cannot beat it are dropped (late, unable to meet a later deadline even
 * at the fastest configurations, or needing more energy than the
 * incumbent). When the greedy finds no on-time schedule (a late window),
 * the incumbent is every event at its fastest configuration: if that is
 * on time it bounds as the greedy would, and if it is late a state is
 * dropped when its least tardiness is above the incumbent's, or equal and
 * its least energy above. With switch costs and an on-time incumbent, a
 * pass without energy-to-go bounds also skips bucket b when the least
 * energy of any previous state, plus b's energy, plus the later events'
 * least, already exceeds the incumbent: floating-point addition is
 * monotone, so every candidate of b fails the same test. A bucket's
 * frontier above a fixed cap is thinned, and the solver then runs once
 * more against the capped answer with sharper completion bounds. The
 * answer is exact unless that run thins too;
 * ScheduleSolution::thinnedPrunes counts its thinned prunes. PES windows
 * stay under the cap; long whole-trace Oracle chains can exceed it.
 *
 * When no assignment can meet all deadlines (e.g. an inherently heavy
 * Type I event with an immediate conservative deadline), the solver
 * degrades lexicographically: minimize total tardiness first, then energy.
 *
 * toIlp() emits the paper's exact ILP (Eqn. 5) for the generic
 * branch-and-bound solver; property tests assert both agree.
 */

#ifndef PES_SOLVER_SCHEDULE_PROBLEM_HH
#define PES_SOLVER_SCHEDULE_PROBLEM_HH

#include <vector>

#include "solver/ilp.hh"
#include "util/types.hh"

namespace pes {

/**
 * One event to schedule: per-configuration latency and energy plus an
 * absolute deadline (relative to the chain start at t = 0).
 */
struct ScheduleEvent
{
    /** Execution latency under each configuration (ms). */
    std::vector<TimeMs> latency;
    /** Energy under each configuration (mJ): p(j) * dt(i,j). */
    std::vector<EnergyMj> energy;
    /** Deadline relative to chain start; infinity = unconstrained. */
    TimeMs deadline = 0.0;
};

/**
 * The chain-scheduling problem over N events and C configurations.
 */
struct ScheduleProblem
{
    std::vector<ScheduleEvent> events;
    /**
     * Optional switch-cost matrix: switchCost[a][b] >= 0 is added to the
     * latency when an event runs on configuration b after configuration a.
     * Empty = no switch costs (the Eqn. 5 formulation).
     */
    std::vector<std::vector<TimeMs>> switchCost;
    /** Configuration active before the first event (with switch costs). */
    int initialConfig = 0;

    /** Number of configurations (from the first event). */
    int numConfigs() const
    {
        return events.empty()
            ? 0 : static_cast<int>(events.front().latency.size());
    }

    /**
     * Emit the paper's ILP (Eqn. 5). Requires empty switchCost (switch
     * costs make the objective non-linear in tau).
     */
    IntegerProgram toIlp() const;
};

/**
 * Solution: one configuration per event.
 */
struct ScheduleSolution
{
    /** True when every deadline is met. */
    bool feasible = false;
    /** Chosen configuration index per event. */
    std::vector<int> configOf;
    /** Total energy of the chosen assignment. */
    EnergyMj totalEnergy = 0.0;
    /** Total tardiness (0 when feasible). */
    TimeMs totalTardiness = 0.0;
    /** Finish time of each event, relative to chain start. */
    std::vector<TimeMs> finishTime;
    /**
     * Bucket prunes whose frontier exceeded the state cap and was
     * thinned. The answer is exact when this is 0; otherwise it may be
     * approximate.
     */
    int thinnedPrunes = 0;
};

/**
 * Pareto-frontier dynamic program for ScheduleProblem. Working buffers
 * are per thread, so one solver may be shared across threads.
 */
class ParetoDpSolver
{
  public:
    /**
     * Solve the chain problem. Objective is lexicographic (total
     * tardiness, total energy); feasible instances therefore get the
     * minimum-energy deadline-meeting assignment (the Eqn. 5 optimum),
     * exactly when the solution's thinnedPrunes is 0. Among equal-cost
     * assignments the answer is fixed by the candidate order (finish,
     * cost, source state, config) and, at the end, by the first strict
     * improvement in bucket order.
     */
    ScheduleSolution solve(const ScheduleProblem &problem) const;
};

} // namespace pes

#endif // PES_SOLVER_SCHEDULE_PROBLEM_HH
