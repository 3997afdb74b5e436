#include "solver/schedule_problem.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.hh"

namespace pes {

IntegerProgram
ScheduleProblem::toIlp() const
{
    panic_if(!switchCost.empty(),
             "toIlp: switch costs are not expressible in the Eqn. 5 ILP");
    const int n = static_cast<int>(events.size());
    const int c = numConfigs();
    panic_if(n == 0, "toIlp: empty problem");

    // Variables: tau(i, j) laid out row-major.
    IntegerProgram ilp(n * c);
    auto var = [c](int i, int j) { return i * c + j; };

    std::vector<double> objective(static_cast<size_t>(n * c), 0.0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < c; ++j) {
            objective[static_cast<size_t>(var(i, j))] =
                events[static_cast<size_t>(i)].energy
                    [static_cast<size_t>(j)];
        }
    }
    ilp.setObjective(std::move(objective));

    // Eqn. 2: each event picks exactly one configuration.
    for (int i = 0; i < n; ++i) {
        std::vector<double> row(static_cast<size_t>(n * c), 0.0);
        for (int j = 0; j < c; ++j)
            row[static_cast<size_t>(var(i, j))] = 1.0;
        ilp.addConstraint(std::move(row), Relation::Equal, 1.0);
    }

    // Eqn. 4: prefix-sum latencies within each deadline.
    for (int i = 0; i < n; ++i) {
        const TimeMs deadline = events[static_cast<size_t>(i)].deadline;
        if (!std::isfinite(deadline))
            continue;
        std::vector<double> row(static_cast<size_t>(n * c), 0.0);
        for (int k = 0; k <= i; ++k) {
            for (int j = 0; j < c; ++j) {
                row[static_cast<size_t>(var(k, j))] =
                    events[static_cast<size_t>(k)].latency
                        [static_cast<size_t>(j)];
            }
        }
        ilp.addConstraint(std::move(row), Relation::LessEqual, deadline);
    }

    return ilp;
}

namespace {

/**
 * Weight folding tardiness and energy into one scalar cost. Any positive
 * tardiness above ~1e-6 ms outweighs every achievable energy total, which
 * realizes the lexicographic (tardiness, energy) objective; on feasible
 * instances (tardiness 0) the cost *is* the energy, so the DP stays exact
 * for the Eqn. 5 optimum.
 */
constexpr double kTardinessWeight = 1e12;

/** A candidate survives its bucket's pass only when its cost beats the
 *  last survivor's by more than this. */
constexpr double kDominanceMargin = 1e-12;

/** Total tardiness at or below this meets every deadline. */
constexpr TimeMs kFeasibleTardiness = 1e-9;

/** Slack of the bounds (ms, mJ), far above the rounding of a chain's
 *  sums: rounding never drops an optimal prefix. */
constexpr double kBoundSlack = 1e-6;

/**
 * Frontier states kept per bucket. A bucket whose survivors exceed it is
 * thinned to this many, keeping the fastest and cheapest extremes, and
 * counted in ScheduleSolution::thinnedPrunes.
 */
constexpr size_t kMaxBucketStates = 256;

/** Points kept per stage of the energy-to-go frontier (see
 *  prepareSecondPass). */
constexpr size_t kMaxToGoPoints = 256;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One Pareto state: a schedule of the events up to some stage. */
struct DpState
{
    TimeMs finish = 0.0;
    TimeMs tardiness = 0.0;
    EnergyMj energy = 0.0;
    /** Arena index of the state this one extends; -1 for the start. */
    int parent = -1;
    /** Configuration of the last scheduled event. */
    int config = 0;

    double cost() const
    {
        return tardiness * kTardinessWeight + energy;
    }
};

/** A complete assignment the answer must match or beat. */
struct Incumbent
{
    TimeMs tardiness = kInf;
    EnergyMj energy = kInf;
};

/**
 * A point of a stage's energy-to-go frontier: when the stage's event
 * finishes by @c latest, the later events can meet every deadline (as
 * prepareSecondPass relaxes them) for @c energy. Switch costs are left
 * out, so it is a lower bound.
 */
struct ToGo
{
    TimeMs latest = 0.0;
    EnergyMj energy = 0.0;
};

/** Buffers reused across solves, one set per thread. */
struct Workspace
{
    /** Every kept state of the solve; parent links index into it. */
    std::vector<DpState> arena;
    /** Arena indices of the states a stage extends (see listStates). */
    std::vector<int> list;
    /** Tardiness and energy of the listed states listStates has passed,
     *  none beaten by another. */
    std::vector<DpState> stair;
    /** One bucket's candidates. */
    std::vector<DpState> cands;
    /** The costliest switch; 0 without switch costs. */
    TimeMs maxSwitch = 0.0;
    /** Latest finish of event i that can still meet every deadline. */
    std::vector<TimeMs> finishCut;
    /** Minimum energy of the events after event i. */
    std::vector<EnergyMj> energyTail;
    /** Latest finish of event i from which the greedy pass can finish. */
    std::vector<TimeMs> greedyCut;
    /** Earliest finish of events 0..i, each at its fastest
     *  configuration with free switches. */
    std::vector<TimeMs> headFinish;
    /**
     * Per stage i, ascending: for each later event k, the finish of
     * event i after which k is late even at the fastest configurations
     * with free switches.
     */
    std::vector<std::vector<TimeMs>> lateAfter;
    /** Per stage, the energy-to-go frontier by ascending latest finish. */
    std::vector<std::vector<ToGo>> toGo;
    std::vector<ToGo> toGoCand;
};

Workspace &
workspace()
{
    thread_local Workspace s;
    return s;
}

/**
 * Fill s.headFinish and s.lateAfter: per stage, the finishes after
 * which each later event is late even at its fastest configuration
 * with free switches.
 */
void
prepareLateAfter(const ScheduleProblem &problem, Workspace &s)
{
    const size_t n = problem.events.size();
    s.headFinish.resize(n);
    TimeMs t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const ScheduleEvent &ev = problem.events[i];
        t += *std::min_element(ev.latency.begin(), ev.latency.end());
        s.headFinish[i] = t;
    }

    s.lateAfter.resize(n);
    for (size_t i = 0; i < n; ++i) {
        std::vector<TimeMs> &late = s.lateAfter[i];
        late.clear();
        for (size_t k = i + 1; k < n; ++k) {
            late.push_back(problem.events[k].deadline -
                           (s.headFinish[k] - s.headFinish[i]));
        }
        std::sort(late.begin(), late.end());
    }
}

/**
 * The schedule that runs every event at its fastest configuration, ties
 * going to the least energy (then to the lower index), with the
 * switches it makes; summed as the DP sums a path.
 */
Incumbent
fastestIncumbent(const ScheduleProblem &problem)
{
    Incumbent inc{0.0, 0.0};
    TimeMs finish = 0.0;
    size_t last = static_cast<size_t>(problem.initialConfig);
    for (const ScheduleEvent &ev : problem.events) {
        size_t pick = 0;
        for (size_t j = 1; j < ev.latency.size(); ++j) {
            if (ev.latency[j] < ev.latency[pick] ||
                (ev.latency[j] == ev.latency[pick] &&
                 ev.energy[j] < ev.energy[pick]))
                pick = j;
        }
        const TimeMs sw = problem.switchCost.empty()
            ? 0.0 : problem.switchCost[last][pick];
        finish += ev.latency[pick] + sw;
        inc.tardiness += std::max(0.0, finish - ev.deadline);
        inc.energy += ev.energy[pick];
        last = pick;
    }
    return inc;
}

/**
 * Fill the first pass's bound tables and return a greedy incumbent:
 * event by event, the cheapest configuration after which every later
 * event still meets its deadline at its fastest configuration, paying
 * the costliest switch. When that pass fails (a late window), return
 * fastestIncumbent() instead; when it is late too, also fill
 * s.lateAfter, which the first pass then bounds tardiness with.
 */
Incumbent
prepareBounds(const ScheduleProblem &problem, Workspace &s)
{
    const size_t n = problem.events.size();
    s.maxSwitch = 0.0;
    for (const std::vector<TimeMs> &row : problem.switchCost)
        s.maxSwitch = std::max(s.maxSwitch,
                               *std::max_element(row.begin(), row.end()));

    s.finishCut.resize(n);
    s.energyTail.resize(n);
    s.greedyCut.resize(n);
    TimeMs reach = kInf;
    TimeMs greedy_reach = kInf;
    EnergyMj tail = 0.0;
    for (size_t i = n; i-- > 0;) {
        const ScheduleEvent &ev = problem.events[i];
        const TimeMs limit = std::min(ev.deadline, reach);
        const TimeMs greedy_limit = std::min(ev.deadline, greedy_reach);
        s.finishCut[i] = limit + kBoundSlack;
        s.greedyCut[i] = greedy_limit;
        s.energyTail[i] = tail;
        const TimeMs min_latency =
            *std::min_element(ev.latency.begin(), ev.latency.end());
        reach = limit - min_latency;
        greedy_reach = greedy_limit - min_latency - s.maxSwitch;
        tail += *std::min_element(ev.energy.begin(), ev.energy.end());
    }

    Incumbent inc{0.0, 0.0};
    TimeMs finish = 0.0;
    int last = problem.initialConfig;
    for (size_t i = 0; i < n; ++i) {
        const ScheduleEvent &ev = problem.events[i];
        int pick = -1;
        TimeMs pick_finish = 0.0;
        for (size_t j = 0; j < ev.latency.size(); ++j) {
            const TimeMs sw = problem.switchCost.empty()
                ? 0.0 : problem.switchCost[static_cast<size_t>(last)][j];
            const TimeMs f = finish + (ev.latency[j] + sw);
            if (f <= s.greedyCut[i] &&
                (pick < 0 ||
                 ev.energy[j] < ev.energy[static_cast<size_t>(pick)])) {
                pick = static_cast<int>(j);
                pick_finish = f;
            }
        }
        if (pick < 0) {
            const Incumbent fastest = fastestIncumbent(problem);
            if (fastest.tardiness > 0.0)
                prepareLateAfter(problem, s);
            return fastest;
        }
        finish = pick_finish;
        inc.energy += ev.energy[static_cast<size_t>(pick)];
        last = pick;
    }
    return inc;
}

/**
 * Fill the second pass's completion bounds for incumbent @p inc.
 *
 * s.toGo: per stage, the energy-to-go frontier of the switch-free
 * relaxation, by a backward pass. With a tardy incumbent every deadline
 * is relaxed by its tardiness: a schedule as good is late by no more at
 * any one event. Points that cannot beat an on-time incumbent with the
 * least possible energy before them, or that no schedule finishes early
 * enough to use, are dropped. A frontier above kMaxToGoPoints is
 * coarsened: each run of neighbours becomes one point with the run's
 * latest finish and least energy, which keeps it a lower bound.
 *
 * s.lateAfter: see prepareLateAfter.
 */
void
prepareSecondPass(const ScheduleProblem &problem, Workspace &s,
                  const Incumbent &inc)
{
    const size_t n = problem.events.size();
    const bool on_time = inc.tardiness == 0.0;
    const TimeMs relax = on_time ? 0.0 : inc.tardiness + kBoundSlack;
    const EnergyMj energy_limit = on_time ? inc.energy + kBoundSlack : kInf;

    prepareLateAfter(problem, s);
    const std::vector<TimeMs> &head_finish = s.headFinish;
    // Least energy of events 0..i.
    std::vector<EnergyMj> head_energy(n, 0.0);
    EnergyMj e = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const ScheduleEvent &ev = problem.events[i];
        e += *std::min_element(ev.energy.begin(), ev.energy.end());
        head_energy[i] = e;
    }

    s.toGo.resize(n);
    s.toGo[n - 1].assign(1, ToGo{kInf, 0.0});
    for (size_t i = n - 1; i > 0; --i) {
        const ScheduleEvent &ev = problem.events[i];
        std::vector<ToGo> &cand = s.toGoCand;
        cand.clear();
        for (const ToGo &p : s.toGo[i]) {
            const TimeMs latest = std::min(ev.deadline + relax, p.latest);
            for (size_t j = 0; j < ev.latency.size(); ++j)
                cand.push_back({latest - ev.latency[j],
                                p.energy + ev.energy[j]});
        }
        std::sort(cand.begin(), cand.end(),
                  [](const ToGo &a, const ToGo &b) {
                      return a.latest > b.latest ||
                          (a.latest == b.latest && a.energy < b.energy);
                  });
        std::vector<ToGo> &front = s.toGo[i - 1];
        front.clear();
        EnergyMj min_energy = kInf;
        for (const ToGo &p : cand) {
            if (p.latest < head_finish[i - 1] - kBoundSlack)
                break;
            if (p.energy < min_energy &&
                p.energy + head_energy[i - 1] <= energy_limit) {
                front.push_back(p);
                min_energy = p.energy;
            }
        }
        std::reverse(front.begin(), front.end());
        if (front.size() > kMaxToGoPoints) {
            const size_t m = front.size();
            for (size_t g = 0; g < kMaxToGoPoints; ++g) {
                const size_t lo = g * m / kMaxToGoPoints;
                const size_t hi = (g + 1) * m / kMaxToGoPoints;
                front[g] = {front[hi - 1].latest, front[lo].energy};
            }
            front.resize(kMaxToGoPoints);
        }
    }
}

/**
 * What one stage's pass may keep; everything when no bound applies. A
 * state is dropped when its least tardiness (so far, plus the later
 * events' least when lateAfter is set) is above tardinessLimit, or when
 * that is not below tieLimit and its least energy (so far, plus the
 * later events' least) is above energyLimit.
 */
struct StageBounds
{
    TimeMs deadline = 0.0;
    /** Candidates finishing later are never merged. */
    TimeMs cut = kInf;
    TimeMs tardinessLimit = kInf;
    TimeMs tieLimit = kInf;
    EnergyMj energyLimit = kInf;
    /** Least energy of the later events at any finish. */
    EnergyMj energyTail = 0.0;
    /** When set, the least energy of the later events by finish. */
    const std::vector<ToGo> *toGo = nullptr;
    /** When set, Workspace::lateAfter of the stage. */
    const std::vector<TimeMs> *lateAfter = nullptr;
};

/**
 * List the last finished stage, arena[first, end()), in s.list by
 * (finish, arena index). With @p filter, leave out each state q that
 * some state p beats: p.finish + (maxSwitch + kBoundSlack) <= q.finish,
 * p.tardiness <= q.tardiness and p.energy <= q.energy. q's candidates
 * then never survive (see the file comment). The states passed so far
 * that finish early enough form a (tardiness, energy) staircase, which
 * decides it; a beaten state beats nothing its beater does not.
 */
void
listStates(Workspace &s, size_t first, bool filter)
{
    const std::vector<DpState> &arena = s.arena;
    std::vector<int> &list = s.list;
    list.resize(arena.size() - first);
    std::iota(list.begin(), list.end(), static_cast<int>(first));
    std::sort(list.begin(), list.end(), [&arena](int a, int b) {
        const TimeMs fa = arena[static_cast<size_t>(a)].finish;
        const TimeMs fb = arena[static_cast<size_t>(b)].finish;
        return fa < fb || (fa == fb && a < b);
    });
    if (!filter)
        return;

    std::vector<DpState> &stair = s.stair;
    stair.clear();
    auto beaten = [&stair](const DpState &q) {
        for (const DpState &p : stair) {
            if (p.tardiness <= q.tardiness && p.energy <= q.energy)
                return true;
        }
        return false;
    };
    const TimeMs gap = s.maxSwitch + kBoundSlack;
    size_t kept = 0;
    size_t passed = 0;
    for (size_t r = 0; r < list.size(); ++r) {
        const DpState &q = arena[static_cast<size_t>(list[r])];
        for (; passed < kept; ++passed) {
            const DpState &p = arena[static_cast<size_t>(list[passed])];
            if (p.finish + gap > q.finish)
                break;
            if (beaten(p))
                continue;
            stair.erase(std::remove_if(stair.begin(), stair.end(),
                                       [&p](const DpState &x) {
                                           return p.tardiness <= x.tardiness &&
                                               p.energy <= x.energy;
                                       }),
                        stair.end());
            stair.push_back(p);
        }
        if (!beaten(q))
            list[kept++] = list[r];
    }
    list.resize(kept);
}

/**
 * Bucket @p b's pass over s.list at event @p i. Its candidates are the
 * listed states run at configuration b (with switch costs) or at every
 * configuration (without), less those finishing after the cut, which
 * could not be kept. In finish order, one survives when its cost beats
 * the last survivor's by more than kDominanceMargin; of equal finishes
 * only the first in (cost, parent, config) order can, so their order in
 * the sort never matters. Survivors within the bounds are appended to the
 * arena; the others still count for dominance.
 */
void
mergeBucket(const ScheduleProblem &problem, size_t i, int b, Workspace &s,
            const StageBounds &bounds)
{
    const ScheduleEvent &ev = problem.events[i];
    const bool use_switch = !problem.switchCost.empty();
    std::vector<DpState> &arena = s.arena;
    std::vector<DpState> &cands = s.cands;
    cands.clear();
    const int end = use_switch ? b + 1 : problem.numConfigs();
    for (int j = use_switch ? b : 0; j < end; ++j) {
        const size_t sj = static_cast<size_t>(j);
        for (int k : s.list) {
            const DpState &from = arena[static_cast<size_t>(k)];
            const TimeMs finish = from.finish + (use_switch
                ? ev.latency[sj] +
                    problem.switchCost[static_cast<size_t>(from.config)][sj]
                : ev.latency[sj]);
            if (finish <= bounds.cut) {
                cands.push_back(
                    {finish,
                     from.tardiness + std::max(0.0, finish - bounds.deadline),
                     from.energy + ev.energy[sj], k, j});
            }
        }
    }
    std::sort(cands.begin(), cands.end(),
              [](const DpState &x, const DpState &y) {
                  return x.finish < y.finish;
              });

    // Survivors come in finish order, so the energy-to-go lookup only
    // moves forward.
    size_t to_go = 0;
    auto energyToGo = [&](TimeMs finish) {
        if (!bounds.toGo)
            return bounds.energyTail;
        const std::vector<ToGo> &front = *bounds.toGo;
        while (to_go < front.size() &&
               front[to_go].latest < finish - kBoundSlack)
            ++to_go;
        return to_go < front.size() ? front[to_go].energy : kInf;
    };

    // Least tardiness of the later events: the sum over thresholds t
    // below finish of (finish - t).
    size_t late_count = 0;
    TimeMs late_sum = 0.0;
    auto tardinessToGo = [&](TimeMs finish) {
        if (!bounds.lateAfter)
            return 0.0;
        const std::vector<TimeMs> &late = *bounds.lateAfter;
        while (late_count < late.size() && late[late_count] < finish)
            late_sum += late[late_count++];
        return static_cast<double>(late_count) * finish - late_sum;
    };

    double min_cost = kInf;
    // The first candidate in order among those finishing at best.finish.
    DpState best;
    double best_cost = kInf;
    bool open = false;
    auto close = [&]() {
        if (best_cost < min_cost - kDominanceMargin) {
            min_cost = best_cost;
            const TimeMs tardiness =
                best.tardiness + tardinessToGo(best.finish);
            if (tardiness <= bounds.tardinessLimit &&
                (tardiness < bounds.tieLimit ||
                 best.energy + energyToGo(best.finish) <=
                     bounds.energyLimit))
                arena.push_back(best);
        }
    };
    for (const DpState &cand : cands) {
        const double cost = cand.cost();
        if (open && cand.finish != best.finish) {
            close();
            open = false;
        }
        if (!open || cost < best_cost ||
            (cost == best_cost &&
             (cand.parent < best.parent ||
              (cand.parent == best.parent && cand.config < best.config)))) {
            best = cand;
            best_cost = cost;
            open = true;
        }
    }
    if (open)
        close();
}

/**
 * Thin the bucket arena[begin, end()) to kMaxBucketStates evenly spaced
 * states, both extremes included. Returns whether it thinned.
 */
bool
thinBucket(std::vector<DpState> &arena, size_t begin)
{
    const size_t size = arena.size() - begin;
    if (size <= kMaxBucketStates)
        return false;
    const double step = static_cast<double>(size - 1) /
        static_cast<double>(kMaxBucketStates - 1);
    // Picks never fall behind their slot, so thinning in place is safe.
    for (size_t i = 0; i < kMaxBucketStates; ++i) {
        arena[begin + i] = arena[begin + static_cast<size_t>(
            std::round(step * static_cast<double>(i)))];
    }
    arena.resize(begin + kMaxBucketStates);
    return true;
}

struct PassResult
{
    /** Arena index of the picked final state; -1 when none. */
    int best = -1;
    /** Bucket prunes the cap thinned. */
    int thinned = 0;
};

/**
 * The forward DP, pruned against @p inc, and on the @p second_pass also
 * with the completion bounds of prepareSecondPass.
 */
PassResult
runDp(const ScheduleProblem &problem, Workspace &s, const Incumbent &inc,
      bool second_pass)
{
    const int n = static_cast<int>(problem.events.size());
    const int c = problem.numConfigs();
    const bool use_switch = !problem.switchCost.empty();
    // With switch costs the last configuration is part of the state (it
    // sets the next switch cost), so states are pruned per lastConfig
    // bucket; without, one bucket holds them all.
    const int buckets = use_switch ? c : 1;

    std::vector<DpState> &arena = s.arena;
    arena.clear();
    DpState start;
    start.config = problem.initialConfig;
    arena.push_back(start);
    // The last finished stage is arena[first, end()), bucket by bucket.
    size_t first = 0;
    PassResult result;

    for (int i = 0; i < n; ++i) {
        const size_t si = static_cast<size_t>(i);
        const ScheduleEvent &ev = problem.events[si];
        // Bounds (exact). With an on-time incumbent a state is dropped
        // when it is already late, when even the fastest configurations
        // with free switches would miss a later deadline, or when its
        // cheapest completion uses more energy than the incumbent. With
        // a tardy one a state is dropped when its least tardiness is
        // above the incumbent's, or equal and its least energy above;
        // the first pass takes the later events' least energy at any
        // finish, the second their energy-to-go frontier. Without an
        // incumbent nothing is dropped.
        StageBounds bounds;
        bounds.deadline = ev.deadline;
        if (inc.tardiness == 0.0) {
            bounds.cut = s.finishCut[si];
            bounds.tardinessLimit = kFeasibleTardiness;
            bounds.tieLimit = -kInf;
            bounds.energyLimit = inc.energy + kBoundSlack;
            bounds.energyTail = s.energyTail[si];
            if (second_pass)
                bounds.toGo = &s.toGo[si];
        } else if (inc.tardiness < kInf) {
            // The folded cost resolves energy only to a few of its ulps;
            // a tie within them is not dropped.
            const double cost = inc.tardiness * kTardinessWeight +
                inc.energy;
            bounds.tardinessLimit = inc.tardiness + kBoundSlack;
            bounds.tieLimit = inc.tardiness - kBoundSlack;
            bounds.energyLimit = inc.energy + kBoundSlack +
                16.0 * std::numeric_limits<double>::epsilon() * cost;
            bounds.lateAfter = &s.lateAfter[si];
            if (second_pass)
                bounds.toGo = &s.toGo[si];
            else
                bounds.energyTail = s.energyTail[si];
        }

        listStates(s, first, buckets > 1);
        // With switch costs every candidate of bucket b adds ev.energy[b]
        // to a last-stage state. When the energy test alone decides what
        // is kept (no tie limit, no energy-to-go frontier) and it fails
        // even from the least-energy state, summed in the keep test's
        // order, the bucket keeps nothing: addition is monotone and a
        // bucket's survivors depend on its own candidates only, so it is
        // skipped.
        const bool energy_cut =
            use_switch && bounds.tieLimit == -kInf && !bounds.toGo;
        EnergyMj least = kInf;
        if (energy_cut) {
            for (size_t p = first; p < arena.size(); ++p)
                least = std::min(least, arena[p].energy);
        }

        first = arena.size();
        for (int b = 0; b < buckets; ++b) {
            const size_t begin = arena.size();
            if (energy_cut &&
                least + ev.energy[static_cast<size_t>(b)] +
                        bounds.energyTail >
                    bounds.energyLimit)
                continue;
            mergeBucket(problem, si, b, s, bounds);
            if (thinBucket(arena, begin))
                ++result.thinned;
        }
    }

    // Pick the lexicographic (tardiness, energy) best final state: the
    // first strict improvement in bucket order.
    if (first == arena.size())
        return result;
    result.best = static_cast<int>(first);
    for (size_t k = first + 1; k < arena.size(); ++k) {
        const DpState &a = arena[k];
        const DpState &b = arena[static_cast<size_t>(result.best)];
        if (a.tardiness < b.tardiness - 1e-12 ||
            (std::abs(a.tardiness - b.tardiness) <= 1e-12 &&
             a.energy < b.energy - 1e-12)) {
            result.best = static_cast<int>(k);
        }
    }
    return result;
}

} // namespace

ScheduleSolution
ParetoDpSolver::solve(const ScheduleProblem &problem) const
{
    ScheduleSolution solution;
    const int n = static_cast<int>(problem.events.size());
    if (n == 0) {
        solution.feasible = true;
        return solution;
    }
    const int c = problem.numConfigs();
    panic_if(c == 0, "ParetoDpSolver: no configurations");
    for (int i = 0; i < n; ++i) {
        const ScheduleEvent &ev = problem.events[static_cast<size_t>(i)];
        panic_if(static_cast<int>(ev.latency.size()) != c ||
                 static_cast<int>(ev.energy.size()) != c,
                 "ParetoDpSolver: ragged event table at %d", i);
    }
    if (!problem.switchCost.empty()) {
        panic_if(static_cast<int>(problem.switchCost.size()) != c ||
                 problem.initialConfig < 0 || problem.initialConfig >= c,
                 "ParetoDpSolver: bad switch-cost matrix or initial "
                 "config");
        for (const std::vector<TimeMs> &row : problem.switchCost) {
            panic_if(static_cast<int>(row.size()) != c,
                     "ParetoDpSolver: ragged switch-cost matrix");
        }
    }

    Workspace &s = workspace();
    Incumbent inc = prepareBounds(problem, s);
    PassResult result = runDp(problem, s, inc, false);
    if (result.thinned > 0) {
        // The cap fired. Solve again, against the capped answer when it
        // beats the greedy one, and with completion bounds.
        if (result.best >= 0) {
            const DpState &st = s.arena[static_cast<size_t>(result.best)];
            if (st.tardiness < inc.tardiness ||
                (st.tardiness == inc.tardiness && st.energy < inc.energy))
                inc = {st.tardiness, st.energy};
        }
        prepareSecondPass(problem, s, inc);
        result = runDp(problem, s, inc, true);
    }
    // Thinning can drop every state the bounds would keep; then solve
    // without them.
    if (result.best < 0)
        result = runDp(problem, s, Incumbent{}, false);
    panic_if(result.best < 0, "ParetoDpSolver: lost all states");
    solution.thinnedPrunes = result.thinned;
    const int best = result.best;

    // Reconstruct the assignment along the parent links.
    solution.configOf.assign(static_cast<size_t>(n), 0);
    solution.finishTime.assign(static_cast<size_t>(n), 0.0);
    int idx = best;
    for (int i = n - 1; i >= 0; --i) {
        const DpState &st = s.arena[static_cast<size_t>(idx)];
        solution.configOf[static_cast<size_t>(i)] = st.config;
        solution.finishTime[static_cast<size_t>(i)] = st.finish;
        idx = st.parent;
    }
    const DpState &chosen = s.arena[static_cast<size_t>(best)];
    solution.totalEnergy = chosen.energy;
    solution.totalTardiness = chosen.tardiness;
    solution.feasible = chosen.tardiness <= kFeasibleTardiness;
    return solution;
}

} // namespace pes
