/**
 * @file
 * Event Type I-IV classification (paper Sec. 4.3, Fig. 3).
 *
 * Classifies each event of a (reactive) scheduling run by comparing what
 * happened against what an isolated execution could have achieved:
 *
 *   Type I   - misses QoS even at the highest configuration in isolation
 *              (inherently heavy).
 *   Type II  - would meet QoS in isolation, missed it at runtime
 *              (interference victim).
 *   Type III - met QoS, but on a higher-performance configuration than an
 *              isolated execution would have needed (energy wasted due to
 *              interference).
 *   Type IV  - met QoS on the minimal configuration (benign).
 *
 * "In isolation" means: execution starts at the event's arrival with the
 * full QoS budget and no queueing delay, using the event's true workload.
 */

#ifndef PES_SIM_CLASSIFIER_HH
#define PES_SIM_CLASSIFIER_HH

#include <array>
#include <vector>

#include "hw/dvfs_model.hh"
#include "hw/power_model.hh"
#include "sim/sim_types.hh"
#include "trace/trace.hh"
#include "web/vsync.hh"

namespace pes {

/** The four event categories of Sec. 4.3. */
enum class EventCategory
{
    TypeI = 0,
    TypeII,
    TypeIII,
    TypeIV,
};

/** Number of categories. */
constexpr int kNumEventCategories = 4;

/** Category name ("Type I", ...). */
const char *eventCategoryName(EventCategory category);

/** Per-category event counts of one or more runs. */
struct CategoryDistribution
{
    std::array<int, kNumEventCategories> counts{};

    /** Total events classified. */
    int total() const;
    /** Fraction of events in @p category. */
    double fraction(EventCategory category) const;
    /** Merge another distribution into this one. */
    void merge(const CategoryDistribution &other);
};

/**
 * Classifies events of a completed run.
 */
class EventClassifier
{
  public:
    EventClassifier(const AcmpPlatform &platform, const PowerModel &power);

    /** Category of one event given its run record and true workload. */
    EventCategory classify(const TraceEvent &event,
                           const EventRecord &record) const;

    /** Distribution over all events of a run. */
    CategoryDistribution classifyRun(const InteractionTrace &trace,
                                     const SimResult &result) const;

    /**
     * Cheapest configuration index whose isolated execution (arrival
     * start, full budget, VSync-aligned display) meets the event's QoS;
     * -1 when even the fastest configuration misses (Type I workload).
     */
    int minimalIsolatedConfig(const TraceEvent &event) const;

  private:
    /** True when cfg meets the deadline for an isolated execution. */
    bool isolatedMeets(const TraceEvent &event, int config_index) const;

    const AcmpPlatform *platform_;
    const PowerModel *power_;
    DvfsLatencyModel latencyModel_;
    VsyncClock vsync_;
};

} // namespace pes

#endif // PES_SIM_CLASSIFIER_HH
