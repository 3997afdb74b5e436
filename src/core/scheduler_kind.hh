/**
 * @file
 * The scheduler taxonomy of the evaluation.
 *
 * Names only: layers that enumerate or parse schedulers (the fleet
 * runner's job axes, the tools' flags) include this without the drivers.
 * DeviceContext::makeDriver (core/device_context.hh) turns a kind into a
 * driver.
 */

#ifndef PES_CORE_SCHEDULER_KIND_HH
#define PES_CORE_SCHEDULER_KIND_HH

#include <optional>
#include <string>

namespace pes {

/** The schedulers of the evaluation (Sec. 6.1 plus Ondemand, Fig. 13). */
enum class SchedulerKind
{
    Interactive = 0,
    Ondemand,
    Ebs,
    Pes,
    Oracle,
};

/** Scheduler display name. */
const char *schedulerKindName(SchedulerKind kind);

/**
 * Parse a scheduler name (case-insensitive display name, e.g. "pes",
 * "EBS", "interactive"); nullopt when unknown.
 */
std::optional<SchedulerKind> schedulerKindFromName(const std::string &name);

} // namespace pes

#endif // PES_CORE_SCHEDULER_KIND_HH
