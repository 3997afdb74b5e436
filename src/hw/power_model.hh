/**
 * @file
 * Per-configuration power lookup table.
 *
 * The paper measures the power of every <core, frequency> combination
 * offline, persists the table to a local file and loads it when the
 * application boots (Sec. 5.3). This class reproduces that workflow: the
 * table is built from the platform's voltage/frequency curves (our stand-in
 * for the offline measurement), can be saved to and re-loaded from a plain
 * text file, and answers busy/idle power queries at runtime.
 */

#ifndef PES_HW_POWER_MODEL_HH
#define PES_HW_POWER_MODEL_HH

#include <optional>
#include <string>
#include <vector>

#include "hw/acmp.hh"
#include "util/types.hh"

namespace pes {

/**
 * Power lookup table over the platform's configurations.
 */
class PowerModel
{
  public:
    /** Build the table analytically from the platform's V/f curves. */
    explicit PowerModel(const AcmpPlatform &platform);

    /** The table keeps a pointer to @p platform; a temporary would
     *  dangle by the first busyPower() call. */
    explicit PowerModel(AcmpPlatform &&) = delete;

    /**
     * Power while the web runtime executes on @p cfg: dynamic switching
     * power plus cluster leakage at the operating voltage.
     */
    PowerMw busyPower(const AcmpConfig &cfg) const;

    /** Busy power by dense configuration index. */
    PowerMw busyPowerAt(int config_index) const;

    /**
     * Idle (clock-gated) power of the @p type cluster. Idle clusters retain
     * leakage at their floor voltage plus a small always-on component.
     */
    PowerMw idlePower(CoreType type) const
    {
        return type == CoreType::Big ? idleBig_ : idleLittle_;
    }

    /** Total platform idle power (both clusters idle). */
    PowerMw platformIdlePower() const { return idleLittle_ + idleBig_; }

    /**
     * Energy of running for @p duration on @p cfg
     * (busy power integrated over the interval).
     */
    EnergyMj busyEnergy(const AcmpConfig &cfg, TimeMs duration) const;

    /** Persist the table; returns false on I/O failure. */
    bool saveToFile(const std::string &path) const;

    /**
     * Load a previously saved table. Returns nullopt when the file is
     * missing/corrupt or does not match @p platform's configuration list.
     */
    static std::optional<PowerModel>
    loadFromFile(const std::string &path, const AcmpPlatform &platform);

  private:
    PowerModel() = default;

    std::vector<PowerMw> busy_;     // indexed by config index
    PowerMw idleLittle_ = 0.0;
    PowerMw idleBig_ = 0.0;
    const AcmpPlatform *platform_ = nullptr;
};

} // namespace pes

#endif // PES_HW_POWER_MODEL_HH
