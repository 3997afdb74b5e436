/**
 * @file
 * Trace-set construction for training and evaluation.
 *
 * Training traces and evaluation traces come from disjoint user-seed
 * ranges, mirroring the paper's protocol: "all the evaluation traces are
 * different from the training traces ... we collect new user traces for
 * evaluation" (Sec. 6.1). Built apps are cached so every trace of an app
 * shares identical page DOMs.
 */

#ifndef PES_TRACE_GENERATOR_HH
#define PES_TRACE_GENERATOR_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/acmp.hh"
#include "trace/app_profile.hh"
#include "trace/trace.hh"
#include "trace/user_model.hh"

namespace pes {

/**
 * Builds apps (cached) and generates seeded trace sets.
 */
class TraceGenerator
{
  public:
    /** First user seed of the training population. */
    static constexpr uint64_t kTrainingSeedBase = 1000;
    /** Training sessions per seen app (>100 across the 12 seen apps). */
    static constexpr int kTrainingTracesPerApp = 9;
    /** First user seed of the evaluation population (disjoint users). */
    static constexpr uint64_t kEvaluationSeedBase = 9000;
    /** Evaluation sessions per app (paper Sec. 6.1: three). */
    static constexpr int kEvalTracesPerApp = 3;

    explicit TraceGenerator(const AcmpPlatform &platform);

    /** The generator keeps a pointer to @p platform; a temporary would
     *  dangle by the first generate() call. */
    explicit TraceGenerator(AcmpPlatform &&) = delete;

    /** The (cached) synthesized application for @p profile. */
    const WebApp &appFor(const AppProfile &profile);

    /** One session of user @p user_seed on @p profile. @p trait_scale
     *  optionally scales the seed-sampled UserParams (population
     *  cohorts); null = the homogeneous i.i.d. population. */
    InteractionTrace generate(const AppProfile &profile,
                              uint64_t user_seed,
                              const UserParams *trait_scale = nullptr);

    /** @p count training sessions from the training user population. */
    std::vector<InteractionTrace>
    trainingSet(const AppProfile &profile, int count);

    /** @p count evaluation sessions from fresh users. */
    std::vector<InteractionTrace>
    evaluationSet(const AppProfile &profile, int count);

    /** The platform traces are repaired against. */
    const AcmpPlatform &platform() const { return *platform_; }

  private:
    const AcmpPlatform *platform_;
    std::unordered_map<std::string, std::unique_ptr<WebApp>> apps_;
};

} // namespace pes

#endif // PES_TRACE_GENERATOR_HH
