/**
 * @file
 * On-disk trace corpus: a directory of .ptrc files plus a JSON manifest.
 *
 * The manifest (manifest.json) indexes every trace by (app, device,
 * user seed) and carries the events-section checksum, so a corpus can be
 * validated without trusting file names. Iteration is streaming: one
 * trace is resident at a time, so million-session corpora never fully
 * load into memory. All failure paths return diagnostics instead of
 * crashing — a corpus fetched from another machine (or a truncated
 * download) must degrade to a readable error, not UB.
 *
 * Mutating calls (add/save) are single-threaded by design; concurrent
 * readers of an opened store are safe because lookups never touch disk
 * and loads open independent file handles.
 */

#ifndef PES_CORPUS_CORPUS_STORE_HH
#define PES_CORPUS_CORPUS_STORE_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "corpus/trace_format.hh"
#include "util/integrity.hh"

namespace pes {

/** Corpus validation finding (shared classification, see
 *  util/integrity.hh). */
using CorpusProblem = IntegrityProblem;

/** One manifest row: where a recorded trace lives and what it holds. */
struct CorpusEntry
{
    /** File name relative to the corpus directory. */
    std::string file;
    std::string app;
    /** Platform name the trace was synthesized against. */
    std::string device;
    uint64_t userSeed = 0;
    uint64_t eventCount = 0;
    /** Events-section checksum (see traceChecksum). */
    uint64_t checksum = 0;
};

/**
 * A directory of recorded traces with a manifest index.
 *
 * A corpus is either *whole* (one manifest.json) or *segmented*: the
 * manifest split into "manifest.seg-<k>-of-<n>.json" files, each
 * holding the entries whose hashed user seed lands in segment k (see
 * segmentOf). Segmentation is pure manifest bookkeeping — the .ptrc
 * files never move — so shard() is O(manifest), and open() presents a
 * complete segment set as one logical corpus, byte-identical to the
 * whole manifest for every reader.
 */
class CorpusStore
{
  public:
    /** Manifest schema version. */
    static constexpr int kManifestVersion = 1;
    /** Manifest file name inside the corpus directory. */
    static constexpr const char *kManifestName = "manifest.json";

    /**
     * Open an existing corpus. Reads manifest.json when present;
     * otherwise discovers a complete "manifest.seg-<k>-of-<n>.json"
     * segment set and merges it into one logical corpus (an incomplete
     * or mixed set is an error). nullopt with @p error set when the
     * directory or manifest is unusable.
     */
    static std::optional<CorpusStore> open(const std::string &dir,
                                          std::string *error);

    /**
     * Open exactly one segment manifest of an @p n-way split —
     * streaming per-segment validation opens segments one at a time so
     * memory stays bounded by the largest segment, not the corpus.
     * Entries in the wrong segment are reported by validate() as
     * Mismatch problems, not here.
     */
    static std::optional<CorpusStore> openSegment(const std::string &dir,
                                                  int k, int n,
                                                  std::string *error);

    /** Segment manifest file name: "manifest.seg-<k>-of-<n>.json". */
    static std::string segmentManifestName(int k, int n);

    /**
     * The segment of an @p segments-way split that @p user_seed belongs
     * to. Hashed (not modulo the raw seed) so structured seed sequences
     * still spread evenly; deterministic, so any machine re-derives the
     * same split.
     */
    static int segmentOf(uint64_t user_seed, int segments);

    /**
     * Split this corpus's manifest into @p segments hashed-seed segment
     * manifests and retire manifest.json (each segment written
     * atomically, the whole-manifest removal last — a crash part-way
     * leaves manifest.json intact and open() still sees the whole
     * corpus). The in-memory store keeps serving all entries.
     */
    bool shard(int segments, std::string *error);

    /**
     * Create a new corpus directory (parents included) with an empty
     * manifest; opening an existing corpus this way keeps its entries.
     */
    static std::optional<CorpusStore> create(const std::string &dir,
                                             std::string *error);

    /** The corpus directory. */
    const std::string &dir() const { return dir_; }

    /** Manifest rows, materialized in canonical (app, device, seed)
     *  order. By value: adds never invalidate a snapshot. */
    std::vector<CorpusEntry> entries() const;

    /** Entry lookup; nullptr when the corpus has no such trace. */
    const CorpusEntry *find(const std::string &app,
                            const std::string &device,
                            uint64_t user_seed) const;

    /**
     * Record @p trace: writes the .ptrc file and upserts the manifest
     * row keyed on (app, provenance.device, trace.userSeed). The
     * manifest itself is persisted by save().
     */
    bool add(const InteractionTrace &trace,
             const TraceProvenance &provenance, std::string *error);

    /** Persist the manifest (atomically via a temp file + rename). */
    bool save(std::string *error) const;

    /** Load one entry's trace; header must match the manifest row and
     *  the trace must pass replayableTrace(). */
    std::optional<InteractionTrace> load(const CorpusEntry &entry,
                                         std::string *error) const;

    /**
     * Cheap integrity check of one entry: the file must open and its
     * header must match the manifest row — the events payload is never
     * decoded or checksummed. What capped-cache corpus replay uses to
     * fail early on every planned trace without thrashing the cache.
     */
    bool verifyHeader(const CorpusEntry &entry, std::string *error) const;

    /**
     * Streaming iteration in canonical order: @p fn gets each entry with
     * its freshly-loaded trace; return false from @p fn to stop early.
     * Returns false (with @p error) on the first unreadable entry.
     */
    bool forEach(
        const std::function<bool(const CorpusEntry &,
                                 const InteractionTrace &)> &fn,
        std::string *error) const;

    /**
     * Full integrity pass: every manifest row's file must exist, parse,
     * match the row (app/device/seed/count/checksum), and decode with a
     * valid checksum into a replayable trace (an unreplayable one is
     * Corrupt). Appends one classified problem per finding —
     * missing files, corrupt content, and manifest mismatches are told
     * apart so CI can gate on distinct exit codes. Returns true when
     * the corpus is clean.
     */
    bool validate(std::vector<CorpusProblem> &problems) const;

    /** Message-only convenience overload of validate(). */
    bool validate(std::vector<std::string> &problems) const;

    /** Segment index when opened via openSegment(), -1 otherwise. */
    int segmentIndex() const { return segIndex_; }
    /** Segment count when opened from segments (openSegment or a
     *  discovered set), 0 for a whole-manifest corpus. */
    int segmentCount() const { return segCount_; }

  private:
    /** (app, device, seed): tuple order IS the canonical entry order,
     *  so the map keeps entries sorted with O(log N) adds and find()
     *  pointers that stay valid across later adds (node stability). */
    using Key = std::tuple<std::string, std::string, uint64_t>;

    CorpusStore() = default;

    bool loadManifest(std::string *error);
    bool loadManifestFile(const std::string &path, int seg_k, int seg_n,
                          std::string *error);
    std::string pathOf(const CorpusEntry &entry) const;

    std::string dir_;
    std::map<Key, CorpusEntry> entries_;
    /** File name -> owning key: detects slug collisions between
     *  distinct keys before one overwrites the other's recording. */
    std::map<std::string, Key> fileToKey_;
    int segIndex_ = -1;
    int segCount_ = 0;
};

} // namespace pes

#endif // PES_CORPUS_CORPUS_STORE_HH
