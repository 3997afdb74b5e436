#include "corpus/corpus_store.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/binary_io.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace fs = std::filesystem;

namespace pes {

namespace {

/** Salt decorrelating the segment split from every other consumer of
 *  the user seed (job hashing, trait sampling, ...). */
constexpr uint64_t kSegmentSalt = 0x5e60c047'ed5eed5ull;

void
setError(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
}

/** Parse "manifest.seg-<k>-of-<n>.json"; false for any other name. */
bool
parseSegmentName(const std::string &name, int *k, int *n)
{
    int pk = -1, pn = -1;
    char tail = '\0';
    if (std::sscanf(name.c_str(), "manifest.seg-%d-of-%d.jso%c", &pk,
                    &pn, &tail) != 3 ||
        tail != 'n' || pk < 0 || pn < 1 || pk >= pn)
        return false;
    if (name != CorpusStore::segmentManifestName(pk, pn))
        return false;  // reject zero-padded / suffixed variants
    *k = pk;
    *n = pn;
    return true;
}

/** File-name-safe slug: lowercase alnum, everything else '-'. */
std::string
slugOf(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        out += std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '-';
    }
    return out;
}

std::string
manifestText(const std::vector<CorpusEntry> &entries)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"version\": " << CorpusStore::kManifestVersion << ",\n";
    os << "  \"traces\": [";
    for (size_t i = 0; i < entries.size(); ++i) {
        const CorpusEntry &e = entries[i];
        os << (i ? ",\n" : "\n");
        os << "    {\"file\": \"" << jsonEscape(e.file) << "\", \"app\": \""
           << jsonEscape(e.app) << "\", \"device\": \""
           << jsonEscape(e.device) << "\", \"user_seed\": " << e.userSeed
           << ", \"events\": " << e.eventCount
           << ", \"checksum\": " << e.checksum << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

/**
 * The single source of the header-vs-manifest-row checks (and their
 * diagnostics) shared by load(), verifyHeader() and validate(): a
 * mismatch one path detects must be the mismatch every path detects.
 */
std::optional<CorpusProblem>
headerProblem(const PtrcHeader &h, const CorpusEntry &entry)
{
    if (h.app != entry.app || h.userSeed != entry.userSeed ||
        h.provenance.device != entry.device) {
        return CorpusProblem{CorpusProblem::Kind::Mismatch,
                             entry.file +
                                 ": header does not match the manifest "
                                 "row (app/device/seed)"};
    }
    if (h.eventsChecksum != entry.checksum) {
        return CorpusProblem{CorpusProblem::Kind::Mismatch,
                             entry.file +
                                 ": checksum differs from the manifest "
                                 "(stale or swapped file)"};
    }
    return std::nullopt;
}

/**
 * The one trace read shared by load() and validate(): open the file,
 * match its header to the manifest row, decode, and require a
 * replayable trace. On failure @p problem says why, classified.
 */
std::optional<InteractionTrace>
readEntryTrace(const std::string &path, const CorpusEntry &entry,
               CorpusProblem &problem)
{
    TraceReader reader;
    if (!reader.open(path)) {
        problem = {CorpusProblem::Kind::Corrupt,
                   entry.file + ": " + reader.error()};
        return std::nullopt;
    }
    if (auto mismatch = headerProblem(reader.header(), entry)) {
        problem = std::move(*mismatch);
        return std::nullopt;
    }
    auto trace = reader.readTrace();
    if (!trace) {
        problem = {CorpusProblem::Kind::Corrupt,
                   entry.file + ": " + reader.error()};
        return std::nullopt;
    }
    std::string why;
    if (!replayableTrace(*trace, &why)) {
        problem = {CorpusProblem::Kind::Corrupt,
                   entry.file + ": invalid trace: " + why};
        return std::nullopt;
    }
    return trace;
}

} // namespace

std::optional<CorpusStore>
CorpusStore::open(const std::string &dir, std::string *error)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        setError(error, "'" + dir + "' is not a directory");
        return std::nullopt;
    }
    CorpusStore store;
    store.dir_ = dir;
    if (fs::exists(fs::path(dir) / kManifestName, ec)) {
        if (!store.loadManifest(error))
            return std::nullopt;
        return store;
    }

    // No whole manifest: discover a segment set. All segment files must
    // agree on one n and cover 0..n-1 — a partial copy must fail here,
    // not silently replay a fraction of the corpus.
    std::vector<bool> seen;
    int seg_count = 0;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        int k = 0, n = 0;
        if (!parseSegmentName(de.path().filename().string(), &k, &n))
            continue;
        if (seg_count == 0) {
            seg_count = n;
            seen.assign(static_cast<size_t>(n), false);
        } else if (n != seg_count) {
            setError(error, "'" + dir + "' mixes segment sets (" +
                     std::to_string(seg_count) + "-way and " +
                     std::to_string(n) + "-way manifests)");
            return std::nullopt;
        }
        seen[static_cast<size_t>(k)] = true;
    }
    if (seg_count == 0) {
        setError(error, "no manifest: '" + dir + "' holds neither " +
                 kManifestName + " nor a manifest segment set");
        return std::nullopt;
    }
    for (int k = 0; k < seg_count; ++k) {
        if (!seen[static_cast<size_t>(k)]) {
            setError(error, "'" + dir + "' segment set is incomplete: " +
                     segmentManifestName(k, seg_count) + " is missing");
            return std::nullopt;
        }
    }
    for (int k = 0; k < seg_count; ++k) {
        const std::string path =
            (fs::path(dir) / segmentManifestName(k, seg_count)).string();
        if (!store.loadManifestFile(path, k, seg_count, error))
            return std::nullopt;
    }
    store.segCount_ = seg_count;
    return store;
}

std::optional<CorpusStore>
CorpusStore::openSegment(const std::string &dir, int k, int n,
                         std::string *error)
{
    if (n < 1 || k < 0 || k >= n) {
        setError(error, "segment " + std::to_string(k) + "/" +
                 std::to_string(n) + " is out of range");
        return std::nullopt;
    }
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        setError(error, "'" + dir + "' is not a directory");
        return std::nullopt;
    }
    CorpusStore store;
    store.dir_ = dir;
    const std::string path =
        (fs::path(dir) / segmentManifestName(k, n)).string();
    if (!store.loadManifestFile(path, -1, 0, error))
        return std::nullopt;
    store.segIndex_ = k;
    store.segCount_ = n;
    return store;
}

std::string
CorpusStore::segmentManifestName(int k, int n)
{
    return "manifest.seg-" + std::to_string(k) + "-of-" +
        std::to_string(n) + ".json";
}

int
CorpusStore::segmentOf(uint64_t user_seed, int segments)
{
    return static_cast<int>(hashCombine(user_seed, kSegmentSalt) %
                            static_cast<uint64_t>(segments));
}

bool
CorpusStore::shard(int segments, std::string *error)
{
    if (segments < 1 || segments > 1000000) {
        setError(error, "--segments must be in [1, 1e6]");
        return false;
    }
    std::vector<std::vector<CorpusEntry>> buckets(
        static_cast<size_t>(segments));
    for (const auto &[key, entry] : entries_) {
        (void)key;
        buckets[static_cast<size_t>(segmentOf(entry.userSeed, segments))]
            .push_back(entry);
    }
    for (int k = 0; k < segments; ++k) {
        const std::string path =
            (fs::path(dir_) / segmentManifestName(k, segments)).string();
        if (!writeFileAtomic(path,
                             manifestText(buckets[static_cast<size_t>(k)]),
                             error))
            return false;
    }
    // Retire the whole manifest last: open() prefers it, so a crash
    // before this point leaves the corpus whole and consistent.
    std::error_code ec;
    fs::remove(fs::path(dir_) / kManifestName, ec);
    if (ec) {
        setError(error, "cannot remove " + std::string(kManifestName) +
                 ": " + ec.message());
        return false;
    }
    return true;
}

std::optional<CorpusStore>
CorpusStore::create(const std::string &dir, std::string *error)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        setError(error,
                 "cannot create '" + dir + "': " + ec.message());
        return std::nullopt;
    }
    if (fs::exists(fs::path(dir) / kManifestName, ec))
        return open(dir, error);
    CorpusStore store;
    store.dir_ = dir;
    if (!store.save(error))
        return std::nullopt;
    return store;
}

bool
CorpusStore::loadManifest(std::string *error)
{
    entries_.clear();
    fileToKey_.clear();
    return loadManifestFile((fs::path(dir_) / kManifestName).string(),
                            -1, 0, error);
}

/**
 * Parse one manifest file and append its rows. When @p seg_n > 0 the
 * file is segment @p seg_k of an @p seg_n-way split, and every row's
 * seed must hash into that segment — a wrong-segment entry means the
 * split and this build's hash disagree, so fail loudly instead of
 * desynchronizing shard-local validation.
 */
bool
CorpusStore::loadManifestFile(const std::string &path, int seg_k,
                              int seg_n, std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        setError(error, "no manifest: cannot open '" + path + "'");
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    const auto root = parseJson(buf.str());
    if (!root || root->kind != JsonValue::Kind::Object) {
        setError(error, "malformed manifest '" + path + "'");
        return false;
    }
    const JsonValue *version = root->find("version");
    if (!version ||
        static_cast<int>(version->number()) != kManifestVersion) {
        setError(error, "manifest '" + path + "': unsupported version " +
                 (version ? version->str : std::string("<missing>")) +
                 " (this build reads " + std::to_string(kManifestVersion) +
                 ")");
        return false;
    }
    const JsonValue *traces = root->find("traces");
    if (!traces || traces->kind != JsonValue::Kind::Array) {
        setError(error, "manifest '" + path + "': no traces array");
        return false;
    }

    for (const JsonValue &tv : traces->arr) {
        if (tv.kind != JsonValue::Kind::Object) {
            setError(error, "manifest '" + path + "': bad trace row");
            return false;
        }
        CorpusEntry e;
        const JsonValue *file = tv.find("file");
        const JsonValue *app = tv.find("app");
        const JsonValue *device = tv.find("device");
        const JsonValue *seed = tv.find("user_seed");
        if (!file || !app || !device || !seed || file->str.empty()) {
            setError(error, "manifest '" + path +
                     "': trace row missing file/app/device/user_seed");
            return false;
        }
        e.file = file->str;
        e.app = app->str;
        e.device = device->str;
        e.userSeed = seed->number64();
        if (const JsonValue *v = tv.find("events"))
            e.eventCount = v->number64();
        if (const JsonValue *v = tv.find("checksum"))
            e.checksum = v->number64();
        if (seg_n > 0 && segmentOf(e.userSeed, seg_n) != seg_k) {
            setError(error, "manifest '" + path + "': " + e.file +
                     " (seed " + std::to_string(e.userSeed) +
                     ") belongs in segment " +
                     std::to_string(segmentOf(e.userSeed, seg_n)) +
                     ", not " + std::to_string(seg_k));
            return false;
        }
        Key key{e.app, e.device, e.userSeed};
        fileToKey_[e.file] = key;
        entries_[std::move(key)] = std::move(e);
    }
    return true;
}

std::string
CorpusStore::pathOf(const CorpusEntry &entry) const
{
    return (fs::path(dir_) / entry.file).string();
}

std::vector<CorpusEntry>
CorpusStore::entries() const
{
    std::vector<CorpusEntry> out;
    out.reserve(entries_.size());
    for (const auto &[key, entry] : entries_) {
        (void)key;
        out.push_back(entry);
    }
    return out;
}

const CorpusEntry *
CorpusStore::find(const std::string &app, const std::string &device,
                  uint64_t user_seed) const
{
    // Map nodes are stable: the pointer survives later adds.
    const auto it = entries_.find(Key{app, device, user_seed});
    return it == entries_.end() ? nullptr : &it->second;
}

bool
CorpusStore::add(const InteractionTrace &trace,
                 const TraceProvenance &provenance, std::string *error)
{
    CorpusEntry entry;
    entry.app = trace.appName;
    entry.device = provenance.device;
    entry.userSeed = trace.userSeed;
    entry.eventCount = trace.events.size();
    entry.checksum = traceChecksum(trace);
    entry.file = slugOf(trace.appName) + "-" + slugOf(provenance.device) +
        "-u" + std::to_string(trace.userSeed) + ".ptrc";

    // Slugs are lossy ("social_feed" and "social-feed" share one):
    // refuse to let a different key overwrite this file, BEFORE the
    // write — the caller renames, nothing is clobbered.
    Key key{entry.app, entry.device, entry.userSeed};
    const auto fit = fileToKey_.find(entry.file);
    if (fit != fileToKey_.end() && fit->second != key) {
        const auto &[app, device, seed] = fit->second;
        setError(error, "'" + entry.file +
                 "': file name collision with the recording of (" + app +
                 ", " + device + ", seed " + std::to_string(seed) +
                 ") — app/device names must have distinct slugs");
        return false;
    }

    if (!TraceWriter::writeFile(trace, provenance, pathOf(entry), error))
        return false;

    fileToKey_[entry.file] = key;
    entries_[std::move(key)] = std::move(entry);
    return true;
}

bool
CorpusStore::save(std::string *error) const
{
    if (segIndex_ >= 0) {
        // A one-segment view must not write manifest.json: open()
        // prefers the whole manifest, so saving would shadow the other
        // segments' entries for every future reader.
        setError(error, "cannot save a single-segment corpus view");
        return false;
    }
    const std::string path = (fs::path(dir_) / kManifestName).string();
    return writeFileAtomic(path, manifestText(entries()), error);
}

std::optional<InteractionTrace>
CorpusStore::load(const CorpusEntry &entry, std::string *error) const
{
    CorpusProblem problem;
    auto trace = readEntryTrace(pathOf(entry), entry, problem);
    if (!trace)
        setError(error, problem.message);
    return trace;
}

bool
CorpusStore::verifyHeader(const CorpusEntry &entry,
                          std::string *error) const
{
    TraceReader reader;
    if (!reader.open(pathOf(entry))) {
        setError(error, entry.file + ": " + reader.error());
        return false;
    }
    if (const auto problem = headerProblem(reader.header(), entry)) {
        setError(error, problem->message);
        return false;
    }
    return true;
}

bool
CorpusStore::forEach(
    const std::function<bool(const CorpusEntry &,
                             const InteractionTrace &)> &fn,
    std::string *error) const
{
    for (const auto &[key, entry] : entries_) {
        (void)key;
        const auto trace = load(entry, error);
        if (!trace)
            return false;
        if (!fn(entry, *trace))
            return true;
    }
    return true;
}

bool
CorpusStore::validate(std::vector<CorpusProblem> &problems) const
{
    const size_t before = problems.size();
    for (const auto &[key, entry] : entries_) {
        (void)key;
        if (segIndex_ >= 0 &&
            segmentOf(entry.userSeed, segCount_) != segIndex_) {
            problems.push_back(
                {CorpusProblem::Kind::Mismatch,
                 entry.file + ": seed " + std::to_string(entry.userSeed) +
                     " belongs in segment " +
                     std::to_string(segmentOf(entry.userSeed, segCount_)) +
                     ", not " + std::to_string(segIndex_)});
        }
        std::error_code ec;
        if (!fs::exists(pathOf(entry), ec)) {
            problems.push_back(
                {CorpusProblem::Kind::MissingFile,
                 entry.file + ": referenced by the manifest but missing "
                              "on disk"});
            continue;
        }
        CorpusProblem problem;
        const auto trace = readEntryTrace(pathOf(entry), entry, problem);
        if (!trace) {
            problems.push_back(std::move(problem));
            continue;
        }
        if (trace->events.size() != entry.eventCount) {
            problems.push_back(
                {CorpusProblem::Kind::Mismatch,
                 entry.file + ": manifest says " +
                     std::to_string(entry.eventCount) +
                     " events, file holds " +
                     std::to_string(trace->events.size())});
        }
    }
    return problems.size() == before;
}

bool
CorpusStore::validate(std::vector<std::string> &problems) const
{
    std::vector<CorpusProblem> classified;
    const bool clean = validate(classified);
    for (CorpusProblem &p : classified)
        problems.push_back(std::move(p.message));
    return clean;
}

} // namespace pes
