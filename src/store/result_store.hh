/**
 * @file
 * Persistent, content-addressed campaign result store.
 *
 * The store is a directory of records named by fingerprint — git
 * object style, two hex digits of fan-out then the remaining thirty
 * (`<dir>/ab/cdef...0123.lsr`) — so the filesystem *is* the index and
 * two stores can be merged with `cp -r`. Writes are atomic: the
 * record is written to a temp file in the same directory and
 * rename()d into place, so readers (including concurrent campaigns
 * sharing a store) only ever see whole records. A record that fails
 * any validation — magic, schema version, fingerprint, size, CRC —
 * reads as a miss and is re-simulated; corruption can cost time,
 * never correctness.
 *
 * Interaction contracts:
 *  - trace collection (--trace): a cached hit has no loop events to
 *    contribute, so the campaign executor bypasses both the store and
 *    the in-process memo while collection is on — traces always come
 *    from real simulations. Traced results are not inserted either,
 *    keeping the traced path completely inert.
 *  - tick profiling (--profile): hits legitimately cost zero kernel
 *    time, so profiling stays usable with a warm store (the profile
 *    covers only the runs that actually simulated).
 *  - failed (fail-soft) results are memoized in-process but never
 *    persisted: a wedge is deterministic within one binary, but
 *    keeping failures out of the store means a later model epoch or
 *    wider budget always gets to retry them.
 *
 * The in-process memo (ResultMemo) is the store's RAM tier and also
 * stands alone: with no store directory configured it still
 * deduplicates identical plan points across every campaign a binary
 * runs (figure + ablation suites share many cells).
 */

#ifndef LOOPSIM_STORE_RESULT_STORE_HH
#define LOOPSIM_STORE_RESULT_STORE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "store/fingerprint.hh"

namespace loopsim::store
{

/** Store activity counters (all cumulative since construction). */
struct StoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    /** Records rejected by validation: bad magic/schema/fingerprint,
     *  short file, or CRC mismatch. Each also counts as a miss. */
    std::uint64_t crcRejects = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    void accumulate(const StoreStats &other);
};

/** A directory-backed record store. Thread-safe. */
class ResultStore
{
  public:
    /** Opens (and creates, if needed) the store at @p directory.
     *  fatal() when the directory cannot be created. */
    explicit ResultStore(std::string directory);

    /** Fetch the record for @p fp; nullopt on miss or any validation
     *  failure (counted in stats().crcRejects). */
    std::optional<RunResult> lookup(const Fingerprint &fp);

    /** Atomically persist @p result under @p fp (temp file + rename).
     *  Returns false — without throwing — when the write fails. */
    bool insert(const Fingerprint &fp, const RunResult &result);

    const std::string &dir() const { return root; }
    StoreStats stats() const;

    /** Record file path for @p fp (exposed for tests and the CLI). */
    std::string recordPath(const Fingerprint &fp) const;

  private:
    std::string root;
    mutable std::mutex mutex;
    StoreStats counters;
};

/**
 * In-process memo: fingerprint -> result, shared by every campaign in
 * the binary. Cached copies are stripped of loopEvents/tickProfile
 * (observability products of an actual run).
 */
class ResultMemo
{
  public:
    std::optional<RunResult> lookup(const Fingerprint &fp);
    void insert(const Fingerprint &fp, const RunResult &result);
    std::size_t size() const;
    void clear();

  private:
    mutable std::mutex mutex;
    std::map<Fingerprint, RunResult> entries;
};

/** @name Process-wide store configuration
 * The campaign executor consults these. Precedence for the directory:
 * setStorePath() (the bench binaries' --store flag) > the
 * LOOPSIM_STORE environment variable > disabled. */
/// @{
void setStorePath(const std::string &dir); ///< "" disables
std::string storePath();
bool storeConfigured();
/** The process store, opened on first use; nullptr when disabled. */
ResultStore *processStore();
/** The process-wide memo (always available). */
ResultMemo &processMemo();
/** Drop the open store handle and clear the memo (tests; also lets a
 *  binary re-point LOOPSIM_STORE after setStorePath("")). */
void resetProcessStore();
/// @}

/** @name Maintenance (the loopsim-store CLI and tests) */
/// @{

/** One record file as seen by a maintenance scan. */
struct StoreEntry
{
    Fingerprint fp;
    std::string path;
    std::uint64_t bytes = 0;
    /** Schema version from the header (0 when unreadable). */
    std::uint32_t schema = 0;
    /** Fully validated (decode succeeded against the name's
     *  fingerprint). */
    bool valid = false;
    /** Decoded payload; meaningful only when valid. */
    RunResult result;
    /** Modification time (filesystem clock, seconds granularity) used
     *  only for gc eviction ordering. */
    std::int64_t mtimeSeconds = 0;
};

/** Scan every *.lsr file under @p dir, sorted by fingerprint hex.
 *  When @p decode is false only the header is inspected. */
std::vector<StoreEntry> scanStore(const std::string &dir, bool decode);

struct VerifyReport
{
    std::size_t records = 0;
    std::size_t corrupt = 0;
    std::vector<std::string> corruptPaths;
};

/** Fully validate every record (CRC included). */
VerifyReport verifyStore(const std::string &dir);

struct GcReport
{
    std::size_t scanned = 0;
    std::size_t removed = 0;
    std::uint64_t bytesBefore = 0;
    std::uint64_t bytesAfter = 0;
};

/**
 * Evict records — invalid ones first, then oldest mtime first — until
 * the store's record bytes fit in @p max_bytes. Empty fan-out
 * subdirectories are removed afterwards. Takes the store's advisory
 * lock exclusively, so it is safe to run against a store that live
 * campaigns are concurrently inserting into.
 */
GcReport gcStore(const std::string &dir, std::uint64_t max_bytes);

/** What a store directory holds (header-level scan; no CRC pass). */
struct StoreSummary
{
    std::string dir;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    /** Records whose header already disqualifies them (bad name,
     *  magic, schema, or fingerprint mismatch). */
    std::uint64_t invalid = 0;
};

StoreSummary summarizeStore(const std::string &dir);

/** The directory summary as JSON (`loopsim-store stat --json`). */
std::string storeSummaryJson(const StoreSummary &summary);
/// @}

} // namespace loopsim::store

#endif // LOOPSIM_STORE_RESULT_STORE_HH
