/**
 * @file
 * ResultStore: the pri_sweepd on-disk content-addressed result
 * cache, keyed by sim::paramsHash().
 *
 * Layout: one directory holding
 *
 *   meta            "PRISTORE1 <resultTag> <fieldCount> <paramsTag>"
 *                   — the version stamp. A codec change (new PRIJ
 *                   result field list, or a new PRIP params tag,
 *                   i.e. a params-hash audit change) makes the stamp
 *                   mismatch on open and the store invalidates
 *                   cleanly: every bucket file is deleted and the
 *                   stamp rewritten, so a stale record can never be
 *                   served under a new-format key.
 *   b<XX>.tsv       one file per hash bucket, XX = the key's top
 *                   byte in hex. Each line is one PRIJ3 record
 *                   (sim/result_codec.hh — the exact serializer the
 *                   sweep journal uses).
 *
 * Publishing rewrites the record's whole bucket to a temp file and
 * renames it into place, so readers (and a daemon killed mid-
 * publish) only ever observe a complete old or complete new bucket.
 * Loading is nevertheless torn-write tolerant — malformed lines are
 * skipped and counted — so a store tampered with or produced by a
 * pre-rename writer still yields every intact record.
 *
 * Thread-safe; the daemon's dispatcher threads publish concurrently
 * while connection threads look up.
 */

#ifndef PRI_SWEEPD_STORE_HH
#define PRI_SWEEPD_STORE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "sim/simulation.hh"

namespace pri::sweepd
{

/** Content-addressed result store (see @file). */
class ResultStore
{
  public:
    /**
     * Open (creating if absent) the store rooted at @p dir and load
     * every intact record. An existing store with a mismatching
     * version stamp is invalidated (buckets deleted) first.
     */
    explicit ResultStore(std::string dir);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &dir() const { return rootDir; }

    /** Result for @p key, if present. */
    bool lookup(uint64_t key, sim::RunResult &out) const;

    /**
     * Persist one completed point: insert into the bucket and
     * atomically rename the rewritten bucket file into place.
     * Re-publishing an existing key is a no-op (results are
     * deterministic in the key).
     */
    void publish(uint64_t key, const sim::RunResult &result);

    /** Records currently held (loaded + published). */
    size_t entries() const;

    /** Records loaded from the pre-existing directory on open. */
    size_t loadedEntries() const { return loaded; }

    /** Malformed lines skipped during the open scan. */
    size_t tornLinesSkipped() const { return torn; }

    /** True when open invalidated a stale-versioned store. */
    bool invalidatedOnOpen() const { return invalidated; }

  private:
    static unsigned bucketOf(uint64_t key) { return key >> 56; }
    std::string bucketPath(unsigned bucket) const;
    void checkVersion();
    void loadAll();
    void rewriteBucket(unsigned bucket) const;

    std::string rootDir;
    mutable std::mutex mu;
    /** Bucket index -> records. Only non-empty buckets appear. */
    std::map<unsigned, std::map<uint64_t, sim::RunResult>> buckets;
    size_t count = 0;
    size_t loaded = 0;
    size_t torn = 0;
    bool invalidated = false;
};

} // namespace pri::sweepd

#endif // PRI_SWEEPD_STORE_HH
