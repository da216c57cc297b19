/**
 * @file
 * Branch direction prediction: a combined predictor (paper Table 1)
 * made of a 4k-entry bimodal table, a 4k-entry gshare table, and a
 * 4k-entry selector, plus a 1k-entry 4-way BTB and a 16-entry return
 * address stack.
 *
 * Tables are updated at commit (correct path only). The global
 * history register is updated speculatively at predict time and
 * repaired from a snapshot on misprediction recovery; the RAS is
 * likewise snapshotted per branch and restored on squash.
 */

#ifndef PRI_BRANCH_PREDICTOR_HH
#define PRI_BRANCH_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/arena.hh"
#include "common/stats.hh"
#include "common/undo_journal.hh"

namespace pri::branch
{

/** Saturating 2-bit counter helpers. */
constexpr uint8_t
counterUpdate(uint8_t ctr, bool up)
{
    if (up)
        return ctr == 3 ? 3 : ctr + 1;
    return ctr == 0 ? 0 : ctr - 1;
}

/** Everything needed to update the tables at commit time. */
struct PredictToken
{
    bool bimodalTaken = false;
    bool gshareTaken = false;
    bool predTaken = false;
    uint64_t histAtPredict = 0; ///< history used for gshare index
};

/** Return-address-stack depth (paper Table 1). */
constexpr unsigned kRasDepth = 16;

/**
 * Restorable front-end prediction state, recorded per branch.
 *
 * This is the pooled (journal-based) form: instead of copying the
 * whole RAS array, it records only the stack geometry and the RAS
 * undo-journal position; Ras::restore() repairs the entries that
 * were overwritten since from the journal. 24 bytes per branch
 * instead of 144.
 */
struct PredictorSnapshot
{
    uint64_t history = 0;
    uint64_t rasSeq = 0; ///< RAS undo-journal position
    uint8_t rasTop = 0;
    uint8_t rasCount = 0;
};

/**
 * Full-copy form: the entire RAS array. The core never uses it; it
 * is the reference the journal-based restore is property-tested
 * against (tests/test_ckpt_pool.cpp).
 */
struct PredictorSnapshotFull
{
    uint64_t history = 0;
    std::array<uint64_t, kRasDepth> ras{};
    uint8_t rasTop = 0;
    uint8_t rasCount = 0;
};

/**
 * Combined bimodal/gshare predictor with selector.
 * All three tables have 4k 2-bit entries.
 */
class CombinedPredictor
{
  public:
    static constexpr unsigned kTableBits = 12; // 4k entries
    static constexpr unsigned kHistBits = 8;

    CombinedPredictor();

    /**
     * Predict a conditional branch at @p pc and speculatively shift
     * the predicted outcome into the history register.
     */
    PredictToken predict(uint64_t pc);

    /**
     * Commit-time table update with the actual outcome.
     * @p token must be the one produced at predict time.
     */
    void update(uint64_t pc, bool taken, const PredictToken &token);

    uint64_t history() const { return ghist; }
    void setHistory(uint64_t h) { ghist = h; }

  private:
    unsigned bimodalIndex(uint64_t pc) const;
    unsigned gshareIndex(uint64_t pc, uint64_t hist) const;

    HotVec<uint8_t> bimodal;
    HotVec<uint8_t> gshare;
    HotVec<uint8_t> selector; ///< >=2 selects gshare
    uint64_t ghist = 0;
};

/** 4-way set-associative branch target buffer (1k entries total). */
class Btb
{
  public:
    static constexpr unsigned kEntries = 1024;
    static constexpr unsigned kAssoc = 4;

    Btb();

    /** Target for @p pc if present. */
    std::optional<uint64_t> lookup(uint64_t pc) const;

    /** Install/update the target for a taken branch. */
    void update(uint64_t pc, uint64_t target);

  private:
    struct Entry
    {
        uint64_t pc = 0;
        uint64_t target = 0;
        uint64_t lruStamp = 0;
        bool valid = false;
    };

    HotVec<Entry> entries;
    uint64_t stamp = 0;
};

/**
 * 16-entry circular return address stack.
 *
 * Every push overwrites one slot; with journaling enabled (the
 * default) the pre-push value is appended to an undo journal so a
 * snapshot needs to record only {topIdx, count, journal position}.
 * Pops destroy nothing (the slot value survives), so they need no
 * journal record. The journal is bounded: the checkpoint owner trims
 * it to the oldest live snapshot via trimJournal().
 */
class Ras
{
  public:
    static constexpr unsigned kDepth = kRasDepth;

    void push(uint64_t return_pc);
    /** Pop the predicted return target (0 when empty). */
    uint64_t pop();
    uint64_t top() const;
    bool empty() const { return count == 0; }

    /** Journal-based snapshot / restore (the core's path). */
    void snapshot(PredictorSnapshot &snap) const;
    void restore(const PredictorSnapshot &snap);

    /** Full-copy snapshot / restore (the test reference). */
    void snapshot(PredictorSnapshotFull &snap) const;
    void restore(const PredictorSnapshotFull &snap);

    /**
     * Disable the undo journal when only full-copy restore will be
     * used; journal-based restore is then illegal.
     */
    void setJournaling(bool on);

    /** Current journal position (see UndoJournal::seq). */
    uint64_t journalSeq() const { return journal.seq(); }

    /** Pre-size the journal for @p live_span in-flight records. */
    void
    reserveJournal(size_t live_span)
    {
        journal.reserveForLiveSpan(live_span);
    }

    /** Drop journal records no live snapshot can unwind to. */
    void trimJournal(uint64_t min_seq) { journal.trimTo(min_seq); }

  private:
    struct Undo
    {
        uint64_t value;
        uint8_t slot;
    };

    std::array<uint64_t, kDepth> stack{};
    UndoJournal<Undo> journal;
    uint8_t topIdx = 0;
    uint8_t count = 0;
    bool journaling = true;
};

} // namespace pri::branch

#endif // PRI_BRANCH_PREDICTOR_HH
