/**
 * @file
 * SweepBatch: K compatible sweep points simulated as lanes of one
 * batch off a shared workload replay (DESIGN.md §14).
 *
 * A sweep grid re-simulates the same (benchmark, seed) once per
 * scheme × width × register-count point; everything the front end
 * derives from the program alone — block decode, micro-trace
 * pointer chasing, generator parameter folds — is identical across
 * those points. A batch therefore shares one SyntheticProgram, one
 * compiled ProgramTraces acquisition, and one committed-path
 * ReplayTape across its lanes, and each lane re-derives only what
 * its own timing diverges on (wrong-path fetches).
 *
 * Lanes are independent serial simulations, so a batch runs them
 * one at a time, in group order: each lane is built in the worker
 * thread's single LaneArena, run to completion, finished, and
 * destroyed before the next lane is built. Only one lane's machine
 * is ever live per worker. Results are byte-identical to serial
 * execution: the tape holds exactly what live generation would
 * produce.
 */

#ifndef PRI_SIM_BATCH_SWEEP_BATCH_HH
#define PRI_SIM_BATCH_SWEEP_BATCH_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim_instance.hh"

namespace pri::sim
{

/** Lane count used for "auto" (--batch 0): points per group is
 *  bounded by the grid shape, so this just caps how many points
 *  one tape build serves. */
unsigned defaultBatchLanes();

/**
 * May this point share a batch? Fault-injection points must run the
 * legacy serial path: a planted fault perturbs walker state (e.g.
 * StaleWalkerGidx), and replaying the healthy tape at the perturbed
 * index would produce a different (less buggy) stream than the
 * legacy live generation the fault-detection tests pin down.
 */
bool batchable(const RunParams &params);

/** One formed batch: original submission indices of its lanes. */
struct BatchGroup
{
    std::vector<size_t> indices;
};

/**
 * Group @p pending (indices into @p all, submission order) into
 * batches of at most @p lanes compatible points. Compatibility key:
 * (benchmark, seed, warmupInsts, measureInsts) — lanes must walk
 * the same committed path for the same distance to share the tape.
 * Unbatchable points come back as singleton groups. Group order is
 * deterministic: first-seen-key order, overflow starting new groups.
 */
std::vector<BatchGroup>
formBatches(const std::vector<RunParams> &all,
            const std::vector<size_t> &pending, unsigned lanes);

/** What one lane produced: a result or the error that ended it. */
struct LaneOutcome
{
    RunResult result;
    std::string error; ///< empty on success (unprefixed)
    bool stalled = false;

    bool ok() const { return error.empty(); }
};

/**
 * One batch in flight. Lifecycle: prepare() builds the shared
 * workload, drain() runs every lane to completion one at a time
 * (the zero-steady-state-allocation replay loop; perf_smoke
 * measures exactly this window), and finalize() hands back the
 * per-lane outcomes. Runs entirely on the calling thread.
 */
class SweepBatch
{
  public:
    SweepBatch(const std::vector<RunParams> &all,
               const BatchGroup &group);
    ~SweepBatch();

    SweepBatch(const SweepBatch &) = delete;
    SweepBatch &operator=(const SweepBatch &) = delete;

    /** Build the shared program, traces and replay tape. */
    void prepare();

    /** For each lane in group order: build it in this thread's
     *  arena, step it to completion and finish it. Lane errors are
     *  captured into that lane's outcome, not thrown. */
    void drain();

    /** Per-lane outcomes, in group-lane order (same order as
     *  group.indices). */
    std::vector<LaneOutcome> finalize();

  private:
    const std::vector<RunParams> &all;
    BatchGroup group;
    SharedWorkload shared;
    std::unique_ptr<workload::ReplayTape> tape;
    std::vector<LaneOutcome> outcomes;
};

} // namespace pri::sim

#endif // PRI_SIM_BATCH_SWEEP_BATCH_HH
