#include "sweep_batch.hh"

#include <map>
#include <tuple>

#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "workload/program.hh"
#include "workload/profile.hh"

namespace pri::sim
{

namespace
{

/** Committed-path slack past warmup + measure: the final cycle of a
 *  run can overshoot the commit target by a commit-width's worth of
 *  instructions, and wrong-path fetches past the last committed
 *  instruction still read the tape while on-path. Cheap insurance —
 *  entries are ~100B and off-tape reads just fall back to live
 *  generation. */
constexpr uint64_t kTapeSlack = 4096;

/** This worker thread's lane arena. Batches on one thread are
 *  strictly sequential and each lane is destroyed before the next
 *  is built, so drain() may rewind it before every lane. */
LaneArena &
workerArena()
{
    static thread_local LaneArena arena;
    return arena;
}

} // namespace

unsigned
defaultBatchLanes()
{
    return 16;
}

bool
batchable(const RunParams &params)
{
    return params.injectFault == core::InjectedFault::None &&
        !params.injectFreeWithoutInline &&
        params.injectTransientFails == 0;
}

std::vector<BatchGroup>
formBatches(const std::vector<RunParams> &all,
            const std::vector<size_t> &pending, unsigned lanes)
{
    PRI_ASSERT(lanes >= 1);
    using Key = std::tuple<std::string, uint64_t, uint64_t, uint64_t>;
    std::vector<BatchGroup> groups;
    // key -> index into groups of that key's currently-open group
    std::map<Key, size_t> open;
    for (const size_t idx : pending) {
        const RunParams &p = all[idx];
        if (!batchable(p) || lanes == 1) {
            groups.push_back(BatchGroup{{idx}});
            continue;
        }
        const Key key{p.benchmark, p.seed, p.warmupInsts,
                      p.measureInsts};
        auto it = open.find(key);
        if (it == open.end() ||
            groups[it->second].indices.size() >= lanes) {
            groups.push_back(BatchGroup{});
            open[key] = groups.size() - 1;
            it = open.find(key);
        }
        groups[it->second].indices.push_back(idx);
    }
    return groups;
}

SweepBatch::SweepBatch(const std::vector<RunParams> &all,
                       const BatchGroup &group)
    : all(all), group(group)
{
}

SweepBatch::~SweepBatch() = default;

void
SweepBatch::prepare()
{
    PRI_ASSERT(!group.indices.empty());
    const RunParams &first = all[group.indices.front()];

    FlightRecorder &fr = flightRecorder();
    fr.clear();
    fr.setContext(
        fmtStr("batch x{} {}", group.indices.size(),
               paramsSummary(first))
            .c_str());

    const auto &profile = workload::profileByName(first.benchmark);
    shared.program =
        std::make_shared<const workload::SyntheticProgram>(
            profile, first.seed);

    // One trace acquisition and one committed-path tape serve every
    // lane.
    shared.traces =
        workload::trace::TraceCache::global().acquire(*shared.program);
    tape = std::make_unique<workload::ReplayTape>(
        *shared.program, shared.traces.get(),
        first.warmupInsts + first.measureInsts + kTapeSlack);
    shared.tape = tape.get();
}

void
SweepBatch::drain()
{
    FlightRecorder &fr = flightRecorder();
    LaneArena &arena = workerArena();
    outcomes.resize(group.indices.size());
    for (size_t i = 0; i < group.indices.size(); ++i) {
        const RunParams &p = all[group.indices[i]];
        LaneOutcome &out = outcomes[i];
        // Each lane starts its own forensics trail, as a serial
        // simulate() does.
        fr.clear();
        fr.setContext(paramsSummary(p).c_str());
        // The previous lane's machine is gone; reuse its slabs.
        arena.reset();
        try {
            ScopedErrorCapture capture;
            SimInstance inst(p, &shared, &arena);
            inst.step(SimInstance::kNoLimit);
            out.result = inst.finish();
        } catch (const core::ProgressStallError &e) {
            out.stalled = true;
            out.error = e.what();
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown exception";
        }
    }
}

std::vector<LaneOutcome>
SweepBatch::finalize()
{
    return std::move(outcomes);
}

} // namespace pri::sim
