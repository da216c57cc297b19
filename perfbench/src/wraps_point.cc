/**
 * @file
 * Point clock, linked into both benchmark binaries: wraps the three
 * SimInstance entry points every simulation point goes through
 * (sim::simulate() and the batched sweep engine alike), so each
 * point's own host time is known even when batched lanes interleave
 * on one worker thread. Three spans per point and per step quantum;
 * nothing inside the core is probed here.
 *
 * The runner also works for points outside their own calls: a sweep
 * batch builds the shared program, traces and replay tape in
 * SweepBatch::prepare() and gathers results in finalize(), and every
 * completed point is appended to the sweep journal. Those calls are
 * wrapped too and recorded as charges to the points they serve, so a
 * point costs the same host work whether it runs alone or batched.
 *
 * The constructor wrapper also runs the host-speed reference burst
 * (probe.hh) before the point's clock starts.
 *
 * CMakeLists.txt turns every PB_WRAP/__wrap_ symbol in this file
 * into a `-Wl,--wrap=<symbol>` link option.
 */

#include "probe.hh"

#include "sim/batch/sweep_batch.hh"
#include "sim/journal.hh"
#include "sim/sim_instance.hh"

using pri::sim::BatchGroup;
using pri::sim::RunParams;
using pri::sim::RunResult;
using pri::sim::SharedWorkload;
using pri::sim::SimInstance;
using pri::sim::SweepBatch;
using pri::sim::SweepJournal;

namespace
{

/** The batch a worker thread is running (one at a time) and the keys
 *  of its lanes, in lane order. */
struct CurrentBatch
{
    const SweepBatch *batch = nullptr;
    std::vector<uint64_t> keys;
};

thread_local CurrentBatch t_batch;

/** Charges the self time of a batch call (the lanes' own calls
 *  inside it excluded) to the batch's lanes when it goes out of
 *  scope. */
class BatchCharge
{
  public:
    BatchCharge(const SweepBatch *self, perfbench::Charge::Kind kind)
        : inside0(perfbench::threadPointTicks())
    {
        c.kind = kind;
        if (t_batch.batch == self)
            c.keys = t_batch.keys;
        c.start = perfbench::ticks();
    }
    ~BatchCharge()
    {
        c.end = perfbench::ticks();
        const uint64_t inside = perfbench::threadPointTicks() - inside0;
        const uint64_t span = c.end - c.start;
        c.selfTicks = span > inside ? span - inside : 0;
        perfbench::noteCharge(std::move(c));
    }
    BatchCharge(const BatchCharge &) = delete;
    BatchCharge &operator=(const BatchCharge &) = delete;

  private:
    perfbench::Charge c;
    uint64_t inside0;
};

} // namespace

extern "C" {

void __real__ZN3pri3sim11SimInstanceC1ERKNS0_9RunParamsEPKNS0_14SharedWorkloadEPNS_9LaneArenaE(
    SimInstance *, const RunParams &, const SharedWorkload *,
    pri::LaneArena *);

void
__wrap__ZN3pri3sim11SimInstanceC1ERKNS0_9RunParamsEPKNS0_14SharedWorkloadEPNS_9LaneArenaE(
    SimInstance *self, const RunParams &params,
    const SharedWorkload *shared, pri::LaneArena *arena)
{
    // Outside the point: its clock has not started.
    perfbench::referenceBurst();
    const uint64_t key = pri::sim::paramsHash(params);
    try {
        perfbench::PointScope point(self, &key, params.warmupInsts);
        perfbench::Span span(perfbench::Fn::PointCtor);
        __real__ZN3pri3sim11SimInstanceC1ERKNS0_9RunParamsEPKNS0_14SharedWorkloadEPNS_9LaneArenaE(
            self, params, shared, arena);
    } catch (...) {
        perfbench::pointAbort(self);
        throw;
    }
}

bool __real__ZN3pri3sim11SimInstance4stepEm(SimInstance *, uint64_t);

bool
__wrap__ZN3pri3sim11SimInstance4stepEm(SimInstance *self,
                                       uint64_t quantum)
{
    try {
        perfbench::PointScope point(self);
        perfbench::Span span(perfbench::Fn::PointStep);
        return __real__ZN3pri3sim11SimInstance4stepEm(self, quantum);
    } catch (...) {
        perfbench::pointAbort(self);
        throw;
    }
}

RunResult __real__ZN3pri3sim11SimInstance6finishEv(SimInstance *);

RunResult
__wrap__ZN3pri3sim11SimInstance6finishEv(SimInstance *self)
{
    RunResult r = [self] {
        perfbench::PointScope point(self);
        perfbench::Span span(perfbench::Fn::PointFinish);
        return __real__ZN3pri3sim11SimInstance6finishEv(self);
    }();
    perfbench::pointEnd(self);
    return r;
}

void __real__ZN3pri3sim10SweepBatchC1ERKSt6vectorINS0_9RunParamsESaIS3_EERKNS0_10BatchGroupE(
    SweepBatch *, const std::vector<RunParams> &, const BatchGroup &);

void
__wrap__ZN3pri3sim10SweepBatchC1ERKSt6vectorINS0_9RunParamsESaIS3_EERKNS0_10BatchGroupE(
    SweepBatch *self, const std::vector<RunParams> &all,
    const BatchGroup &group)
{
    __real__ZN3pri3sim10SweepBatchC1ERKSt6vectorINS0_9RunParamsESaIS3_EERKNS0_10BatchGroupE(
        self, all, group);
    t_batch.batch = self;
    t_batch.keys.clear();
    for (const size_t i : group.indices)
        t_batch.keys.push_back(pri::sim::paramsHash(all[i]));
}

void __real__ZN3pri3sim10SweepBatch7prepareEv(SweepBatch *);

void
__wrap__ZN3pri3sim10SweepBatch7prepareEv(SweepBatch *self)
{
    BatchCharge charge(self, perfbench::Charge::Kind::BatchPrepare);
    __real__ZN3pri3sim10SweepBatch7prepareEv(self);
}

std::vector<pri::sim::LaneOutcome>
__real__ZN3pri3sim10SweepBatch8finalizeEv(SweepBatch *);

std::vector<pri::sim::LaneOutcome>
__wrap__ZN3pri3sim10SweepBatch8finalizeEv(SweepBatch *self)
{
    BatchCharge charge(self, perfbench::Charge::Kind::BatchFinalize);
    return __real__ZN3pri3sim10SweepBatch8finalizeEv(self);
}

void __real__ZN3pri3sim12SweepJournal6recordEmRKNS0_9RunResultE(
    SweepJournal *, uint64_t, const RunResult &);

void
__wrap__ZN3pri3sim12SweepJournal6recordEmRKNS0_9RunResultE(
    SweepJournal *self, uint64_t key, const RunResult &r)
{
    perfbench::Charge c;
    c.kind = perfbench::Charge::Kind::JournalAppend;
    c.keys.push_back(key);
    c.start = perfbench::ticks();
    __real__ZN3pri3sim12SweepJournal6recordEmRKNS0_9RunResultE(self, key,
                                                              r);
    c.end = perfbench::ticks();
    c.selfTicks = c.end - c.start;
    perfbench::noteCharge(std::move(c));
}

} // extern "C"
