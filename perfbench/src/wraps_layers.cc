/**
 * @file
 * Layer probes of the traced benchmark binary: one span around each
 * out-of-line entry point the core calls in another module (rename,
 * workload, branch, memory), and around OutOfOrderCore::run and
 * its constructor.
 *
 * The wrappers re-declare each member function as a free function
 * taking the object pointer first, which is how the Itanium C++ ABI
 * passes `this`; return types and parameters are the declared ones,
 * so by-value classes travel exactly as in the original call.
 *
 * CMakeLists.txt turns every PB_WRAP/PB_WRAP_STACK/__wrap_ symbol
 * in this file into a `-Wl,--wrap=<symbol>` link option. A renamed
 * or re-typed entry point fails the traced link rather than going
 * unprobed.
 */

#include "probe.hh"

#include "branch/predictor.hh"
#include "core/core.hh"
#include "memory/cache.hh"
#include "rename/rename_unit.hh"
#include "workload/program.hh"
#include "workload/trace/trace_cache.hh"
#include "workload/walker.hh"

using namespace pri;
using pri::rename::RenameUnit;
using pri::workload::Walker;

/** Forward of one entry point inside a span of type SPAN:
 *  LeafSpan (sampled) for hot calls, Span for constructors. */
#define PB_WRAP(SYM, SPAN, FN, RET, PARAMS, ARGS)                    \
    extern "C" RET __real_##SYM PARAMS;                               \
    extern "C" RET __wrap_##SYM PARAMS                                \
    {                                                                 \
        perfbench::SPAN span(perfbench::Fn::FN);                      \
        return __real_##SYM ARGS;                                     \
    }

// rename
PB_WRAP(_ZN3pri6rename10RenameUnitC1ERKNS0_12RenameConfigERNS_9StatGroupE,
        Span, RenameCtor, void,
        (RenameUnit * s, const rename::RenameConfig &c, StatGroup &g),
        (s, c, g))
PB_WRAP(_ZN3pri6rename10RenameUnit10beginCycleEm,
        LeafSpan, RenameBeginCycle,
        void, (RenameUnit * s, uint64_t cycle), (s, cycle))
PB_WRAP(_ZN3pri6rename10RenameUnit7readSrcENS_3isa5RegIdE,
        LeafSpan, RenameReadSrc, rename::SrcRead,
        (RenameUnit * s, isa::RegId r), (s, r))
PB_WRAP(_ZN3pri6rename10RenameUnit10renameDestENS_3isa5RegIdEm,
        LeafSpan, RenameRenameDest, RenameUnit::DestRename,
        (RenameUnit * s, isa::RegId r, uint64_t v), (s, r, v))
PB_WRAP(_ZN3pri6rename10RenameUnit16createCheckpointEv,
        LeafSpan, RenameCreateCkpt, rename::CkptId, (RenameUnit * s), (s))
PB_WRAP(_ZN3pri6rename10RenameUnit17resolveCheckpointEm,
        LeafSpan, RenameResolveCkpt, void, (RenameUnit * s, rename::CkptId id),
        (s, id))
PB_WRAP(_ZN3pri6rename10RenameUnit17releaseCheckpointEm,
        LeafSpan, RenameReleaseCkpt, void, (RenameUnit * s, rename::CkptId id),
        (s, id))
PB_WRAP(_ZN3pri6rename10RenameUnit17restoreCheckpointEm,
        LeafSpan, RenameRestoreCkpt, void, (RenameUnit * s, rename::CkptId id),
        (s, id))
PB_WRAP(_ZN3pri6rename10RenameUnit17discardCheckpointEm,
        LeafSpan, RenameDiscardCkpt, void, (RenameUnit * s, rename::CkptId id),
        (s, id))
PB_WRAP(_ZN3pri6rename10RenameUnit9writebackENS_3isa5RegIdEtmmb,
        LeafSpan, RenameWriteback, bool,
        (RenameUnit * s, isa::RegId d, isa::PhysRegId p, uint64_t gen,
         uint64_t value, bool narrow),
        (s, d, p, gen, value, narrow))
PB_WRAP(_ZN3pri6rename10RenameUnit10commitDestENS_3isa8RegClassERKNS0_8MapEntryEm,
        LeafSpan, RenameCommitDest, void,
        (RenameUnit * s, isa::RegClass c, const rename::MapEntry &prev,
         uint64_t gen),
        (s, c, prev, gen))
PB_WRAP(_ZN3pri6rename10RenameUnit10squashDestENS_3isa8RegClassEtm,
        LeafSpan, RenameSquashDest, void,
        (RenameUnit * s, isa::RegClass c, isa::PhysRegId p,
         uint64_t gen),
        (s, c, p, gen))
PB_WRAP(_ZN3pri6rename10RenameUnit12consumerDoneERNS0_7SrcReadE,
        LeafSpan, RenameConsumerDone, void,
        (RenameUnit * s, rename::SrcRead &src), (s, src))
PB_WRAP(_ZN3pri6rename10RenameUnit16consumerSquashedERNS0_7SrcReadE,
        LeafSpan, RenameConsumerSquashed, void,
        (RenameUnit * s, rename::SrcRead &src), (s, src))

// workload
PB_WRAP(_ZN3pri8workload16SyntheticProgramC1ERKNS0_16BenchmarkProfileEm,
        Span, ProgramCtor, void,
        (workload::SyntheticProgram * s,
         const workload::BenchmarkProfile &p, uint64_t seed),
        (s, p, seed))
PB_WRAP(_ZN3pri8workload5trace10TraceCache7acquireERKNS0_16SyntheticProgramE,
        Span, TraceAcquire,
        std::shared_ptr<const workload::trace::ProgramTraces>,
        (workload::trace::TraceCache * s,
         const workload::SyntheticProgram &p),
        (s, p))
PB_WRAP(_ZN3pri8workload6WalkerC1ERKNS0_16SyntheticProgramEPKNS0_5trace13ProgramTracesEPKNS0_10ReplayTapeE,
        Span, WalkerCtor, void,
        (Walker * s, const workload::SyntheticProgram &p,
         const workload::trace::ProgramTraces *t,
         const workload::ReplayTape *tape),
        (s, p, t, tape))
PB_WRAP(_ZN3pri8workload6Walker4nextEv,
        LeafSpan, WalkerNext, workload::WInst,
        (Walker * s), (s))

namespace
{

using CallStack = std::vector<workload::ProgLoc>;

/** The walker's own call stack is a private member. Access checking
 *  does not apply to the template arguments of an explicit
 *  instantiation, so this one hands out a pointer to the member
 *  without editing the simulator. */
using WalkerStackPtr = CallStack Walker::*;
WalkerStackPtr walkerStack();

template <WalkerStackPtr M>
struct WalkerStackAccess
{
    friend WalkerStackPtr walkerStack() { return M; }
};
template struct WalkerStackAccess<&Walker::stack>;

/**
 * Watches one call-stack vector across a walker call. The walker
 * reuses its call stacks (its own, and the one in each pooled
 * checkpoint slot) and grows each to the deepest stack it has held,
 * which can first happen after warm-up. When the call allocated and
 * the vector's capacity grew, one allocation is counted as that
 * growth; every other allocation after warm-up fails the point.
 */
class StackGrowthWatch
{
  public:
    explicit StackGrowthWatch(const CallStack &v)
        : v(v), capacity(v.capacity()), allocs(perfbench::threadAllocs())
    {
    }
    ~StackGrowthWatch()
    {
        if (v.capacity() > capacity && perfbench::threadAllocs() > allocs)
            perfbench::noteStackGrowth();
    }
    StackGrowthWatch(const StackGrowthWatch &) = delete;
    StackGrowthWatch &operator=(const StackGrowthWatch &) = delete;

  private:
    const CallStack &v;
    size_t capacity;
    uint64_t allocs;
};

} // namespace

/** Walker calls that write a call stack: timed like PB_WRAP, and
 *  watched for call-stack growth (the walker's own stack, or
 *  TARGET's). */
#define PB_WRAP_STACK(SYM, FN, PARAMS, ARGS, TARGET)                  \
    extern "C" void __real_##SYM PARAMS;                              \
    extern "C" void __wrap_##SYM PARAMS                               \
    {                                                                 \
        perfbench::LeafSpan span(perfbench::Fn::FN);                  \
        StackGrowthWatch watch(TARGET);                               \
        __real_##SYM ARGS;                                            \
    }

PB_WRAP_STACK(_ZN3pri8workload6Walker5steerERKNS0_5WInstEbm,
              WalkerSteer,
              (Walker * s, const workload::WInst &b, bool taken,
               uint64_t target),
              (s, b, taken, target), s->*walkerStack())
PB_WRAP_STACK(_ZNK3pri8workload6Walker14checkpointIntoERNS0_10WalkerCkptE,
              WalkerCheckpointInto,
              (const Walker *s, workload::WalkerCkpt &out), (s, out),
              out.stack)
PB_WRAP_STACK(_ZN3pri8workload6Walker7restoreERKNS0_10WalkerCkptE,
              WalkerRestore,
              (Walker * s, const workload::WalkerCkpt &c), (s, c),
              s->*walkerStack())

// branch
PB_WRAP(_ZN3pri6branch17CombinedPredictor7predictEm,
        LeafSpan, BranchPredict,
        branch::PredictToken,
        (branch::CombinedPredictor * s, uint64_t pc), (s, pc))
PB_WRAP(_ZN3pri6branch17CombinedPredictor6updateEmbRKNS0_12PredictTokenE,
        LeafSpan, BranchUpdate, void,
        (branch::CombinedPredictor * s, uint64_t pc, bool taken,
         const branch::PredictToken &tok),
        (s, pc, taken, tok))
PB_WRAP(_ZNK3pri6branch3Btb6lookupEm,
        LeafSpan, BtbLookup,
        std::optional<uint64_t>, (const branch::Btb *s, uint64_t pc),
        (s, pc))
PB_WRAP(_ZN3pri6branch3Btb6updateEmm,
        LeafSpan, BtbUpdate, void,
        (branch::Btb * s, uint64_t pc, uint64_t target),
        (s, pc, target))

// memory
PB_WRAP(_ZN3pri6memory15MemoryHierarchyC1ERKNS0_15HierarchyParamsE,
        Span, MemoryCtor, void,
        (memory::MemoryHierarchy * s,
         const memory::HierarchyParams &p),
        (s, p))
PB_WRAP(_ZN3pri6memory15MemoryHierarchy10dataAccessEmb,
        LeafSpan, MemoryDataAccess, unsigned,
        (memory::MemoryHierarchy * s, uint64_t addr, bool write),
        (s, addr, write))
PB_WRAP(_ZN3pri6memory15MemoryHierarchy10instAccessEm,
        LeafSpan, MemoryInstAccess, unsigned,
        (memory::MemoryHierarchy * s, uint64_t addr), (s, addr))

// core
PB_WRAP(_ZN3pri4core14OutOfOrderCoreC1ERKNS0_10CoreConfigERKNS_8workload16SyntheticProgramERNS_9StatGroupESt10shared_ptrIKNS5_5trace13ProgramTracesEEPKNS5_10ReplayTapeE,
        Span, CoreCtor, void,
        (core::OutOfOrderCore * s, const core::CoreConfig &cfg,
         const workload::SyntheticProgram &p, StatGroup &g,
         std::shared_ptr<const workload::trace::ProgramTraces> t,
         const workload::ReplayTape *tape),
        (s, cfg, p, g, std::move(t), tape))

extern "C" {

void __real__ZN3pri4core14OutOfOrderCore3runEmm(core::OutOfOrderCore *,
                                                uint64_t, uint64_t);

/** The core's cycle loop: its self time is the `core` layer, and the
 *  cycles, commits and heap allocations it makes are credited to the
 *  current point (allocations, and the call-stack growth among them,
 *  only once warm-up has completed). */
void
__wrap__ZN3pri4core14OutOfOrderCore3runEmm(core::OutOfOrderCore *self,
                                           uint64_t target,
                                           uint64_t max_cycles)
{
    const uint64_t c0 = self->cycles();
    const uint64_t i0 = self->committedInsts();
    const bool steady = i0 >= perfbench::currentWarmup();
    const uint64_t a0 = perfbench::threadAllocs();
    const uint64_t g0 = perfbench::threadStackGrowths();
    {
        perfbench::Span span(perfbench::Fn::CoreRun);
        __real__ZN3pri4core14OutOfOrderCore3runEmm(self, target,
                                                   max_cycles);
    }
    perfbench::notePointWork(self->cycles() - c0,
                             self->committedInsts() - i0, steady,
                             perfbench::threadAllocs() - a0,
                             perfbench::threadStackGrowths() - g0);
}

} // extern "C"
