/**
 * @file
 * Host-time probes for the reference benchmark.
 *
 * The simulator is measured from outside: the benchmark binaries
 * link the simulator's module libraries with `-Wl,--wrap=<symbol>`
 * so every call the core makes into another module (and every call
 * the runner makes into a point) passes through a wrapper that opens
 * a Span. Spans nest on a per-thread stack; a span's self time is
 * its duration minus the part of it covered by child spans.
 *
 * Times are attributed to the *point* (one simulation request) that
 * is current on the thread. A point is identified by the address of
 * its SimInstance and keyed by sim::paramsHash, so batched lanes
 * that interleave on one worker thread keep separate books. All
 * per-point state lives in fixed thread-local slots: probing never
 * allocates while a point runs, so the allocation counter of the
 * traced binary sees only the simulator's own allocations.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace perfbench
{

/** Every probed entry point; kFnInfo gives its layer and name. */
enum class Fn : uint8_t
{
    // sim: one simulation point, as the runner drives it.
    PointCtor,
    PointStep,
    PointFinish,
    // core
    CoreRun,
    CoreCtor,
    // rename
    RenameCtor,
    RenameBeginCycle,
    RenameReadSrc,
    RenameRenameDest,
    RenameCreateCkpt,
    RenameResolveCkpt,
    RenameReleaseCkpt,
    RenameRestoreCkpt,
    RenameDiscardCkpt,
    RenameWriteback,
    RenameCommitDest,
    RenameSquashDest,
    RenameConsumerDone,
    RenameConsumerSquashed,
    // workload
    ProgramCtor,
    TraceAcquire,
    WalkerCtor,
    WalkerNext,
    WalkerSteer,
    WalkerCheckpointInto,
    WalkerRestore,
    // branch
    BranchPredict,
    BranchUpdate,
    BtbLookup,
    BtbUpdate,
    // memory
    MemoryCtor,
    MemoryDataAccess,
    MemoryInstAccess,
    kCount
};

constexpr size_t kNumFns = static_cast<size_t>(Fn::kCount);

struct FnInfo
{
    const char *layer;
    const char *name;
};

/** Layer and function name of every Fn, in enum order. */
extern const FnInfo kFnInfo[kNumFns];

/** Cycle counter (TSC on x86, steady_clock ns elsewhere). */
inline uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** Nanoseconds per tick, calibrated against steady_clock between
 *  process start and the call. */
double nsPerTick();

/** Tick of process start: span timestamps are relative to it. */
uint64_t tickOrigin();

/**
 * Nested-interval bookkeeping for one thread. exit() returns the
 * span's duration and its self time: the duration minus the ticks
 * covered by child spans. Children on one thread run strictly inside
 * their parent and one after another, so covered time is the sum of
 * their durations; a sampled child reports its estimated share
 * through cover(), which can make a self time slightly negative.
 */
class SpanStack
{
  public:
    static constexpr unsigned kMaxDepth = 32;

    struct Closed
    {
        uint64_t duration = 0;
        int64_t self = 0;
    };

    void
    enter(uint64_t tick)
    {
        // The probed call graph is at most point -> core -> module
        // entry -> (constructor) deep; overflowing is a probe bug.
        if (depth == kMaxDepth)
            std::abort();
        frames[depth++] = Frame{tick, 0};
    }

    Closed
    exit(uint64_t tick)
    {
        const Frame &f = frames[--depth];
        Closed c;
        c.duration = tick - f.start;
        c.self = static_cast<int64_t>(c.duration - f.covered);
        cover(c.duration);
        return c;
    }

    /** Charge @p t ticks of child time to the innermost open span. */
    void
    cover(uint64_t t)
    {
        if (depth > 0)
            frames[depth - 1].covered += t;
    }

    unsigned size() const { return depth; }

  private:
    struct Frame
    {
        uint64_t start = 0;
        uint64_t covered = 0;
    };
    std::array<Frame, kMaxDepth> frames{};
    unsigned depth = 0;
};

/** Per-function totals inside one point. */
struct FnAgg
{
    uint64_t calls = 0;
    uint64_t timedCalls = 0; ///< calls whose duration was measured
    uint64_t timedTicks = 0; ///< summed duration of the timed calls
    int64_t selfTicks = 0;   ///< self time (sampled leaves: estimate)
};

/** One sampled leaf span, kept for the span dump. */
struct LeafSample
{
    Fn fn = Fn::kCount;
    uint64_t start = 0;
    uint64_t end = 0;
};

/** Everything recorded for one completed point. */
struct PointRecord
{
    uint64_t key = 0;        ///< sim::paramsHash of the point
    uint32_t thread = 0;     ///< probe-assigned worker id
    uint64_t firstTick = 0;  ///< SimInstance construction entry
    uint64_t lastTick = 0;   ///< finish() exit
    uint64_t hostTicks = 0;  ///< ticks inside the point's own calls
    uint64_t cycles = 0;     ///< simulated cycles run by the core
    uint64_t committed = 0;  ///< instructions committed by the core
    uint64_t steadyAllocs = 0; ///< heap allocations after warm-up
    uint64_t steadyGrowths = 0; ///< of which call-stack growth
    std::array<FnAgg, kNumFns> fns{};
    static constexpr unsigned kSamples = 16;
    std::array<LeafSample, kSamples> samples{};
    unsigned nSamples = 0;
};

/** Opens a span on this thread's stack; closes it on destruction.
 *  For calls that contain other probed calls, and for rare ones. */
class Span
{
  public:
    explicit Span(Fn fn);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Fn fn;
};

/** Calls between timed leaf calls. A cycle-counter read costs tens
 *  of ns on virtualised hosts, so hot leaf entry points (which make
 *  no probed calls themselves) are counted on every call but timed
 *  on one in kLeafPeriod, per thread and function. */
constexpr uint64_t kLeafPeriod = 32;

bool leafEnter(Fn fn);
void leafExit(Fn fn, uint64_t start, uint64_t end);

/** Sampled span around a hot leaf entry point. */
class LeafSpan
{
  public:
    explicit LeafSpan(Fn fn)
        : fn(fn), start(leafEnter(fn) ? ticks() : 0)
    {
    }
    ~LeafSpan()
    {
        if (start != 0)
            leafExit(fn, start, ticks());
    }
    LeafSpan(const LeafSpan &) = delete;
    LeafSpan &operator=(const LeafSpan &) = delete;

  private:
    Fn fn;
    uint64_t start;
};

/**
 * Makes the point owned by SimInstance @p inst current on this
 * thread for the scope's lifetime. With a non-null @p key the point
 * is new: a slot is claimed for it (construction).
 */
class PointScope
{
  public:
    PointScope(const void *inst, const uint64_t *key = nullptr,
               uint64_t warmup = 0);
    ~PointScope();
    PointScope(const PointScope &) = delete;
    PointScope &operator=(const PointScope &) = delete;

  private:
    void *prev;
};

/** Publish the point of @p inst (after finish()) and free its slot. */
void pointEnd(const void *inst);

/** Drop the point of @p inst without publishing it (it threw). */
void pointAbort(const void *inst);

/** Warm-up length of the current point, or 0 when none is current. */
uint64_t currentWarmup();

/** Credit simulated work and, once warm-up is over, heap
 *  allocations (@p growths of them call-stack growth) to the current
 *  point (called by the core-run wrapper). */
void notePointWork(uint64_t cycles, uint64_t committed, bool steady,
                   uint64_t allocs, uint64_t growths);

/** Ticks this thread has spent inside points' own calls so far. */
uint64_t threadPointTicks();

/** Take every point published since the last call. */
std::vector<PointRecord> takePoints();

/**
 * Host work the runner does for points outside their own calls: a
 * sweep batch's shared preparation or finalisation, whose self time
 * (the points' own calls inside it excluded) is split evenly over
 * the batch's lanes, or one point's journal append.
 */
struct Charge
{
    enum class Kind : uint8_t
    {
        BatchPrepare,
        BatchFinalize,
        JournalAppend,
    };
    Kind kind = Kind::JournalAppend;
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t selfTicks = 0;
    std::vector<uint64_t> keys; ///< paramsHash of the points charged
};

void noteCharge(Charge c);

/** Take every charge recorded since the last call. */
std::vector<Charge> takeCharges();

/**
 * Host-speed reference. The benchmark shares its host with other
 * work, and the host's speed moves by 2x and more for minutes at a
 * time, so every run also times a fixed kernel that does not depend
 * on the simulator: dependent loads through a random cycle in a
 * 512 KiB table, a multiply-xor hash and a data-dependent branch.
 * It runs on the worker thread right before every point and before
 * every set-up build; metrics.py scales each repeat's (and each
 * set-up round's) host times by its median burst against the
 * reference (REFERENCE_BURST_NS, SPEED_EXPONENT). Records the ticks
 * of the timed walk.
 */
void referenceBurst();

/** Take the ticks of every reference burst since the last call. */
std::vector<uint64_t> takeReference();

/** Heap allocations made by this thread so far, counted by the
 *  replaced operator new (alloc_count.cc, traced binary only). */
uint64_t threadAllocs();

/** Allocations of this thread that grew a call-stack vector's
 *  capacity (counted by the walker probes, traced binary only). */
uint64_t threadStackGrowths();
void noteStackGrowth();

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
