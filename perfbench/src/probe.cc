#include "probe.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

namespace perfbench
{

const FnInfo kFnInfo[kNumFns] = {
    {"sim", "point.construct"},
    {"sim", "point.step"},
    {"sim", "point.finish"},
    {"core", "run"},
    {"core", "construct"},
    {"rename", "construct"},
    {"rename", "begin_cycle"},
    {"rename", "read_src"},
    {"rename", "rename_dest"},
    {"rename", "ckpt_create"},
    {"rename", "ckpt_resolve"},
    {"rename", "ckpt_release"},
    {"rename", "ckpt_restore"},
    {"rename", "ckpt_discard"},
    {"rename", "writeback"},
    {"rename", "commit"},
    {"rename", "squash"},
    {"rename", "consumer_done"},
    {"rename", "consumer_squashed"},
    {"workload", "program_build"},
    {"workload", "trace_acquire"},
    {"workload", "walker_construct"},
    {"workload", "next"},
    {"workload", "steer"},
    {"workload", "checkpoint"},
    {"workload", "restore"},
    {"branch", "predict"},
    {"branch", "update"},
    {"branch", "btb_lookup"},
    {"branch", "btb_update"},
    {"memory", "construct"},
    {"memory", "data_access"},
    {"memory", "inst_access"},
};

namespace
{

const uint64_t g_tick0 = ticks();
const auto g_time0 = std::chrono::steady_clock::now();

/** Ticks two back-to-back counter reads take (median of a few
 *  hundred): subtracted from every timed leaf call, which would
 *  otherwise carry the cost of reading the counter. */
uint64_t
measureTimerFloor()
{
    std::array<uint64_t, 301> d{};
    for (auto &x : d) {
        const uint64_t a = ticks();
        x = ticks() - a;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
}

const uint64_t g_timerFloor = measureTimerFloor();

/** Timed leaf calls kept for the span dump: one in kDumpPeriod. */
constexpr uint64_t kDumpPeriod = 128;

/** Points one worker thread can hold open at once; a batched
 *  worker interleaves at most its lane count of them. */
constexpr unsigned kSlots = 40;

struct Slot
{
    const void *inst = nullptr;
    uint64_t warmup = 0;
    PointRecord rec;
};

struct ThreadState
{
    SpanStack stack;
    std::array<Slot, kSlots> slots{};
    Slot *cur = nullptr;
    uint32_t id = 0;
    uint64_t pointTicks = 0;
    std::array<uint64_t, kNumFns> leafCalls{};
    uint64_t timedLeaves = 0;
};

thread_local ThreadState t_state;
std::atomic<uint32_t> g_nextThreadId{1};

std::mutex g_mu;
std::vector<PointRecord> g_points;
std::vector<Charge> g_charges;
std::vector<uint64_t> g_reference;

/** Table of the reference kernel: 2^17 entries (512 KiB) forming one
 *  random cycle (Sattolo's shuffle, fixed seed), so every load
 *  depends on the previous one and the walk never settles in a short
 *  loop. Built once per thread, outside any point. */
constexpr uint32_t kRefEntries = 1u << 17;
constexpr uint32_t kRefSteps = 1u << 15;

const std::vector<uint32_t> &
referenceTable()
{
    thread_local std::vector<uint32_t> next;
    if (next.empty()) {
        next.resize(kRefEntries);
        for (uint32_t i = 0; i < kRefEntries; ++i)
            next[i] = i;
        uint64_t x = 0x243F6A8885A308D3ull;
        for (uint32_t i = kRefEntries - 1; i > 0; --i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(next[i], next[(x >> 33) % i]);
        }
    }
    return next;
}

std::atomic<uint64_t> g_referenceSink{0};

Slot *
findSlot(const void *inst)
{
    for (Slot &s : t_state.slots) {
        if (s.inst == inst)
            return &s;
    }
    return nullptr;
}

} // namespace

double
nsPerTick()
{
    const uint64_t dt = ticks() - g_tick0;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - g_time0).count();
    return dt == 0 ? 1.0
                   : static_cast<double>(ns) / static_cast<double>(dt);
}

uint64_t
tickOrigin()
{
    return g_tick0;
}

Span::Span(Fn fn) : fn(fn)
{
    t_state.stack.enter(ticks());
}

Span::~Span()
{
    const SpanStack::Closed c = t_state.stack.exit(ticks());
    if (fn == Fn::PointCtor || fn == Fn::PointStep ||
        fn == Fn::PointFinish)
        t_state.pointTicks += c.duration;
    if (Slot *slot = t_state.cur) {
        FnAgg &agg = slot->rec.fns[static_cast<size_t>(fn)];
        ++agg.calls;
        ++agg.timedCalls;
        agg.timedTicks += c.duration;
        agg.selfTicks += c.self;
    }
}

bool
leafEnter(Fn fn)
{
    const size_t k = static_cast<size_t>(fn);
    if (Slot *slot = t_state.cur)
        ++slot->rec.fns[k].calls;
    return ++t_state.leafCalls[k] % kLeafPeriod == 0;
}

void
leafExit(Fn fn, uint64_t start, uint64_t end)
{
    const uint64_t raw = end - start;
    const uint64_t d = raw > g_timerFloor ? raw - g_timerFloor : 0;
    // Stands for the kLeafPeriod calls of its stride, untimed ones
    // included, in the enclosing span's covered time.
    t_state.stack.cover(d * kLeafPeriod);
    Slot *slot = t_state.cur;
    if (slot == nullptr)
        return;
    PointRecord &r = slot->rec;
    FnAgg &agg = r.fns[static_cast<size_t>(fn)];
    ++agg.timedCalls;
    agg.timedTicks += d;
    agg.selfTicks += static_cast<int64_t>(d * kLeafPeriod);
    if (++t_state.timedLeaves % kDumpPeriod == 0) {
        r.samples[r.nSamples % PointRecord::kSamples] =
            LeafSample{fn, start, end};
        ++r.nSamples;
    }
}

PointScope::PointScope(const void *inst, const uint64_t *key,
                       uint64_t warmup)
    : prev(t_state.cur)
{
    Slot *slot = nullptr;
    if (key != nullptr) {
        if (t_state.id == 0)
            t_state.id = g_nextThreadId.fetch_add(1);
        slot = findSlot(nullptr);
        if (slot == nullptr)
            std::abort(); // more open points than lanes per worker
        slot->inst = inst;
        slot->warmup = warmup;
        slot->rec = PointRecord{};
        slot->rec.key = *key;
        slot->rec.thread = t_state.id;
        slot->rec.firstTick = ticks();
    } else {
        slot = findSlot(inst);
    }
    t_state.cur = slot;
}

PointScope::~PointScope()
{
    t_state.cur = static_cast<Slot *>(prev);
}

void
pointEnd(const void *inst)
{
    Slot *slot = findSlot(inst);
    if (slot == nullptr)
        return;
    PointRecord &r = slot->rec;
    r.lastTick = ticks();
    r.hostTicks = r.fns[static_cast<size_t>(Fn::PointCtor)].timedTicks +
        r.fns[static_cast<size_t>(Fn::PointStep)].timedTicks +
        r.fns[static_cast<size_t>(Fn::PointFinish)].timedTicks;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        g_points.push_back(r);
    }
    slot->inst = nullptr;
}

void
pointAbort(const void *inst)
{
    if (Slot *slot = findSlot(inst))
        slot->inst = nullptr;
}

uint64_t
currentWarmup()
{
    return t_state.cur != nullptr ? t_state.cur->warmup : 0;
}

void
notePointWork(uint64_t cycles, uint64_t committed, bool steady,
              uint64_t allocs, uint64_t growths)
{
    if (Slot *slot = t_state.cur) {
        slot->rec.cycles += cycles;
        slot->rec.committed += committed;
        if (steady) {
            slot->rec.steadyAllocs += allocs;
            slot->rec.steadyGrowths += growths;
        }
    }
}

uint64_t
threadPointTicks()
{
    return t_state.pointTicks;
}

std::vector<PointRecord>
takePoints()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<PointRecord> out;
    out.swap(g_points);
    return out;
}

void
noteCharge(Charge c)
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_charges.push_back(std::move(c));
}

std::vector<Charge>
takeCharges()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<Charge> out;
    out.swap(g_charges);
    return out;
}

void
referenceBurst()
{
    const std::vector<uint32_t> &next = referenceTable();
    auto walk = [&next] {
        uint32_t i = 0;
        uint64_t h = 0x9E3779B97F4A7C15ull, acc = 0;
        for (uint32_t k = 0; k < kRefSteps; ++k) {
            i = next[i];
            h = (h ^ i) * 0xBF58476D1CE4E5B9ull;
            if (h & (1ull << 40))
                acc += h >> 29;
            else
                acc ^= h + k;
        }
        g_referenceSink.fetch_add(acc, std::memory_order_relaxed);
    };
    // The first walk brings the table back into the core's caches,
    // whatever the previous point left there; the second, over the
    // same entries, is timed.
    walk();
    const uint64_t t0 = ticks();
    walk();
    const uint64_t t = ticks() - t0;
    std::lock_guard<std::mutex> lock(g_mu);
    g_reference.push_back(t);
}

std::vector<uint64_t>
takeReference()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<uint64_t> out;
    out.swap(g_reference);
    return out;
}

} // namespace perfbench
