/**
 * @file
 * Simulator-throughput smoke test for the parallel experiment
 * runner and the cycle-loop hot-path work.
 *
 * Three measurements, printed as an ASCII table and written to
 * BENCH_runner.json:
 *
 *  1. Serial KIPS: simulated kilo-instructions committed per
 *     wall-clock second for a batch of runs on one thread.
 *  2. Parallel KIPS: the same batch through SimulationRunner with
 *     the requested --jobs (default hardware_concurrency).
 *  3. Cycle-loop allocations: heap allocations per simulated cycle
 *     and scratch-buffer regrowths in the measurement window. The
 *     core's hoisted scratch buffers must report zero steady-state
 *     regrowths. A second leg repeats the run with a binding PRF
 *     read-port budget: the arbiter and its stall-replay path must
 *     add zero heap allocations over the unlimited leg while
 *     actually denying issues.
 *  4. Front-end checkpointing: a branch-heavy (gcc) run — KIPS,
 *     checkpoints taken/restored/pool-stalled, and steady-state heap
 *     allocations, which must be zero. Written to
 *     BENCH_frontend.json.
 *  5. Traced front end: the walker replay loop in isolation
 *     (Minst/s) and a whole-core gcc run, plus the TraceCache
 *     sharing stats of the multi-point sweep in (1)/(2). Trace
 *     replay must make zero steady-state heap allocations
 *     (compile-time allocs are allowed, replay allocs are not).
 *     Written to BENCH_trace.json.
 *  6. Sweep batching: a fig10-shaped subset (scheme x width panel
 *     over two workloads) through SimulationRunner with --batch 1
 *     versus the default batch width, best-of-3 with the legs
 *     interleaved, plus the batched-replay allocation gate: the
 *     operator-new delta between two SweepBatch::drain()s that
 *     differ only in measure length must be zero (one-time pool
 *     growth cancels; anything left is per-instruction allocation
 *     in the batched replay loop).
 *
 * Also prints a one-line comparison of the serial KIPS against the
 * committed BENCH_runner.json baseline when that file is present.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/core.hh"
#include "sim/batch/sweep_batch.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "workload/program.hh"
#include "workload/trace/trace_cache.hh"
#include "workload/walker.hh"

namespace
{

/** Global allocation counter fed by the operator-new overrides. */
std::atomic<uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace pri;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<sim::RunParams>
makeBatch(const bench::Budget &budget)
{
    std::vector<sim::RunParams> batch;
    for (const auto &name : bench::intBenchmarks()) {
        for (auto scheme :
             {sim::Scheme::Base, sim::Scheme::PriRefcountLazy}) {
            sim::RunParams p;
            p.benchmark = name;
            p.scheme = scheme;
            p.warmupInsts = budget.warmup;
            p.measureInsts = budget.measure;
            batch.push_back(p);
        }
    }
    return batch;
}

uint64_t
simulatedInsts(const std::vector<sim::RunResult> &results)
{
    uint64_t n = 0;
    for (const auto &r : results)
        n += r.insts;
    return n;
}

struct AllocProbe
{
    double allocsPerCycle = 0.0;
    uint64_t allocs = 0;
    uint64_t scratchGrowths = 0;
    uint64_t portStalls = 0;
    uint64_t cycles = 0;
};

/** Measure steady-state heap traffic of the core's cycle loop.
 *  @p ports limits the PRF read-port budget (0 = unlimited) so the
 *  arbitrated issue path gets its own zero-allocation gate. */
AllocProbe
probeCycleLoop(const bench::Budget &budget, unsigned ports = 0)
{
    const auto &profile = workload::profileByName("gzip");
    workload::SyntheticProgram program(profile, 11);

    const unsigned narrow = core::CoreConfig::narrowBitsForWidth(4);
    auto cfg = core::CoreConfig::fourWide(
        rename::RenameConfig::base(64, narrow));
    cfg.prfReadPorts = ports;

    StatGroup stats;
    core::OutOfOrderCore cpu(cfg, program, stats);

    // Warm up: any one-time buffer growth happens here.
    cpu.run(budget.warmup);
    cpu.beginMeasurement();

    const uint64_t c0 = cpu.cycles();
    const uint64_t g0 = static_cast<uint64_t>(
        stats.scalarValue("core.scratchGrowths"));
    const uint64_t s0 = static_cast<uint64_t>(
        stats.scalarValue("core.prfPortStallOps"));
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);

    cpu.run(budget.measure);

    AllocProbe probe;
    probe.cycles = cpu.cycles() - c0;
    probe.scratchGrowths = static_cast<uint64_t>(
        stats.scalarValue("core.scratchGrowths")) - g0;
    probe.portStalls = static_cast<uint64_t>(
        stats.scalarValue("core.prfPortStallOps")) - s0;
    probe.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    probe.allocsPerCycle = probe.cycles > 0
        ? static_cast<double>(probe.allocs) /
            static_cast<double>(probe.cycles)
        : 0.0;
    return probe;
}

struct FrontEndProbe
{
    double kips = 0.0;
    double allocsPerCycle = 0.0;
    uint64_t allocs = 0;
    uint64_t cycles = 0;
    uint64_t ckptsTaken = 0;
    uint64_t ckptsRestored = 0;
    uint64_t poolStalls = 0;
};

/** Branch-heavy whole-core run (gcc). */
FrontEndProbe
probeFrontEnd(const bench::Budget &budget)
{
    const auto &profile = workload::profileByName("gcc");
    workload::SyntheticProgram program(profile, 11);

    const unsigned narrow = core::CoreConfig::narrowBitsForWidth(4);
    auto cfg = core::CoreConfig::fourWide(
        rename::RenameConfig::base(64, narrow));

    StatGroup stats;
    core::OutOfOrderCore cpu(cfg, program, stats);

    // Warm up past all one-time buffer growth (fetch ring, pool
    // slots, journals, wheel).
    cpu.run(budget.warmup);
    cpu.beginMeasurement();

    const uint64_t c0 = cpu.cycles();
    const uint64_t i0 = cpu.committedInsts();
    const double k0 = stats.scalarValue("core.ckptsTaken");
    const double r0 = stats.scalarValue("core.ckptsRestored");
    const double s0 = stats.scalarValue("core.ckptPoolStalls");
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);

    const auto t0 = Clock::now();
    cpu.run(budget.measure);
    const double secs = secondsSince(t0);

    FrontEndProbe probe;
    probe.cycles = cpu.cycles() - c0;
    probe.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    probe.allocsPerCycle = probe.cycles > 0
        ? static_cast<double>(probe.allocs) /
            static_cast<double>(probe.cycles)
        : 0.0;
    probe.kips = secs > 0
        ? static_cast<double>(cpu.committedInsts() - i0) / secs /
            1000.0
        : 0.0;
    probe.ckptsTaken = static_cast<uint64_t>(
        stats.scalarValue("core.ckptsTaken") - k0);
    probe.ckptsRestored = static_cast<uint64_t>(
        stats.scalarValue("core.ckptsRestored") - r0);
    probe.poolStalls = static_cast<uint64_t>(
        stats.scalarValue("core.ckptPoolStalls") - s0);
    return probe;
}

struct WalkerProbe
{
    double mips = 0.0;     ///< front-end Minst/s, no timing core
    uint64_t allocs = 0;   ///< heap allocations in the window
    uint64_t insts = 0;
};

/**
 * The front end in isolation: a bare next()/steer() replay loop
 * down actual paths. This is the honest measure of the micro-trace
 * rewrite itself, undiluted by the ~85% of runtime the timing core
 * spends elsewhere (Amdahl caps the whole-binary gain; DESIGN.md
 * §13).
 */
WalkerProbe
probeWalkerReplay(const bench::Budget &budget)
{
    const auto &profile = workload::profileByName("gcc");
    workload::SyntheticProgram program(profile, 11);
    const auto traces =
        workload::trace::TraceCache::global().acquire(program);
    workload::Walker walker(program, traces.get());

    const uint64_t n = budget.measure * 25;
    uint64_t sink = 0;
    const auto step = [&] {
        const auto wi = walker.next();
        sink ^= wi.resultValue ^ wi.memAddr;
        if (walker.branchPending())
            walker.steer(wi, wi.taken, wi.actualTarget);
    };

    // Warmup: grow the call stack to its steady depth.
    for (uint64_t i = 0; i < n / 10; ++i)
        step();

    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    for (uint64_t i = 0; i < n; ++i)
        step();
    const double secs = secondsSince(t0);

    WalkerProbe probe;
    probe.insts = n + (sink & 1); // keep the sink alive
    probe.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    probe.mips =
        secs > 0 ? static_cast<double>(n) / secs / 1e6 : 0.0;
    return probe;
}

/** A fig10-shaped subset for the sweep-batch A/B: full scheme x
 *  width panel over two workloads, one seed — every point of one
 *  (benchmark, seed) shares a batch. */
std::vector<sim::RunParams>
makeBatchSubset(const bench::Budget &budget, uint64_t measure)
{
    const sim::Scheme schemes[] = {
        sim::Scheme::Base,
        sim::Scheme::EarlyRelease,
        sim::Scheme::PriRefcountCkptcount,
        sim::Scheme::PriRefcountLazy,
        sim::Scheme::PriIdealCkptcount,
        sim::Scheme::PriIdealLazy,
        sim::Scheme::PriPlusEr,
        sim::Scheme::InfinitePregs,
    };
    std::vector<sim::RunParams> pts;
    for (const char *name : {"gcc", "gzip"}) {
        for (unsigned width : {4u, 8u}) {
            for (auto scheme : schemes) {
                sim::RunParams p;
                p.benchmark = name;
                p.width = width;
                p.scheme = scheme;
                p.warmupInsts = budget.warmup;
                p.measureInsts = measure;
                p.seed = 11;
                pts.push_back(std::move(p));
            }
        }
    }
    return pts;
}

/** One timed leg of the subset; returns points per second. */
double
timedBatchLeg(const std::vector<sim::RunParams> &grid,
              unsigned lanes)
{
    sim::SimulationRunner runner(1);
    runner.setBatchLanes(lanes);
    const auto t0 = Clock::now();
    const auto results = runner.run(grid);
    const double secs = secondsSince(t0);
    return secs > 0 && !results.empty()
        ? static_cast<double>(grid.size()) / secs
        : 0.0;
}

/** operator-new count across the drains of the subset at the given
 *  measure length. */
uint64_t
batchDrainAllocs(const bench::Budget &budget, uint64_t measure,
                 unsigned lanes, size_t *lanes_out)
{
    const auto pts = makeBatchSubset(budget, measure);
    std::vector<size_t> pending(pts.size());
    for (size_t i = 0; i < pending.size(); ++i)
        pending[i] = i;
    const auto groups = sim::formBatches(pts, pending, lanes);

    uint64_t allocs = 0;
    size_t covered = 0;
    for (const auto &grp : groups) {
        sim::SweepBatch sb(pts, grp);
        sb.prepare();
        const uint64_t a0 =
            g_allocs.load(std::memory_order_relaxed);
        sb.drain();
        allocs += g_allocs.load(std::memory_order_relaxed) - a0;
        for (const auto &o : sb.finalize()) {
            if (!o.ok())
                fatal("batch alloc probe lane failed: {}", o.error);
        }
        covered += grp.indices.size();
    }
    *lanes_out = covered;
    return allocs;
}

/** serialKips from the committed BENCH_runner.json, or 0. */
double
baselineSerialKips()
{
    // Prefer the repo copy: when run from the build tree, the CWD
    // file is a leftover of a previous run, not the baseline.
    for (const char *path :
         {"../BENCH_runner.json", "BENCH_runner.json"}) {
        std::FILE *f = std::fopen(path, "r");
        if (!f)
            continue;
        char buf[4096];
        const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
        std::fclose(f);
        buf[n] = '\0';
        if (const char *p = std::strstr(buf, "\"serialKips\":"))
            return std::atof(p + std::strlen("\"serialKips\":"));
    }
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv);
    const unsigned jobs =
        opts.jobs ? opts.jobs : sim::defaultJobs();

    std::printf("== Simulator throughput smoke test ==\n");
    std::printf("warmup %llu, measure %llu insts per run\n\n",
                static_cast<unsigned long long>(opts.budget.warmup),
                static_cast<unsigned long long>(
                    opts.budget.measure));

    // Read before this run rewrites BENCH_runner.json in-place.
    const double base_kips = baselineSerialKips();

    const auto batch = makeBatch(opts.budget);

    // Sharing across the sweep: 26 points over 13 benchmarks means
    // each program should compile once and be shared by the rest.
    const auto tc0 = workload::trace::TraceCache::global().stats();

    auto t0 = Clock::now();
    const auto serial = sim::SimulationRunner(1).run(batch);
    const double serial_s = secondsSince(t0);
    const double serial_kips =
        simulatedInsts(serial) / serial_s / 1000.0;

    t0 = Clock::now();
    const auto par = sim::SimulationRunner(jobs).run(batch);
    const double par_s = secondsSince(t0);
    const double par_kips = simulatedInsts(par) / par_s / 1000.0;

    const auto tc1 = workload::trace::TraceCache::global().stats();

    std::printf("%-28s %10s %10s\n", "configuration", "KIPS",
                "seconds");
    std::printf("%-28s %10.1f %10.2f\n", "serial (--jobs 1)",
                serial_kips, serial_s);
    char label[64];
    std::snprintf(label, sizeof(label), "parallel (--jobs %u)",
                  jobs);
    std::printf("%-28s %10.1f %10.2f\n", label, par_kips, par_s);
    std::printf("speedup: %.2fx over %zu runs\n",
                par_kips / serial_kips, batch.size());
    if (base_kips > 0.0) {
        std::printf("baseline BENCH_runner.json serialKips %.1f -> "
                    "%.1f (%.2fx)\n",
                    base_kips, serial_kips,
                    serial_kips / base_kips);
    }
    std::printf("\n");

    const auto hoisted = probeCycleLoop(opts.budget);
    // Port-limited leg: a binding budget (4 ports on the 4-wide
    // machine, whose worst case is 2*width = 8) drives the arbiter
    // and the port-stall replay path every cycle. That path must be
    // as allocation-free as the unlimited one.
    const auto ported = probeCycleLoop(opts.budget, 4);

    std::printf("%-28s %14s %14s\n", "cycle-loop heap traffic",
                "allocs/cycle", "scratchGrowths");
    std::printf("%-28s %14.4f %14llu\n", "unlimited ports",
                hoisted.allocsPerCycle,
                static_cast<unsigned long long>(
                    hoisted.scratchGrowths));
    std::printf("%-28s %14.4f %14llu\n", "ported (read-ports=4)",
                ported.allocsPerCycle,
                static_cast<unsigned long long>(
                    ported.scratchGrowths));
    if (hoisted.scratchGrowths != 0) {
        std::printf("FAIL: hoisted path regrew scratch buffers in "
                    "the measurement window\n");
        return 1;
    }
    if (ported.portStalls == 0) {
        std::printf("FAIL: the 4-port budget never bound — the "
                    "arbiter path was not exercised\n");
        return 1;
    }
    // Delta gate: the two legs replay the same instruction stream,
    // so any background allocation (workload, memory system) lands
    // identically in both. Anything the ported leg adds on top is an
    // allocation in the arbiter / stall-replay path itself.
    const uint64_t arb_allocs = ported.allocs > hoisted.allocs
        ? ported.allocs - hoisted.allocs
        : 0;
    if (arb_allocs != 0 || ported.scratchGrowths != 0) {
        std::printf("FAIL: arbiter path added %llu allocations "
                    "over the unlimited leg\n",
                    static_cast<unsigned long long>(arb_allocs));
        return 1;
    }
    std::printf("hoisted path: zero steady-state scratch "
                "allocations over %llu cycles\n",
                static_cast<unsigned long long>(hoisted.cycles));
    std::printf("ported path: zero added allocations across %llu "
                "port stalls\n\n",
                static_cast<unsigned long long>(ported.portStalls));

    // Front end: the walker replay loop in isolation, then the
    // branch-heavy whole core. The host is a noisy shared box, so
    // each speed is best-of-3; the allocation gates below look at
    // every repetition, not just the best one.
    WalkerProbe walker;
    FrontEndProbe fe;
    uint64_t walker_allocs = 0, fe_allocs = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto w = probeWalkerReplay(opts.budget);
        const auto c = probeFrontEnd(opts.budget);
        walker_allocs += w.allocs;
        fe_allocs += c.allocs;
        if (w.mips > walker.mips)
            walker = w;
        if (c.kips > fe.kips)
            fe = c;
    }
    walker.allocs = walker_allocs;
    fe.allocs = fe_allocs;

    std::printf("%-28s %10s %12s %10s %8s %8s\n",
                "whole core (gcc)", "KIPS", "allocs/cyc", "ckpts",
                "restored", "stalls");
    std::printf("%-28s %10.1f %12.4f %10llu %8llu %8llu\n",
                "pooled checkpoints", fe.kips, fe.allocsPerCycle,
                static_cast<unsigned long long>(fe.ckptsTaken),
                static_cast<unsigned long long>(fe.ckptsRestored),
                static_cast<unsigned long long>(fe.poolStalls));
    if (fe.allocs != 0) {
        std::printf("FAIL: whole core allocated %llu times in the "
                    "measurement window\n",
                    static_cast<unsigned long long>(fe.allocs));
        return 1;
    }
    if (fe.poolStalls != 0) {
        std::printf("FAIL: auto-sized checkpoint pool stalled "
                    "fetch\n");
        return 1;
    }
    std::printf("pooled path: zero steady-state allocations over "
                "%llu branch-heavy cycles\n",
                static_cast<unsigned long long>(fe.cycles));

    if (std::FILE *f = std::fopen("BENCH_frontend.json", "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"benchmark\": \"gcc\",\n"
            "  \"serialKips\": %.1f,\n"
            "  \"baselineSerialKips\": %.1f,\n"
            "  \"pooledKips\": %.1f,\n"
            "  \"pooledAllocsPerCycle\": %.4f,\n"
            "  \"pooledAllocs\": %llu,\n"
            "  \"ckptsTaken\": %llu,\n"
            "  \"ckptsRestored\": %llu,\n"
            "  \"ckptPoolStalls\": %llu,\n"
            "  \"pooledBytesPerBranch\": %zu,\n"
            "  \"measuredCycles\": %llu\n"
            "}\n",
            serial_kips, base_kips, fe.kips, fe.allocsPerCycle,
            static_cast<unsigned long long>(fe.allocs),
            static_cast<unsigned long long>(fe.ckptsTaken),
            static_cast<unsigned long long>(fe.ckptsRestored),
            static_cast<unsigned long long>(fe.poolStalls),
            sizeof(core::CkptRef),
            static_cast<unsigned long long>(fe.cycles));
        std::fclose(f);
        std::printf("wrote BENCH_frontend.json\n");
    }
    std::printf("\n");

    const uint64_t sweep_compiled =
        tc1.programsCompiled - tc0.programsCompiled;
    const uint64_t sweep_shared =
        tc1.programsShared - tc0.programsShared;
    const auto tc_all = workload::trace::TraceCache::global().stats();

    std::printf("%-28s %12s %12s\n", "walker replay (gcc)",
                "Minst/s", "allocs");
    std::printf("%-28s %12.1f %12llu\n", "traced replay", walker.mips,
                static_cast<unsigned long long>(walker.allocs));
    std::printf("trace cache: %llu programs compiled, %llu shared "
                "across the %zu-run sweep; %llu blocks, %llu "
                "micro-ops, %llu B resident; replay hit rate %.3f\n",
                static_cast<unsigned long long>(sweep_compiled),
                static_cast<unsigned long long>(sweep_shared),
                batch.size() * 2,
                static_cast<unsigned long long>(tc_all.blocksCompiled),
                static_cast<unsigned long long>(tc_all.microOps),
                static_cast<unsigned long long>(tc_all.traceBytes),
                tc_all.replayHitRate());
    if (walker.allocs != 0) {
        std::printf("FAIL: trace replay allocated %llu times in the "
                    "measurement window\n",
                    static_cast<unsigned long long>(walker.allocs));
        return 1;
    }
    std::printf("traced path: zero steady-state allocations "
                "(replay and whole-core)\n");

    if (std::FILE *f = std::fopen("BENCH_trace.json", "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"benchmark\": \"gcc\",\n"
            "  \"jobs\": %u,\n"
            "  \"serialKips\": %.1f,\n"
            "  \"parallelKips\": %.1f,\n"
            "  \"baselineSerialKips\": %.1f,\n"
            "  \"walkerTracedMips\": %.1f,\n"
            "  \"coreTracedKips\": %.1f,\n"
            "  \"replayAllocs\": %llu,\n"
            "  \"tracedCoreAllocs\": %llu,\n"
            "  \"sweepProgramsCompiled\": %llu,\n"
            "  \"sweepProgramsShared\": %llu,\n"
            "  \"blocksCompiled\": %llu,\n"
            "  \"microOps\": %llu,\n"
            "  \"traceBytes\": %llu,\n"
            "  \"replayHitRate\": %.4f,\n"
            "  \"measuredCycles\": %llu\n"
            "}\n",
            jobs, serial_kips, par_kips, base_kips, walker.mips,
            fe.kips, static_cast<unsigned long long>(walker.allocs),
            static_cast<unsigned long long>(fe.allocs),
            static_cast<unsigned long long>(sweep_compiled),
            static_cast<unsigned long long>(sweep_shared),
            static_cast<unsigned long long>(tc_all.blocksCompiled),
            static_cast<unsigned long long>(tc_all.microOps),
            static_cast<unsigned long long>(tc_all.traceBytes),
            tc_all.replayHitRate(),
            static_cast<unsigned long long>(fe.cycles));
        std::fclose(f);
        std::printf("wrote BENCH_trace.json\n");
    }

    std::printf("\n");

    // Sweep batching: --batch 1 vs the default batch width on a
    // fig10-shaped subset, legs interleaved, best of 3.
    const unsigned lanes = sim::defaultBatchLanes();
    const auto subset = makeBatchSubset(opts.budget,
                                        opts.budget.measure);
    double sweep_serial = 0.0, sweep_batched = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        sweep_serial =
            std::max(sweep_serial, timedBatchLeg(subset, 1));
        sweep_batched =
            std::max(sweep_batched, timedBatchLeg(subset, lanes));
    }

    std::printf("%-28s %14s\n", "sweep batching", "points/sec");
    std::printf("%-28s %14.1f\n", "serial (--batch 1)",
                sweep_serial);
    char blabel[48];
    std::snprintf(blabel, sizeof(blabel), "batched (--batch %u)",
                  lanes);
    std::printf("%-28s %14.1f\n", blabel, sweep_batched);
    std::printf("sweep-batch speedup: %.2fx over %zu points\n",
                sweep_serial > 0 ? sweep_batched / sweep_serial
                                 : 0.0,
                subset.size());

    // Batched-replay allocation gate: steady state as a delta, so
    // one-time pool growth during the first instructions of a lane
    // cancels out.
    size_t lanes_short = 0, lanes_long = 0;
    const uint64_t ba_short = batchDrainAllocs(
        opts.budget, opts.budget.measure, lanes, &lanes_short);
    const uint64_t ba_long = batchDrainAllocs(
        opts.budget, opts.budget.measure * 2, lanes, &lanes_long);
    const uint64_t batch_allocs =
        ba_long > ba_short ? ba_long - ba_short : 0;
    if (lanes_long != lanes_short || batch_allocs != 0) {
        std::printf("FAIL: batched replay allocated %llu times "
                    "across %zu lanes in the steady state\n",
                    static_cast<unsigned long long>(batch_allocs),
                    lanes_short);
        return 1;
    }
    std::printf("batched replay: zero steady-state allocations "
                "across %zu lanes\n",
                lanes_short);

    const std::string json_path =
        opts.jsonPath.empty() ? "BENCH_runner.json" : opts.jsonPath;
    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"jobs\": %u,\n"
            "  \"runs\": %zu,\n"
            "  \"serialKips\": %.1f,\n"
            "  \"parallelKips\": %.1f,\n"
            "  \"speedup\": %.3f,\n"
            "  \"hoistedAllocsPerCycle\": %.4f,\n"
            "  \"hoistedScratchGrowths\": %llu,\n"
            "  \"portedAddedAllocs\": %llu,\n"
            "  \"portedPortStalls\": %llu,\n"
            "  \"measuredCycles\": %llu\n"
            "}\n",
            jobs, batch.size(), serial_kips, par_kips,
            par_kips / serial_kips, hoisted.allocsPerCycle,
            static_cast<unsigned long long>(hoisted.scratchGrowths),
            static_cast<unsigned long long>(arb_allocs),
            static_cast<unsigned long long>(ported.portStalls),
            static_cast<unsigned long long>(hoisted.cycles));
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
