/**
 * @file
 * Sweep-batch throughput harness: the fig10 grid (13 SPECint-like
 * workloads x 8 schemes x 2 widths x 3 seeds = 624 points) pushed
 * through SimulationRunner serially (--batch 1) and batched
 * (--batch K, default auto), best-of-N interleaved A/B, reported as
 * points per second and written to BENCH_batch.json.
 *
 * Two gates ride along:
 *  1. The rep-0 reports of both legs must be byte-identical — the
 *     batched path is an execution strategy, never a result change.
 *  2. SweepBatch::drain() — the batched replay loop — must make
 *     zero steady-state heap allocations. The first instructions of
 *     a lane legitimately grow pool-backed structures to their
 *     high-water marks (walker stack, event pool, consumer nodes),
 *     so the gate measures the allocation DELTA between two drains
 *     that differ only in measure length: one-time growth cancels
 *     and anything left is a per-instruction allocation in the
 *     replay loop.
 *
 * The acceptance number for the PR is the --quick speedup at the
 * default batch width (target >= 1.15x).
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
#include "sim/batch/sweep_batch.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

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

const sim::Scheme kFig10Schemes[] = {
    sim::Scheme::Base,
    sim::Scheme::EarlyRelease,
    sim::Scheme::PriRefcountCkptcount,
    sim::Scheme::PriRefcountLazy,
    sim::Scheme::PriIdealCkptcount,
    sim::Scheme::PriIdealLazy,
    sim::Scheme::PriPlusEr,
    sim::Scheme::InfinitePregs,
};

/** The exact point list fig10_int_speedup prefetches. */
std::vector<sim::RunParams>
makeFig10Grid(const bench::Budget &budget)
{
    std::vector<sim::RunParams> grid;
    for (const auto &name : bench::intBenchmarks()) {
        for (unsigned width : {4u, 8u}) {
            for (auto scheme : kFig10Schemes) {
                for (uint64_t seed : bench::kSeeds) {
                    sim::RunParams p;
                    p.benchmark = name;
                    p.width = width;
                    p.scheme = scheme;
                    p.warmupInsts = budget.warmup;
                    p.measureInsts = budget.measure;
                    p.seed = seed;
                    grid.push_back(std::move(p));
                }
            }
        }
    }
    return grid;
}

/** One timed pass of the grid; returns points per second. */
double
timedLeg(const std::vector<sim::RunParams> &grid, unsigned jobs,
         unsigned lanes, std::vector<sim::RunResult> *results_out)
{
    sim::SimulationRunner runner(jobs);
    runner.setBatchLanes(lanes);
    const auto t0 = Clock::now();
    auto results = runner.run(grid);
    const double secs = secondsSince(t0);
    if (results_out != nullptr)
        *results_out = std::move(results);
    return secs > 0
        ? static_cast<double>(grid.size()) / secs
        : 0.0;
}

/** Total operator-new count across the drains of one batched grid:
 *  every (scheme, width) point of one (benchmark, seed) with the
 *  given measure length. */
uint64_t
drainAllocs(const bench::Budget &budget, uint64_t measure,
            unsigned lanes, size_t *lanes_out)
{
    std::vector<sim::RunParams> pts;
    for (unsigned width : {4u, 8u}) {
        for (auto scheme : kFig10Schemes) {
            sim::RunParams p;
            p.benchmark = bench::intBenchmarks().front();
            p.width = width;
            p.scheme = scheme;
            p.warmupInsts = budget.warmup;
            p.measureInsts = measure;
            p.seed = bench::kSeeds[0];
            pts.push_back(std::move(p));
        }
    }
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
        const auto outcomes = sb.finalize();
        for (const auto &o : outcomes) {
            if (!o.ok())
                fatal("alloc-probe lane failed: {}", o.error);
        }
        covered += grp.indices.size();
    }
    *lanes_out = covered;
    return allocs;
}

/**
 * Steady-state allocations in the batched replay loop, measured as
 * the allocation-count delta between two drains of the same grid
 * that differ only in measure length (2x vs 1x). One-time pool and
 * high-water-mark growth is identical in both and cancels; any
 * remainder is allocation proportional to replayed instructions.
 * Returns the lane count of one leg through @p lanes_out.
 */
uint64_t
probeBatchedReplayAllocs(const bench::Budget &budget,
                         unsigned lanes, size_t *lanes_out)
{
    size_t lanes_short = 0, lanes_long = 0;
    const uint64_t a_short = drainAllocs(budget, budget.measure,
                                         lanes, &lanes_short);
    const uint64_t a_long = drainAllocs(budget, budget.measure * 2,
                                        lanes, &lanes_long);
    *lanes_out = lanes_short;
    if (lanes_long != lanes_short)
        fatal("alloc-probe legs formed different batches");
    return a_long > a_short ? a_long - a_short : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv);
    const unsigned jobs = opts.jobs ? opts.jobs : 1;
    const unsigned lanes = opts.batchLanes == 0
        ? sim::defaultBatchLanes()
        : opts.batchLanes;
    unsigned reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
            reps = parseCount("--reps", argv[++i]);
    }

    const auto grid = makeFig10Grid(opts.budget);
    std::printf("== Sweep-batch throughput (fig10 grid) ==\n");
    std::printf("%zu points, warmup %llu + measure %llu insts, "
                "--jobs %u, batch width %u, best of %u\n\n",
                grid.size(),
                static_cast<unsigned long long>(opts.budget.warmup),
                static_cast<unsigned long long>(opts.budget.measure),
                jobs, lanes, reps);

    // Untimed compile pass: touch every (benchmark, seed) once so
    // neither timed leg pays first-compile trace costs.
    {
        std::vector<sim::RunParams> warm;
        for (const auto &name : bench::intBenchmarks()) {
            for (uint64_t seed : bench::kSeeds) {
                sim::RunParams p;
                p.benchmark = name;
                p.seed = seed;
                p.warmupInsts = 500;
                p.measureInsts = 1000;
                warm.push_back(std::move(p));
            }
        }
        sim::SimulationRunner(jobs).run(warm);
    }

    // Interleaved A/B: serial leg then batched leg each rep, so
    // host noise (and any residual cache warmth drift) lands on
    // both sides evenly. Rep 0 also pins byte-identity.
    double serial_best = 0.0, batched_best = 0.0;
    bool identical = true;
    for (unsigned rep = 0; rep < reps; ++rep) {
        std::vector<sim::RunResult> sr, br;
        const double s = timedLeg(grid, jobs, 1,
                                  rep == 0 ? &sr : nullptr);
        const double b = timedLeg(grid, jobs, lanes,
                                  rep == 0 ? &br : nullptr);
        serial_best = std::max(serial_best, s);
        batched_best = std::max(batched_best, b);
        if (rep == 0) {
            for (size_t i = 0; i < sr.size(); ++i) {
                if (sr[i].report != br[i].report) {
                    identical = false;
                    std::printf("REPORT MISMATCH at point %zu "
                                "(%s)\n",
                                i,
                                sim::paramsSummary(grid[i]).c_str());
                }
            }
        }
        std::printf("rep %u: serial %.1f pts/s, batched %.1f "
                    "pts/s\n",
                    rep, s, b);
    }
    const double speedup =
        serial_best > 0 ? batched_best / serial_best : 0.0;

    std::printf("\n%-28s %14s\n", "configuration", "points/sec");
    std::printf("%-28s %14.1f\n", "serial (--batch 1)", serial_best);
    char label[48];
    std::snprintf(label, sizeof(label), "batched (--batch %u)",
                  lanes);
    std::printf("%-28s %14.1f\n", label, batched_best);
    std::printf("sweep-batch speedup: %.2fx over %zu points "
                "(target >= 1.15x: %s)\n",
                speedup, grid.size(),
                speedup >= 1.15 ? "met" : "NOT met");
    if (!identical) {
        std::printf("FAIL: batched reports differ from serial\n");
        return 1;
    }
    std::printf("batched reports byte-identical to serial\n\n");

    size_t probe_lanes = 0;
    const uint64_t replay_allocs =
        probeBatchedReplayAllocs(opts.budget, lanes, &probe_lanes);
    if (replay_allocs != 0) {
        std::printf("FAIL: batched replay allocated %llu times "
                    "across %zu lanes\n",
                    static_cast<unsigned long long>(replay_allocs),
                    probe_lanes);
        return 1;
    }
    std::printf("batched replay: zero steady-state allocations "
                "across %zu lanes\n",
                probe_lanes);

    const std::string json_path =
        opts.jsonPath.empty() ? "BENCH_batch.json" : opts.jsonPath;
    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"points\": %zu,\n"
            "  \"reps\": %u,\n"
            "  \"jobs\": %u,\n"
            "  \"batchLanes\": %u,\n"
            "  \"warmupInsts\": %llu,\n"
            "  \"measureInsts\": %llu,\n"
            "  \"serialPointsPerSec\": %.1f,\n"
            "  \"batchedPointsPerSec\": %.1f,\n"
            "  \"speedup\": %.3f,\n"
            "  \"reportsIdentical\": %s,\n"
            "  \"batchedReplayAllocs\": %llu\n"
            "}\n",
            grid.size(), reps, jobs, lanes,
            static_cast<unsigned long long>(opts.budget.warmup),
            static_cast<unsigned long long>(opts.budget.measure),
            serial_best, batched_best, speedup,
            identical ? "true" : "false",
            static_cast<unsigned long long>(replay_allocs));
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
