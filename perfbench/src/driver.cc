/**
 * @file
 * One benchmark run of one workload: set-up, the timed region, and
 * the correctness passes, with the raw measurements written as one
 * JSON object for perfbench/run.py to turn into metrics.
 *
 *   pri_perfbench[_traced] --workload NAME --seed S --seconds T
 *                          --jobs N --out FILE [--spans FILE]
 *                          [--no-check]
 *
 * Workloads are closed batches of simulation points run through the
 * same runner path the figure harnesses use (bench_util.hh
 * makeRunner: default batch lanes, a fresh sweep journal per
 * repeat). The timed region repeats the batch until T seconds have
 * passed (at least twice) and checks that every repeat simulated
 * every point identically. A point's host time is the time inside
 * its own SimInstance calls plus its charges: its share of its sweep
 * batch's preparation and finalisation, and its journal append.
 * Outside the timed region, a golden-checked pass runs every point
 * at a short budget on every worker, and an unchecked pass runs them
 * again on one worker; the two must match.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "probe.hh"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace pri;
using Clock = std::chrono::steady_clock;

#ifdef PB_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Reference-suite benchmarks: gcc (branchy INT), mcf (memory
 *  bound INT) and equake (FP). */
const char *const kRefBenches[] = {"gcc", "mcf", "equake"};

/** Programs per benchmark in the reference workloads. One program's
 *  IPC moves up to 3x with its seed, so they average over many. */
constexpr unsigned kPrograms = 16;

/** Budget of the golden-checked correctness pass. */
constexpr bench::Budget kCheckBudget{1000, 4000};

/** Program seeds of benchmark seed s: 11, 22, 33, ... shifted by
 *  1000 s, so seed 0 starts with the figure harnesses' seeds and
 *  different benchmark seeds never share a program. */
uint64_t
programSeed(unsigned i, uint64_t s)
{
    return 11 * (i + 1) + 1000 * s;
}

bool
makeWorkload(const std::string &name, uint64_t s,
             std::vector<sim::RunParams> &points)
{
    if (name == "pri8-ref" || name == "base4-ref") {
        // ROADMAP's reference suite corners at the figure harnesses'
        // default budget.
        const bool pri = name == "pri8-ref";
        const unsigned width = pri ? 8 : 4;
        const bench::Budget budget;
        for (const char *b : kRefBenches) {
            for (unsigned i = 0; i < kPrograms; ++i) {
                points.push_back(bench::detail::paramsFor(
                    bench::Point{b, width,
                                 pri ? sim::Scheme::PriRefcountCkptcount
                                     : sim::Scheme::Base},
                    budget, programSeed(i, s)));
            }
        }
        return true;
    }
    if (name == "sweep-quick") {
        // The fig10 --quick grid, in the harness's own point order.
        const bench::Budget quick{5000, 20000};
        for (const auto &b : bench::intBenchmarks()) {
            for (unsigned width : {4u, 8u}) {
                for (sim::Scheme scheme : sim::kAllSchemes) {
                    for (unsigned i = 0; i < std::size(bench::kSeeds);
                         ++i) {
                        points.push_back(bench::detail::paramsFor(
                            bench::Point{b, width, scheme}, quick,
                            programSeed(i, s)));
                    }
                }
            }
        }
        return true;
    }
    return false;
}

/** Value of scalar stat @p name in a RunResult report (0 if absent). */
double
statValue(const std::string &report, const char *name)
{
    const std::string needle = std::string(" ") + name + " ";
    const size_t at = report.find(needle);
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(report.c_str() + at + needle.size(), nullptr);
}

/** The paper's Base IPC at @p p's width (workload/profile.cc). */
double
paperIpc(const sim::RunParams &p)
{
    const auto &prof = workload::profileByName(p.benchmark);
    return p.width >= 8 ? prof.paperIpc8 : prof.paperIpc4;
}

/** The simulated results that must repeat exactly. */
bool
sameSimulation(const sim::RunResult &a, const sim::RunResult &b)
{
    return a.cycles == b.cycles && a.insts == b.insts &&
        a.committedTotal == b.committedTotal && a.archSig == b.archSig;
}

/** Run @p batch through the harness runner; captures failures. */
std::vector<sim::SimulationRunner::Outcome>
runBatch(const std::vector<sim::RunParams> &batch, unsigned jobs)
{
    return bench::detail::makeRunner(jobs).runCaptured(batch);
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** JSON string literal (the strings here are error messages). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    unsigned jobs = 1;
    std::string out;
    std::string spans;
    bool check = true;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const bool has = i + 1 < argc;
        if (k == "--workload" && has) {
            a.workload = argv[++i];
        } else if (k == "--seed" && has) {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (k == "--seconds" && has) {
            a.seconds = std::strtod(argv[++i], nullptr);
        } else if (k == "--jobs" && has) {
            a.jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (k == "--out" && has) {
            a.out = argv[++i];
        } else if (k == "--spans" && has) {
            a.spans = argv[++i];
        } else if (k == "--no-check") {
            a.check = false;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && !a.out.empty() && a.jobs >= 1 &&
        a.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed S --seconds T "
                     "--jobs N --out FILE [--spans FILE] "
                     "[--no-check]\n",
                     argv[0]);
        return 2;
    }
    std::vector<sim::RunParams> points;
    if (!makeWorkload(args.workload, args.seed, points)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    installCrashHandlers();
    const unsigned jobs = args.jobs;
    const size_t n = points.size();
    std::map<uint64_t, size_t> index; // paramsHash -> point
    for (size_t i = 0; i < n; ++i)
        index[sim::paramsHash(points[i])] = i;

    // ---- set-up: programs and traces, through the workload API ----
    std::vector<std::pair<std::string, uint64_t>> programs;
    for (const auto &p : points) {
        const std::pair<std::string, uint64_t> id{p.benchmark, p.seed};
        if (std::find(programs.begin(), programs.end(), id) ==
            programs.end())
            programs.push_back(id);
    }
    // Each round starts from an empty trace cache and times every
    // program on its own, so a slow moment of the host costs one
    // program one round. Each round keeps its own reference bursts.
    constexpr int kSetups = 15;
    std::vector<std::vector<double>> setup_s(programs.size());
    std::vector<std::vector<uint64_t>> setup_ref;
    auto &cache = workload::trace::TraceCache::global();
    for (int round = 0; round < kSetups; ++round) {
        cache.reset();
        for (size_t k = 0; k < programs.size(); ++k) {
            perfbench::referenceBurst();
            const auto t0 = Clock::now();
            const workload::SyntheticProgram prog(
                workload::profileByName(programs[k].first),
                programs[k].second);
            cache.acquire(prog);
            setup_s[k].push_back(secondsSince(t0));
        }
        setup_ref.push_back(perfbench::takeReference());
    }
    // Points built before the timed region (e.g. by set-up) are not
    // points of the workload.
    perfbench::takePoints();
    perfbench::takeCharges();

    // ---- timed region ----
    const std::string journal_path = args.out + ".journal";
    struct Repeat
    {
        double wall = 0;
        uint64_t committed = 0;
        uint64_t startTick = 0;
        uint64_t endTick = 0;
        std::vector<perfbench::PointRecord> records;
        std::vector<perfbench::Charge> charges;
        std::vector<uint64_t> reference;
    };
    std::vector<Repeat> repeats;
    std::vector<sim::RunResult> first(n);
    std::map<uint64_t, std::string> failed; // key -> first reason
    auto fail = [&](uint64_t key, const std::string &why) {
        failed.emplace(key, why);
    };

    const auto timed0 = Clock::now();
    while (repeats.size() < 2 || secondsSince(timed0) < args.seconds) {
        std::remove(journal_path.c_str());
        bench::detail::resilience().journal =
            std::make_unique<sim::SweepJournal>(journal_path);
        Repeat rep;
        rep.startTick = perfbench::ticks();
        const auto t0 = Clock::now();
        const auto outcomes = runBatch(points, jobs);
        rep.wall = secondsSince(t0);
        rep.endTick = perfbench::ticks();
        bench::detail::resilience().journal.reset();
        rep.records = perfbench::takePoints();
        rep.charges = perfbench::takeCharges();
        rep.reference = perfbench::takeReference();
        for (size_t i = 0; i < n; ++i) {
            const auto &o = outcomes[i];
            const uint64_t key = sim::paramsHash(points[i]);
            if (!o.ok()) {
                fail(key, o.stalled ? "stall: " + o.error : o.error);
                continue;
            }
            rep.committed += o.result.committedTotal;
            if (repeats.empty())
                first[i] = o.result;
            else if (!sameSimulation(first[i], o.result))
                fail(key, "simulated result differs across repeats");
        }
        repeats.push_back(std::move(rep));
    }
    std::remove(journal_path.c_str());
    const double timed_s = secondsSince(timed0);

    // ---- correctness passes (untimed) ----
    const auto check0 = Clock::now();
    uint64_t golden_commits = 0;
    size_t jobs_mismatches = 0;
    bool jobs_checked = false;
    if (args.check) {
        std::vector<sim::RunParams> golden = points;
        for (auto &p : golden) {
            p.checkGolden = true;
            p.warmupInsts = kCheckBudget.warmup;
            p.measureInsts = kCheckBudget.measure;
        }
        const auto g = runBatch(golden, jobs);
        for (size_t i = 0; i < n; ++i) {
            const uint64_t key = sim::paramsHash(points[i]);
            if (!g[i].ok())
                fail(key, "golden check: " + g[i].error);
            else
                golden_commits += g[i].result.goldenChecked;
        }
        if (jobs > 1) {
            // The one-worker pass runs without the checker, which only
            // observes: the simulated results must match all the same.
            jobs_checked = true;
            std::vector<sim::RunParams> plain = golden;
            for (auto &p : plain)
                p.checkGolden = false;
            const auto g1 = runBatch(plain, 1);
            for (size_t i = 0; i < n; ++i) {
                if (g[i].ok() && g1[i].ok() &&
                    sameSimulation(g[i].result, g1[i].result))
                    continue;
                ++jobs_mismatches;
                fail(sim::paramsHash(points[i]),
                     "1-worker result differs from the multi-worker "
                     "one");
            }
        }
        perfbench::takePoints();
        perfbench::takeCharges();
        perfbench::takeReference();
    }

    // Allocation gate (traced binary only; the untraced one counts
    // nothing): a heap allocation after warm-up fails its point,
    // unless the walker probes saw it grow a reused call stack.
    for (const auto &rep : repeats) {
        for (const auto &rec : rep.records) {
            if (rec.steadyAllocs > rec.steadyGrowths) {
                fail(rec.key,
                     std::to_string(rec.steadyAllocs - rec.steadyGrowths) +
                         " heap allocations after warm-up");
            }
        }
    }

    const double check_s = secondsSince(check0);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double ns_per_tick = perfbench::nsPerTick();

    // ---- raw output ----
    std::FILE *f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
        return 1;
    }
    std::fprintf(f, "{\"workload\": %s, \"seed\": %" PRIu64
                 ", \"traced\": %s, \"jobs\": %u,\n",
                 quoted(args.workload).c_str(), args.seed,
                 kTraced ? "true" : "false", jobs);
    std::fprintf(f, " \"compiler\": %s, \"build_type\": %s,\n",
                 quoted("gcc-compatible " __VERSION__).c_str(),
                 quoted(PB_BUILD_TYPE).c_str());
    std::fprintf(f, " \"timed_s\": %.6g, \"check_s\": %.6g,\n", timed_s,
                 check_s);
    std::fprintf(f, " \"setup_s\": [");
    for (size_t k = 0; k < setup_s.size(); ++k) {
        std::fprintf(f, "%s[", k ? ", " : "");
        for (size_t r = 0; r < setup_s[k].size(); ++r)
            std::fprintf(f, "%s%.9g", r ? ", " : "", setup_s[k][r]);
        std::fprintf(f, "]");
    }
    // Host-speed reference bursts (ns) of every set-up round, then of
    // every repeat of the timed region.
    std::vector<std::vector<uint64_t>> timed_ref;
    for (const auto &rep : repeats)
        timed_ref.push_back(rep.reference);
    for (const auto &[name, rounds] :
         {std::pair{"setup_ref_ns", &setup_ref},
          std::pair{"ref_ns", &timed_ref}}) {
        std::fprintf(f, "],\n \"%s\": [", name);
        for (size_t r = 0; r < rounds->size(); ++r) {
            std::fprintf(f, "%s[", r ? ", " : "");
            for (size_t b = 0; b < (*rounds)[r].size(); ++b)
                std::fprintf(f, "%s%.0f", b ? ", " : "",
                             static_cast<double>((*rounds)[r][b]) *
                                 ns_per_tick);
            std::fprintf(f, "]");
        }
    }
    std::fprintf(f, "],\n \"repeats\": [");
    for (size_t r = 0; r < repeats.size(); ++r) {
        std::fprintf(f, "%s{\"wall_s\": %.9g, \"committed\": %" PRIu64 "}",
                     r ? ", " : "", repeats[r].wall,
                     repeats[r].committed);
    }
    // Host ms of every point in every repeat, in point order: its
    // own calls plus its charges; null where the point failed.
    std::vector<std::vector<double>> point_ms(
        n, std::vector<double>(repeats.size(), -1.0));
    double charge_ticks = 0;
    for (size_t r = 0; r < repeats.size(); ++r) {
        const Repeat &rep = repeats[r];
        std::map<uint64_t, double> charged;
        for (const auto &c : rep.charges) {
            for (const uint64_t key : c.keys)
                charged[key] += static_cast<double>(c.selfTicks) /
                    static_cast<double>(c.keys.size());
            charge_ticks += static_cast<double>(c.selfTicks);
        }
        for (const auto &rec : rep.records) {
            if (auto it = index.find(rec.key); it != index.end()) {
                point_ms[it->second][r] =
                    (static_cast<double>(rec.hostTicks) + charged[rec.key]) *
                    ns_per_tick / 1e6;
            }
        }
    }
    std::fprintf(f, "],\n \"point_ms\": [");
    for (size_t i = 0; i < n; ++i) {
        std::fprintf(f, "%s[", i ? ", " : "");
        for (size_t r = 0; r < point_ms[i].size(); ++r) {
            if (point_ms[i][r] < 0)
                std::fprintf(f, "%snull", r ? ", " : "");
            else
                std::fprintf(f, "%s%.6g", r ? ", " : "", point_ms[i][r]);
        }
        std::fprintf(f, "]");
    }
    std::fprintf(f, "],\n \"points\": [\n");
    for (size_t i = 0; i < n; ++i) {
        const auto &p = points[i];
        const auto &r = first[i];
        std::fprintf(
            f,
            "  {\"key\": \"%s\", \"bench\": %s, \"width\": %u, "
            "\"scheme\": %s, \"seed\": %" PRIu64 ", \"cycles\": %" PRIu64
            ", \"insts\": %" PRIu64 ", \"committed\": %" PRIu64
            ", \"arch_sig\": \"%s\", \"ipc\": %.17g, "
            "\"paper_ipc\": %.17g, "
            "\"dl1_miss_rate\": %.17g, \"run_cycles\": %.17g, "
            "\"no_preg_stall_cycles\": %.17g, \"branches\": %.17g, "
            "\"mispredicts\": %.17g}%s\n",
            hex(sim::paramsHash(p)).c_str(), quoted(p.benchmark).c_str(),
            p.width, quoted(sim::schemeName(p.scheme)).c_str(), p.seed,
            r.cycles, r.insts, r.committedTotal, hex(r.archSig).c_str(),
            r.ipc, paperIpc(p), r.dl1MissRate,
            statValue(r.report, "rename.cycles"),
            statValue(r.report, "core.stallNoPregInt") +
                statValue(r.report, "core.stallNoPregFp"),
            statValue(r.report, "core.committedBranches"),
            statValue(r.report, "core.branchMispredicts"),
            i + 1 < n ? "," : "");
    }
    std::fprintf(f, " ],\n \"charge_ns\": %.17g,\n",
                 charge_ticks * ns_per_tick);
    std::fprintf(f, " \"golden\": {\"checked\": %s, "
                 "\"checked_commits\": %" PRIu64 "},\n",
                 args.check ? "true" : "false", golden_commits);
    std::fprintf(f, " \"jobs_identity\": {\"checked\": %s, "
                 "\"mismatches\": %zu},\n",
                 jobs_checked ? "true" : "false", jobs_mismatches);
    std::fprintf(f, " \"failed\": [");
    bool comma = false;
    for (const auto &[key, why] : failed) {
        std::fprintf(f, "%s{\"key\": \"%s\", \"reason\": %s}",
                     comma ? ", " : "", hex(key).c_str(),
                     quoted(why).c_str());
        comma = true;
    }
    std::fprintf(f, "],\n \"peak_rss_kb\": %ld", ru.ru_maxrss);

    if (kTraced) {
        // Layer totals over every timed point, plus the quantities
        // the per-layer ratios divide by.
        std::array<perfbench::FnAgg, perfbench::kNumFns> tot{};
        uint64_t host = 0, cycles = 0, committed = 0, allocs = 0,
                 growths = 0, journal_calls = 0, journal_ticks = 0;
        double runner_ns = 0;
        for (const auto &rep : repeats) {
            runner_ns += rep.wall * 1e9;
            for (const auto &rec : rep.records) {
                host += rec.hostTicks;
                cycles += rec.cycles;
                committed += rec.committed;
                allocs += rec.steadyAllocs;
                growths += rec.steadyGrowths;
                for (size_t k = 0; k < perfbench::kNumFns; ++k) {
                    tot[k].calls += rec.fns[k].calls;
                    tot[k].timedCalls += rec.fns[k].timedCalls;
                    tot[k].timedTicks += rec.fns[k].timedTicks;
                    tot[k].selfTicks += rec.fns[k].selfTicks;
                }
            }
            for (const auto &c : rep.charges) {
                if (c.kind == perfbench::Charge::Kind::JournalAppend) {
                    ++journal_calls;
                    journal_ticks += c.selfTicks;
                }
            }
        }
        std::fprintf(f, ",\n \"trace\": {\"point_ns\": %.17g, "
                     "\"runner_ns\": %.17g, \"workers\": %u, "
                     "\"sim_cycles\": %" PRIu64 ", "
                     "\"sim_committed\": %" PRIu64 ", "
                     "\"steady_allocs\": %" PRIu64 ", "
                     "\"steady_stack_growths\": %" PRIu64 ", "
                     "\"journal_calls\": %" PRIu64 ", "
                     "\"journal_ns\": %.17g,\n"
                     "  \"fns\": [\n",
                     host * ns_per_tick, runner_ns, jobs, cycles,
                     committed, allocs, growths, journal_calls,
                     journal_ticks * ns_per_tick);
        for (size_t k = 0; k < perfbench::kNumFns; ++k) {
            // Inclusive time of sampled leaves scales the timed
            // calls' mean to every call.
            const auto &a = tot[k];
            const double incl = a.timedCalls == 0
                ? 0.0
                : static_cast<double>(a.timedTicks) * a.calls /
                    a.timedCalls * ns_per_tick;
            std::fprintf(f, "   {\"layer\": \"%s\", \"name\": \"%s\", "
                         "\"calls\": %" PRIu64 ", \"timed_calls\": %" PRIu64
                         ", \"incl_ns\": %.17g, \"self_ns\": %.17g}%s\n",
                         perfbench::kFnInfo[k].layer,
                         perfbench::kFnInfo[k].name, a.calls, a.timedCalls,
                         incl, a.selfTicks * ns_per_tick,
                         k + 1 < perfbench::kNumFns ? "," : "");
        }
        std::fprintf(f, "  ]}");

        if (!args.spans.empty()) {
            std::FILE *sf = std::fopen(args.spans.c_str(), "w");
            if (sf != nullptr) {
                const uint64_t t0 = perfbench::tickOrigin();
                auto ns = [&](uint64_t t) {
                    return (t - t0) * ns_per_tick;
                };
                for (size_t r = 0; r < repeats.size(); ++r) {
                    const auto &rep = repeats[r];
                    std::fprintf(sf, "{\"span\": \"sim.runner\", "
                                 "\"repeat\": %zu, \"start_ns\": %.0f, "
                                 "\"end_ns\": %.0f}\n",
                                 r, ns(rep.startTick), ns(rep.endTick));
                    for (const auto &rec : rep.records) {
                        const std::string id = hex(rec.key);
                        std::fprintf(
                            sf, "{\"span\": \"sim.point\", \"id\": \"%s\", "
                            "\"repeat\": %zu, \"thread\": %u, "
                            "\"start_ns\": %.0f, \"end_ns\": %.0f, "
                            "\"host_ns\": %.0f}\n",
                            id.c_str(), r, rec.thread, ns(rec.firstTick),
                            ns(rec.lastTick), rec.hostTicks * ns_per_tick);
                        const unsigned kept = std::min(
                            rec.nSamples, perfbench::PointRecord::kSamples);
                        for (unsigned s = 0; s < kept; ++s) {
                            const auto &ls = rec.samples[s];
                            const auto &info = perfbench::kFnInfo[
                                static_cast<size_t>(ls.fn)];
                            std::fprintf(
                                sf, "{\"span\": \"%s.%s\", \"id\": \"%s\", "
                                "\"sampled\": true, \"start_ns\": %.0f, "
                                "\"end_ns\": %.0f}\n",
                                info.layer, info.name, id.c_str(),
                                ns(ls.start), ns(ls.end));
                        }
                    }
                    for (const auto &c : rep.charges) {
                        static const char *const kNames[] = {
                            "sim.batch_prepare", "sim.batch_finalize",
                            "sim.journal_append"};
                        std::string ids;
                        for (const uint64_t key : c.keys)
                            ids += (ids.empty() ? "\"" : ", \"") + hex(key) +
                                "\"";
                        std::fprintf(
                            sf, "{\"span\": \"%s\", \"ids\": [%s], "
                            "\"repeat\": %zu, \"start_ns\": %.0f, "
                            "\"end_ns\": %.0f, \"self_ns\": %.0f}\n",
                            kNames[static_cast<size_t>(c.kind)],
                            ids.c_str(), r, ns(c.start), ns(c.end),
                            c.selfTicks * ns_per_tick);
                    }
                }
                std::fclose(sf);
            }
        }
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return 0;
}
