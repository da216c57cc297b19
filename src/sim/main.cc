/**
 * @file
 * pri_sim: command-line driver for single simulations and small
 * fault-tolerant sweeps.
 *
 * Usage:
 *   pri_sim [-b benchmark] [-w width] [-s scheme] [-p pregs]
 *           [-n measureInsts] [-u warmupInsts] [-S seed] [-v]
 *           [--read-ports N] [--check-golden]
 *           [--sweep N] [--jobs N] [--batch K] [--journal PATH]
 *           [--timeout-ms N] [--cycle-budget N]
 *           [--watchdog-cycles N] [--no-watchdog]
 *           [--retries N] [--backoff-ms N]
 *           [--inject-fault KIND[@POINT]]
 *
 * Schemes: base er pri pri-lazy pri-ideal pri-ideal-lazy pri-er inf
 *          vp vp-pri
 *
 * `--sweep N` draws N points deterministically from the seed
 * (benchmark x scheme x register count, at the -w width) and runs
 * them through the pooled SimulationRunner. A point that stalls,
 * panics, or crashes is reported in a per-point error table on
 * stderr (exit status 2) while its siblings complete; with
 * `--journal` finished points are persisted as they land, so
 * rerunning the identical command after a crash re-simulates only
 * the missing points and prints a byte-identical table.
 * `--inject-fault wedge@3` plants a scheduler wedge in point 3 only
 * (the watchdog acceptance drill). The same flag also takes a
 * transient-fault spec, e.g. `--inject-fault map:flip:cycle=5000`
 * (one soft-error strike; see src/faults/fault_arg.hh for the
 * grammar).
 *
 * `--batch K` simulates up to K compatible sweep points per worker
 * thread as lanes of one shared-workload batch (default: auto);
 * results are byte-identical to `--batch 1`.
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/hashing.hh"
#include "common/logging.hh"
#include "faults/fault_arg.hh"
#include "isa/reg.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"

namespace
{

/**
 * The value of option @p opt as a whole decimal number no larger
 * than @p max. Anything else (signs, blanks, trailing text,
 * overflow) is a fatal usage error rather than a silent 0.
 */
uint64_t
parseNumber(const std::string &opt, const char *text,
            uint64_t max = std::numeric_limits<uint64_t>::max())
{
    const char *end = text + std::strlen(text);
    uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ptr == text || ptr != end || ec != std::errc{} || v > max)
        pri::fatal("{}: expected a whole number no larger than {}, "
                   "got '{}'",
                   opt, max, text);
    return v;
}

/** Reject machine shapes the core cannot build (it would assert). */
void
validateParams(const pri::sim::RunParams &p)
{
    if (p.width != 4 && p.width != 8)
        pri::fatal("-w: width must be 4 or 8, got {}", p.width);
    // Virtual-physical renaming also holds back a storage reserve.
    using pri::sim::Scheme;
    const bool vp = p.scheme == Scheme::VirtualPhysical ||
        p.scheme == Scheme::VirtualPhysicalPlusPri;
    const unsigned floor = pri::isa::kNumLogicalRegs +
        (vp ? pri::rename::RenameConfig{}.vpReserve : 0);
    if (p.physRegs <= floor) {
        pri::fatal("-p: {} needs more than {} physical registers, "
                   "got {}",
                   pri::sim::schemeName(p.scheme), floor, p.physRegs);
    }
    if (p.prfReadPorts == 1) {
        pri::fatal("--read-ports: must be 0 (unlimited) or at least "
                   "2, got 1");
    }
}

pri::sim::Scheme
parseScheme(const std::string &s)
{
    using pri::sim::Scheme;
    if (s == "base") return Scheme::Base;
    if (s == "er") return Scheme::EarlyRelease;
    if (s == "pri") return Scheme::PriRefcountCkptcount;
    if (s == "pri-lazy") return Scheme::PriRefcountLazy;
    if (s == "pri-ideal") return Scheme::PriIdealCkptcount;
    if (s == "pri-ideal-lazy") return Scheme::PriIdealLazy;
    if (s == "pri-er") return Scheme::PriPlusEr;
    if (s == "inf") return Scheme::InfinitePregs;
    if (s == "vp") return Scheme::VirtualPhysical;
    if (s == "vp-pri") return Scheme::VirtualPhysicalPlusPri;
    pri::fatal("unknown scheme '{}'", s);
}

/**
 * Draw sweep point @p i as a pure function of the seed: benchmark,
 * scheme, and register-file size vary; everything else comes from
 * the base params. Identical across --jobs counts and resumes.
 */
pri::sim::RunParams
drawSweepPoint(const pri::sim::RunParams &base, size_t i)
{
    static const pri::sim::Scheme schemes[] = {
        pri::sim::Scheme::Base,
        pri::sim::Scheme::EarlyRelease,
        pri::sim::Scheme::PriRefcountCkptcount,
        pri::sim::Scheme::PriPlusEr,
    };
    static const unsigned pregs[] = {48, 64, 80, 96};

    const auto &profiles = pri::workload::allProfiles();
    const auto pick = [&](uint64_t salt, size_t n) {
        return pri::hashRange(n, base.seed, i, salt);
    };
    pri::sim::RunParams p = base;
    p.benchmark = profiles[pick(101, profiles.size())].name;
    p.scheme = schemes[pick(102, std::size(schemes))];
    p.physRegs = pregs[pick(103, std::size(pregs))];
    return p;
}

void
printResult(const pri::sim::RunResult &r, unsigned pregs,
            unsigned read_ports, bool verbose)
{
    std::printf("benchmark %s  width %u  scheme %s  pregs %u\n",
                r.benchmark.c_str(), r.width, r.scheme.c_str(),
                pregs);
    std::printf("IPC %.4f  (insts %llu, cycles %llu)\n", r.ipc,
                static_cast<unsigned long long>(r.insts),
                static_cast<unsigned long long>(r.cycles));
    std::printf("occupancy INT %.1f  FP %.1f\n", r.avgIntOccupancy,
                r.avgFpOccupancy);
    std::printf("lifetime  alloc->write %.1f  write->lastread %.1f  "
                "lastread->release %.1f\n",
                r.lifeAllocToWrite, r.lifeWriteToLastRead,
                r.lifeLastReadToRelease);
    std::printf("mispredict/branch %.4f  dl1 miss %.4f  "
                "inlined %.3f\n",
                r.branchMispredictRate, r.dl1MissRate,
                r.inlinedFrac);
    if (read_ports != 0) {
        std::printf("read-ports %u  port-stalls/kinst %.2f  "
                    "inline-bypass %.3f\n",
                    read_ports, r.portStallsPerKInst,
                    r.portInlineBypassFrac);
    }
    if (r.goldenChecked > 0) {
        std::printf("golden-checked %llu commits, no divergence\n",
                    static_cast<unsigned long long>(
                        r.goldenChecked));
    }
    if (verbose)
        std::printf("\n%s", r.report.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    pri::installCrashHandlers();

    pri::sim::RunParams p;
    bool verbose = false;
    size_t sweep = 0;
    unsigned jobs = 1;
    unsigned batch_lanes = 0; // 0 = auto (defaultBatchLanes)
    unsigned retries = 0;
    unsigned backoff_ms = 0;
    std::string journal_path;
    pri::faults::FaultArg fault;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                pri::fatal("missing value for {}", a);
            return argv[++i];
        };
        auto number = [&] { return parseNumber(a, next()); };
        auto count = [&] {
            return static_cast<unsigned>(parseNumber(
                a, next(), std::numeric_limits<unsigned>::max()));
        };
        if (a == "-b") {
            p.benchmark = next();
        } else if (a == "-w") {
            p.width = count();
        } else if (a == "-s") {
            p.scheme = parseScheme(next());
        } else if (a == "-p") {
            p.physRegs = count();
        } else if (a == "-n") {
            p.measureInsts = number();
        } else if (a == "-u") {
            p.warmupInsts = number();
        } else if (a == "-S") {
            p.seed = number();
        } else if (a == "-v") {
            verbose = true;
        } else if (a == "--read-ports") {
            p.prfReadPorts = count();
        } else if (a == "--check-golden") {
            p.checkGolden = true;
        } else if (a == "--sweep") {
            sweep = number();
        } else if (a == "--jobs") {
            jobs = count();
        } else if (a == "--batch") {
            batch_lanes = count();
        } else if (a == "--journal") {
            journal_path = next();
        } else if (a == "--timeout-ms") {
            p.timeoutMs = number();
        } else if (a == "--cycle-budget") {
            p.cycleBudget = number();
        } else if (a == "--watchdog-cycles") {
            p.watchdogCycles = number();
        } else if (a == "--no-watchdog") {
            p.watchdog = false;
        } else if (a == "--retries") {
            retries = count();
        } else if (a == "--backoff-ms") {
            backoff_ms = count();
        } else if (a == "--inject-fault") {
            std::string err;
            if (!pri::faults::parseFaultArg(next(), fault, err))
                pri::fatal("{}", err);
            if (fault.kill) {
                pri::fatal("--inject-fault kill@K drills sweepd "
                           "workers; pri_sim has none");
            }
        } else if (a == "-l" || a == "--list") {
            for (const auto &prof : pri::workload::allProfiles())
                std::printf("%s\n", prof.name.c_str());
            return 0;
        } else {
            std::fprintf(stderr,
                         "usage: pri_sim [-b bench] [-w width] "
                         "[-s scheme] [-p pregs] [-n insts] "
                         "[-u warmup] [-S seed] [-v] [-l] "
                         "[--read-ports N] "
                         "[--check-golden] [--sweep N] [--jobs N] "
                         "[--batch K] "
                         "[--journal PATH] [--timeout-ms N] "
                         "[--cycle-budget N] "
                         "[--watchdog-cycles N] [--no-watchdog] "
                         "[--retries N] [--backoff-ms N] "
                         "[--inject-fault KIND[@POINT]]\n");
            return 1;
        }
    }

    validateParams(p);
    p.checkInvariants = true;

    if (sweep == 0) {
        p.injectFault = fault.legacy;
        p.faultSpec = fault.spec;
        // simulate() throws on bad parameters (e.g. an unknown
        // benchmark name) so batch drivers can capture per-run
        // errors; at the CLI the equivalent is a clean fatal.
        const auto r = [&] {
            try {
                return pri::sim::simulate(p);
            } catch (const std::exception &e) {
                pri::fatal("{}", e.what());
            }
        }();
        printResult(r, p.physRegs, p.prfReadPorts, verbose);
        return 0;
    }

    // ---- sweep mode ----
    std::vector<pri::sim::RunParams> batch;
    batch.reserve(sweep);
    for (size_t i = 0; i < sweep; ++i) {
        auto point = drawSweepPoint(p, i);
        if (fault.point < 0 ||
            static_cast<size_t>(fault.point) == i) {
            point.injectFault = fault.legacy;
            point.faultSpec = fault.spec;
        }
        batch.push_back(std::move(point));
    }

    pri::sim::SweepJournal journal(journal_path);
    if (journal.loadedPoints() > 0) {
        std::fprintf(stderr,
                     "journal: resuming, %zu point(s) already "
                     "complete\n",
                     journal.loadedPoints());
    }

    pri::sim::SimulationRunner runner(jobs);
    runner.setBatchLanes(batch_lanes);
    runner.setRetryPolicy({retries + 1, backoff_ms});
    if (journal.enabled())
        runner.setJournal(&journal);
    const auto outcomes = runner.runCaptured(batch);

    // The stdout table is emitted after the whole batch settles, in
    // submission order, from bit-exact (journaled or fresh) results
    // — byte-identical across --jobs counts and across resumes.
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const auto &o = outcomes[i];
        if (o.ok()) {
            std::printf("point %2zu  %-44s  IPC %.4f  cycles %llu\n",
                        i,
                        pri::sim::paramsSummary(batch[i]).c_str(),
                        o.result.ipc,
                        static_cast<unsigned long long>(
                            o.result.cycles));
        } else {
            std::printf("point %2zu  %-44s  %s\n", i,
                        pri::sim::paramsSummary(batch[i]).c_str(),
                        o.stalled ? "STALLED" : "FAILED");
        }
    }

    const std::string failures =
        pri::sim::SimulationRunner::describeFailures(outcomes,
                                                     batch);
    if (!failures.empty()) {
        std::fprintf(stderr, "\n%s", failures.c_str());
        // Full (multi-line) errors, flight-recorder dumps included.
        for (size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok()) {
                std::fprintf(stderr, "\n%s\n",
                             outcomes[i].error.c_str());
            }
        }
        return 2;
    }
    return 0;
}
