/**
 * @file
 * Pinned timing of the scheduler and checkpoint-recovery paths.
 *
 * The core has one wakeup/select implementation (per-preg consumer
 * lists, timed wake buckets, an age-ordered ready bitmap) and one
 * branch-recovery implementation (the checkpoint pool with RAS and
 * arch undo journals). Each replaced an older, simpler path and was
 * proven byte-identical to it before that path was deleted. This
 * test keeps that proof: it re-runs the configurations the identity
 * tests used — every scheme mix, a squash-heavy tight scheduler, a
 * binding read-port budget, and a branch-dense bare-core run — and
 * compares the full stats report plus the headline metrics against
 * tests/data/pinned_identity.txt, captured while both paths still
 * existed and agreed.
 *
 * On a mismatch the actual text is written next to the build as
 * pinned_identity.actual.txt; diff it against the committed file to
 * see which counters moved.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strfmt.hh"
#include "core/core.hh"
#include "sim/simulation.hh"
#include "workload/program.hh"

#ifndef PRI_PINNED_EXPECTED
#error "PRI_PINNED_EXPECTED must name the committed expected file"
#endif
#ifndef PRI_PINNED_ACTUAL
#error "PRI_PINNED_ACTUAL must name the mismatch output file"
#endif

namespace pri
{
namespace
{

/** Exact (round-trippable) rendering of a double. */
std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendRun(std::string &out, const std::string &name,
          const sim::RunResult &r)
{
    out += "== " + name + " ==\n";
    out += fmtStr("benchmark {}  scheme {}  width {}\n", r.benchmark,
                  r.scheme, r.width);
    out += fmtStr("cycles {}  insts {}\n", r.cycles, r.insts);
    const std::pair<const char *, double> fields[] = {
        {"ipc", r.ipc},
        {"avgIntOccupancy", r.avgIntOccupancy},
        {"avgFpOccupancy", r.avgFpOccupancy},
        {"lifeAllocToWrite", r.lifeAllocToWrite},
        {"lifeWriteToLastRead", r.lifeWriteToLastRead},
        {"lifeLastReadToRelease", r.lifeLastReadToRelease},
        {"branchMispredictRate", r.branchMispredictRate},
        {"dl1MissRate", r.dl1MissRate},
        {"priEarlyFrees", r.priEarlyFrees},
        {"erEarlyFrees", r.erEarlyFrees},
        {"inlinedFrac", r.inlinedFrac},
        {"portStallsPerKInst", r.portStallsPerKInst},
        {"portInlineBypassFrac", r.portInlineBypassFrac},
    };
    for (const auto &[key, value] : fields)
        out += std::string(key) + " " + exact(value) + "\n";
    out += r.report;
}

sim::RunParams
params(const char *bench, sim::Scheme scheme, uint64_t seed)
{
    sim::RunParams p;
    p.benchmark = bench;
    p.scheme = scheme;
    p.warmupInsts = 2000;
    p.measureInsts = 8000;
    p.seed = seed;
    p.checkInvariants = true;
    return p;
}

std::string
renderPinnedRuns()
{
    std::string out;

    // Scheme mix: refcount consumer bookkeeping and the ideal
    // inline-rewrite hook (which walks the per-preg consumer list).
    for (const char *bench : {"gcc", "swim"}) {
        for (auto scheme : {sim::Scheme::Base,
                            sim::Scheme::PriRefcountLazy,
                            sim::Scheme::PriIdealLazy}) {
            appendRun(out,
                      fmtStr("schemes {} {}", bench,
                             sim::schemeName(scheme)),
                      sim::simulate(params(bench, scheme, 7)));
        }
    }

    // Squash pressure: the most branch-dense profile, a tight
    // scheduler and few physical registers pile wrong-path entries
    // into the scheduler before every squash, exercising the eager
    // unwind of consumer lists, ready bits and wake buckets.
    {
        auto p = params("gcc", sim::Scheme::PriRefcountLazy, 11);
        p.width = 8;
        p.physRegs = 48;
        p.schedSizeOverride = 16;
        appendRun(out, "squash-pressure gcc", sim::simulate(p));
    }

    // Binding read-port budgets: arbitration runs in ROB-age order
    // inside select.
    for (unsigned ports : {2u, 4u}) {
        auto p = params("gcc", sim::Scheme::PriRefcountCkptcount, 7);
        p.width = 8;
        p.physRegs = 64;
        p.prfReadPorts = ports;
        appendRun(out, fmtStr("read-ports {}", ports),
                  sim::simulate(p));
    }

    // Bare core, branch-dense: every checkpoint counter of the pool.
    {
        const auto cfg = core::CoreConfig::fourWide(
            rename::RenameConfig::priRefcountCkptcount(64, 7));
        StatGroup stats;
        workload::SyntheticProgram prog(
            workload::profileByName("gcc"), 17);
        core::OutOfOrderCore cpu(cfg, prog, stats);
        cpu.run(30000);
        cpu.checkInvariants();
        out += "== bare-core gcc ==\n";
        out += fmtStr("cycles {}  committed {}\n", cpu.cycles(),
                      cpu.committedInsts());
        out += stats.report();
    }
    return out;
}

/** 1-based line number of the first difference. */
size_t
firstDiffLine(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (size_t n = 1;; ++n) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga || !gb || la != lb)
            return n;
    }
}

TEST(PinnedIdentity, ReportsMatchCommittedGolden)
{
    const std::string actual = renderPinnedRuns();

    std::ifstream in(PRI_PINNED_EXPECTED, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << PRI_PINNED_EXPECTED;
    std::stringstream expected;
    expected << in.rdbuf();

    if (actual != expected.str()) {
        std::ofstream(PRI_PINNED_ACTUAL, std::ios::binary) << actual;
        FAIL() << "pinned reports differ from " << PRI_PINNED_EXPECTED
               << " at line " << firstDiffLine(actual, expected.str())
               << "; actual output written to " << PRI_PINNED_ACTUAL;
    }
}

} // namespace
} // namespace pri
