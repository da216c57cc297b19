/**
 * @file
 * Golden model and differential checker tests.
 *
 * Three layers:
 *  - the golden interpreter itself (deterministic, architectural
 *    state tracks last writes, control flow follows actual outcomes);
 *  - diff-checked simulations across every figure/ablation
 *    configuration (schemes, widths, PRF sizes, scheduler sizes,
 *    narrow-value widths);
 *  - fault injection: each planted bug is silent to the core's own
 *    assertions but must kill the run once the checker watches it.
 */

#include <gtest/gtest.h>

#include <map>

#include "golden/diff_checker.hh"
#include "golden/golden_model.hh"
#include "sim/simulation.hh"
#include "workload/profile.hh"
#include "workload/program.hh"

namespace pri
{
namespace
{

workload::SyntheticProgram
makeProgram(const std::string &bench = "gzip", uint64_t seed = 42)
{
    return workload::SyntheticProgram(
        workload::profileByName(bench), seed);
}

TEST(GoldenModel, DeterministicAcrossInstances)
{
    const auto program = makeProgram();
    golden::GoldenModel a(program);
    golden::GoldenModel b(program);
    for (int i = 0; i < 5000; ++i) {
        const auto &x = a.step();
        const auto &y = b.step();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.cls, y.cls);
        ASSERT_TRUE(x.dst == y.dst);
        ASSERT_EQ(x.value, y.value);
        ASSERT_EQ(x.memAddr, y.memAddr);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.target, y.target);
    }
    EXPECT_EQ(a.committed(), 5000u);
    EXPECT_EQ(a.archFile(), b.archFile());
}

TEST(GoldenModel, ArchFileTracksLastWrite)
{
    const auto program = makeProgram("gcc", 7);
    golden::GoldenModel m(program);
    std::map<unsigned, uint64_t> last;
    for (int i = 0; i < 4000; ++i) {
        const auto &g = m.step();
        if (g.dst.valid())
            last[g.dst.flat()] = g.value;
    }
    for (const auto &[flat, value] : last)
        EXPECT_EQ(m.archReg(flat), value) << "flat reg " << flat;
}

TEST(GoldenModel, TakenBranchesRedirectToTheirTarget)
{
    const auto program = makeProgram("crafty", 3);
    golden::GoldenModel m(program);
    uint64_t pendingTarget = 0;
    bool pending = false;
    unsigned takenSeen = 0;
    for (int i = 0; i < 5000; ++i) {
        const auto &g = m.step();
        if (pending) {
            ASSERT_EQ(g.pc, pendingTarget);
            pending = false;
        }
        if (g.taken) {
            pendingTarget = g.target;
            pending = true;
            ++takenSeen;
        }
    }
    EXPECT_GT(takenSeen, 100u); // the property actually exercised
}

// ----------------------------------------------------------------
// Diff-checked simulations over the figure/ablation grid.
// ----------------------------------------------------------------

sim::RunParams
checkedParams(const std::string &bench, unsigned width,
              sim::Scheme scheme, unsigned pregs = 64)
{
    sim::RunParams p;
    p.benchmark = bench;
    p.width = width;
    p.scheme = scheme;
    p.physRegs = pregs;
    p.warmupInsts = 2000;
    p.measureInsts = 8000;
    p.seed = 42;
    p.checkInvariants = true;
    p.checkGolden = true;
    return p;
}

void
expectClean(const sim::RunParams &p)
{
    const auto r = sim::simulate(p);
    // The checker observed every commit (it panics on divergence,
    // so reaching here with full coverage is the pass condition).
    EXPECT_EQ(r.goldenChecked, r.committedTotal);
    EXPECT_GE(r.goldenChecked, p.warmupInsts + p.measureInsts);
}

TEST(DiffChecker, AllSchemesFourWide)
{
    // Fig 8/10/11 panels plus the §6 VP schemes.
    for (sim::Scheme s : sim::kAllSchemes)
        expectClean(checkedParams("gzip", 4, s));
    expectClean(checkedParams("gzip", 4,
                              sim::Scheme::VirtualPhysical));
    expectClean(checkedParams("gzip", 4,
                              sim::Scheme::VirtualPhysicalPlusPri));
}

TEST(DiffChecker, FpBenchmarkEightWide)
{
    // Fig 12 flavour: FP-heavy workload on the aggressive model.
    for (sim::Scheme s :
         {sim::Scheme::Base, sim::Scheme::PriRefcountCkptcount,
          sim::Scheme::PriPlusEr, sim::Scheme::InfinitePregs})
        expectClean(checkedParams("art", 8, s));
}

TEST(DiffChecker, PrfSizeSweep)
{
    // Fig 9 axis.
    for (unsigned pregs : {48u, 64u, 96u, 128u})
        expectClean(checkedParams(
            "mcf", 4, sim::Scheme::PriRefcountCkptcount, pregs));
}

TEST(DiffChecker, NarrowWidthAblation)
{
    for (unsigned bits : {4u, 7u, 10u, 12u}) {
        auto p = checkedParams("gzip", 4,
                               sim::Scheme::PriRefcountCkptcount);
        p.narrowBitsOverride = bits;
        expectClean(p);
    }
}

TEST(DiffChecker, SchedulerSizeSweep)
{
    for (unsigned sched : {16u, 64u}) {
        auto p = checkedParams("parser", 4,
                               sim::Scheme::PriRefcountCkptcount);
        p.schedSizeOverride = sched;
        expectClean(p);
    }
}

TEST(DiffChecker, CountsEveryCommitIncludingWarmup)
{
    auto p = checkedParams("gzip", 4, sim::Scheme::Base);
    const auto r = sim::simulate(p);
    EXPECT_EQ(r.goldenChecked, r.committedTotal);
    // Commit drains whole width-groups, so totals may overshoot the
    // requested budget by at most one group per run() call.
    EXPECT_LT(r.committedTotal,
              p.warmupInsts + p.measureInsts + 2 * p.width);
}

// ----------------------------------------------------------------
// Fault injection: the checker must catch bugs the core's own
// always-on assertions cannot see.
// ----------------------------------------------------------------

using DiffCheckerDeathTest = ::testing::Test;

TEST(DiffCheckerDeathTest, StaleWalkerGidxIsSilentWithoutChecker)
{
    // The planted bug is self-consistent: committed values are wrong
    // but the core's internal dataflow assertions all still hold, so
    // the run completes. This is what makes the golden model the
    // unique detector (and this test guards that premise).
    auto p = checkedParams("gzip", 4,
                           sim::Scheme::PriRefcountCkptcount);
    p.checkGolden = false;
    p.injectFault = core::InjectedFault::StaleWalkerGidx;
    const auto r = sim::simulate(p);
    EXPECT_GE(r.committedTotal, p.warmupInsts + p.measureInsts);
}

TEST(DiffCheckerDeathTest, CatchesStaleWalkerGidx)
{
    auto p = checkedParams("gzip", 4,
                           sim::Scheme::PriRefcountCkptcount);
    p.injectFault = core::InjectedFault::StaleWalkerGidx;
    EXPECT_DEATH(sim::simulate(p), "golden divergence");
}

TEST(DiffCheckerDeathTest, CatchesCommitWrongPath)
{
    auto p = checkedParams("crafty", 4, sim::Scheme::Base);
    p.injectFault = core::InjectedFault::CommitWrongPath;
    EXPECT_DEATH(sim::simulate(p), "golden divergence");
}

TEST(DiffCheckerDeathTest, PortOverGrantIsSilentWithoutChecker)
{
    // The over-granting arbiter keeps the machine self-consistent
    // and only the observed commit stream carries the stale read,
    // so without the checker the run completes cleanly — the
    // golden model is the unique detector.
    auto p = checkedParams("gcc", 8,
                           sim::Scheme::PriRefcountCkptcount);
    p.checkGolden = false;
    p.prfReadPorts = 2;
    p.injectFault = core::InjectedFault::PortOverGrant;
    const auto r = sim::simulate(p);
    EXPECT_GE(r.committedTotal, p.warmupInsts + p.measureInsts);
    EXPECT_EQ(r.goldenChecked, 0u);
}

TEST(DiffCheckerDeathTest, CatchesPortOverGrant)
{
    auto p = checkedParams("gcc", 8,
                           sim::Scheme::PriRefcountCkptcount);
    p.prfReadPorts = 2;
    p.injectFault = core::InjectedFault::PortOverGrant;
    EXPECT_DEATH(sim::simulate(p), "golden divergence");
}

/** The port-limited machine (without any planted fault) must stay
 *  golden-clean: arbitration delays issue but never changes the
 *  committed dataflow. */
TEST(DiffChecker, PortLimitedMachineStaysClean)
{
    for (unsigned ports : {2u, 4u, 8u}) {
        auto p = checkedParams("gcc", 8,
                               sim::Scheme::PriRefcountCkptcount);
        p.prfReadPorts = ports;
        expectClean(p);
    }
}

TEST(DiffCheckerDeathTest, CatchesFreeWithoutInline)
{
    // The rename bug frees a narrow destination's physical register
    // without writing the inlined value into the map, leaving the
    // map naming a free register. The checker's periodic audit (or
    // a divergent read-through value) must kill the run.
    // Audit every commit: detection must land within one retire
    // window of the bad free, before any consumer of the stale
    // mapping reaches execute.
    auto p = checkedParams("gzip", 4,
                           sim::Scheme::PriRefcountCkptcount);
    p.injectFreeWithoutInline = true;
    p.goldenAuditInterval = 1;
    EXPECT_DEATH(sim::simulate(p),
                 "map names a free register|golden divergence");
}

} // namespace
} // namespace pri
