/**
 * @file
 * Tests for the dynamic walker: determinism under checkpoint/restore
 * (the property all scheme comparisons rest on), wrong-path walking,
 * and the statistical properties of generated values (paper Fig 2).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitutils.hh"
#include "workload/walker.hh"

namespace pri::workload
{
namespace
{

/** Walk n instructions down the correct path. */
std::vector<WInst>
walkCorrect(Walker &w, size_t n)
{
    std::vector<WInst> out;
    while (out.size() < n) {
        WInst wi = w.next();
        if (wi.isBranch())
            w.steer(wi, wi.taken, wi.actualTarget);
        out.push_back(wi);
    }
    return out;
}

TEST(Walker, CorrectPathIsDeterministic)
{
    const auto &prof = profileByName("gzip");
    SyntheticProgram prog(prof, 5);
    Walker a(prog);
    Walker b(prog);
    const auto wa = walkCorrect(a, 5000);
    const auto wb = walkCorrect(b, 5000);
    for (size_t i = 0; i < wa.size(); ++i) {
        EXPECT_EQ(wa[i].pc, wb[i].pc);
        EXPECT_EQ(wa[i].resultValue, wb[i].resultValue);
        EXPECT_EQ(wa[i].memAddr, wb[i].memAddr);
        EXPECT_EQ(wa[i].taken, wb[i].taken);
    }
}

TEST(Walker, WrongPathDetourLeavesCorrectPathUnchanged)
{
    // Walking down the wrong path at every branch, then restoring,
    // must reproduce exactly the same correct-path stream.
    const auto &prof = profileByName("gcc");
    SyntheticProgram prog(prof, 9);

    Walker ref(prog);
    const auto expected = walkCorrect(ref, 3000);

    Walker w(prog);
    std::vector<WInst> got;
    while (got.size() < 3000) {
        WInst wi = w.next();
        if (wi.isBranch()) {
            if (!wi.isUncond) {
                // Take a 10-instruction wrong-path detour first.
                const auto ckpt = w.checkpoint();
                const bool wrong = !wi.taken;
                w.steer(wi, wrong,
                        wrong ? wi.actualTarget : wi.fallThrough);
                for (int k = 0; k < 10; ++k) {
                    WInst junk = w.next();
                    if (junk.isBranch()) {
                        w.steer(junk, junk.taken,
                                junk.actualTarget);
                    }
                }
                w.restore(ckpt);
            }
            w.steer(wi, wi.taken, wi.actualTarget);
        }
        got.push_back(wi);
    }

    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i].pc, expected[i].pc) << "at " << i;
        EXPECT_EQ(got[i].resultValue, expected[i].resultValue)
            << "at " << i;
        EXPECT_EQ(got[i].taken, expected[i].taken) << "at " << i;
        EXPECT_EQ(got[i].memAddr, expected[i].memAddr) << "at " << i;
    }
}

TEST(Walker, IntValueWidthsTrackProfileCdf)
{
    const auto &prof = profileByName("gzip");
    SyntheticProgram prog(prof, 11);
    Walker w(prog);
    const auto insts = walkCorrect(w, 40000);

    uint64_t n = 0, le10 = 0;
    for (const auto &wi : insts) {
        if (wi.hasDst() && wi.dst.cls == isa::RegClass::Int) {
            ++n;
            if (significantBits(wi.resultValue) <= 10)
                ++le10;
        }
    }
    ASSERT_GT(n, 1000u);
    const double frac = static_cast<double>(le10) / n;
    // gzip's CDF says ~0.8 of operands fit in 10 bits; allow slack
    // for per-static clustering.
    EXPECT_NEAR(frac, prog.widthCdf().at(10), 0.12);
}

TEST(Walker, FpZeroFractionTracksProfile)
{
    const auto &prof = profileByName("art"); // fpFracZero = 0.86
    SyntheticProgram prog(prof, 11);
    Walker w(prog);
    const auto insts = walkCorrect(w, 40000);

    uint64_t n = 0, zero = 0;
    for (const auto &wi : insts) {
        if (wi.hasDst() && wi.dst.cls == isa::RegClass::Fp) {
            ++n;
            if (fpValueTrivial(wi.resultValue))
                ++zero;
        }
    }
    ASSERT_GT(n, 1000u);
    EXPECT_NEAR(static_cast<double>(zero) / n, prof.fpFracZero,
                0.05);
}

TEST(Walker, AddressesStayInsideStreams)
{
    const auto &prof = profileByName("mcf");
    SyntheticProgram prog(prof, 3);
    Walker w(prog);
    const auto insts = walkCorrect(w, 20000);
    for (const auto &wi : insts) {
        if (!wi.isLoad() && !wi.isStore())
            continue;
        bool inside = false;
        for (const auto &st : prog.streams()) {
            if (wi.memAddr >= st.base &&
                wi.memAddr < st.base + st.bytes) {
                inside = true;
                break;
            }
        }
        EXPECT_TRUE(inside) << "addr " << wi.memAddr;
    }
}

TEST(Walker, BranchOutcomeRatesFollowBias)
{
    const auto &prof = profileByName("gzip");
    SyntheticProgram prog(prof, 21);
    Walker w(prog);
    const auto insts = walkCorrect(w, 50000);
    uint64_t branches = 0, taken = 0;
    for (const auto &wi : insts) {
        if (wi.isBranch() && !wi.isUncond) {
            ++branches;
            taken += wi.taken;
        }
    }
    ASSERT_GT(branches, 2000u);
    const double rate = static_cast<double>(taken) / branches;
    // Loop back-edges are strongly taken, forward branches mixed:
    // overall taken rate should be clearly between the extremes.
    EXPECT_GT(rate, 0.2);
    EXPECT_LT(rate, 0.9);
}

TEST(Walker, SeqNumbersAreUniqueAndMonotonic)
{
    const auto &prof = profileByName("eon");
    SyntheticProgram prog(prof, 4);
    Walker w(prog);
    uint64_t prev = 0;
    bool first = true;
    for (int i = 0; i < 2000; ++i) {
        WInst wi = w.next();
        if (wi.isBranch())
            w.steer(wi, wi.taken, wi.actualTarget);
        if (!first) {
            EXPECT_GT(wi.seq, prev);
        }
        prev = wi.seq;
        first = false;
    }
}

TEST(Walker, CurrentPcMatchesNextInstruction)
{
    const auto &prof = profileByName("eon");
    SyntheticProgram prog(prof, 4);
    Walker w(prog);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t pc = w.currentPc();
        WInst wi = w.next();
        EXPECT_EQ(wi.pc, pc);
        if (wi.isBranch())
            w.steer(wi, wi.taken, wi.actualTarget);
    }
}

TEST(Walker, ReturnsTargetTheirCallSites)
{
    const auto &prof = profileByName("gcc");
    SyntheticProgram prog(prof, 13);
    Walker w(prog);
    std::vector<uint64_t> call_stack;
    for (int i = 0; i < 50000; ++i) {
        WInst wi = w.next();
        if (wi.isBranch()) {
            if (wi.isCall)
                call_stack.push_back(wi.fallThrough);
            if (wi.isReturn && !call_stack.empty()) {
                EXPECT_EQ(wi.actualTarget, call_stack.back());
                call_stack.pop_back();
            }
            w.steer(wi, wi.taken, wi.actualTarget);
        }
    }
}

} // namespace
} // namespace pri::workload
