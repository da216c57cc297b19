/**
 * @file
 * Structural tests of synthetic program generation, parameterized
 * over every benchmark profile: CFG well-formedness, PC uniqueness,
 * stream sanity, register constraints.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/program.hh"

namespace pri::workload
{
namespace
{

class ProgramTest : public ::testing::TestWithParam<std::string>
{
  protected:
    const BenchmarkProfile &profile() const
    {
        return profileByName(GetParam());
    }
};

TEST_P(ProgramTest, CfgWellFormed)
{
    SyntheticProgram prog(profile(), 7);
    ASSERT_GT(prog.numBlocks(), 0u);

    for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
        const BasicBlock &blk = prog.block(b);
        EXPECT_EQ(blk.id, b);
        ASSERT_FALSE(blk.insts.empty());
        EXPECT_LT(blk.fallthrough, prog.numBlocks());

        // Exactly the last instruction may be a branch.
        for (size_t i = 0; i + 1 < blk.insts.size(); ++i)
            EXPECT_NE(blk.insts[i].cls, isa::OpClass::Branch);
        EXPECT_TRUE(blk.endsInBranch());

        const StaticInst &br = blk.insts.back();
        if (!br.isReturn) {
            ASSERT_NE(br.takenBlock, kNoBlock);
            EXPECT_LT(br.takenBlock, prog.numBlocks());
        }
        if (!br.isUncond) {
            EXPECT_GE(br.bias, 0.0f);
            EXPECT_LE(br.bias, 1.0f);
        }
    }
}

TEST_P(ProgramTest, PcsAreUniqueAndLocatable)
{
    SyntheticProgram prog(profile(), 7);
    std::set<uint64_t> pcs;
    for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
        for (const auto &si : prog.block(b).insts)
            EXPECT_TRUE(pcs.insert(si.pc).second)
                << "duplicate pc " << si.pc;
    }
    // Every block start must be locatable (branch targets need it).
    for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
        const auto loc =
            prog.locateBlockStart(prog.block(b).startPc);
        EXPECT_EQ(loc.block, b);
        EXPECT_EQ(loc.idx, 0u);
    }
}

TEST_P(ProgramTest, MemOpsReferenceValidStreams)
{
    SyntheticProgram prog(profile(), 7);
    const auto n_streams =
        static_cast<int32_t>(prog.streams().size());
    for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
        for (const auto &si : prog.block(b).insts) {
            if (isa::isMem(si.cls)) {
                EXPECT_GE(si.memStream, 0);
                EXPECT_LT(si.memStream, n_streams);
                if (si.altStream >= 0) {
                    EXPECT_LT(si.altStream, n_streams);
                }
            } else {
                EXPECT_EQ(si.memStream, -1);
            }
        }
    }
}

TEST_P(ProgramTest, RegisterOperandsInRange)
{
    SyntheticProgram prog(profile(), 7);
    for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
        for (const auto &si : prog.block(b).insts) {
            if (si.dst.valid()) {
                EXPECT_LT(si.dst.idx, isa::kNumLogicalRegs);
            }
            if (si.src1.valid()) {
                EXPECT_LT(si.src1.idx, isa::kNumLogicalRegs);
            }
            if (si.src2.valid()) {
                EXPECT_LT(si.src2.idx, isa::kNumLogicalRegs);
            }
            // Loads/ALU write a register; stores/branches do not.
            if (si.cls == isa::OpClass::Store ||
                si.cls == isa::OpClass::Branch) {
                EXPECT_FALSE(si.dst.valid());
            } else {
                EXPECT_TRUE(si.dst.valid());
            }
        }
    }
}

TEST_P(ProgramTest, CallsTargetFunctionEntriesOnly)
{
    SyntheticProgram prog(profile(), 7);
    std::set<uint32_t> entries(prog.functionEntries().begin(),
                               prog.functionEntries().end());
    for (uint32_t b = 0; b < prog.numBlocks(); ++b) {
        const StaticInst &br = prog.block(b).insts.back();
        if (br.isCall) {
            EXPECT_TRUE(entries.count(br.takenBlock))
                << "call to non-entry block";
        }
    }
}

TEST_P(ProgramTest, DeterministicForSameSeed)
{
    SyntheticProgram a(profile(), 123);
    SyntheticProgram b(profile(), 123);
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    ASSERT_EQ(a.numStaticInsts(), b.numStaticInsts());
    for (uint32_t i = 0; i < a.numBlocks(); ++i) {
        const auto &ba = a.block(i);
        const auto &bb = b.block(i);
        ASSERT_EQ(ba.insts.size(), bb.insts.size());
        for (size_t k = 0; k < ba.insts.size(); ++k) {
            EXPECT_EQ(ba.insts[k].cls, bb.insts[k].cls);
            EXPECT_EQ(ba.insts[k].pc, bb.insts[k].pc);
        }
    }
}

TEST_P(ProgramTest, DifferentSeedsGiveDifferentPrograms)
{
    SyntheticProgram a(profile(), 1);
    SyntheticProgram b(profile(), 2);
    // Same shape parameters, but the instruction content differs.
    bool any_diff = false;
    for (uint32_t i = 0; i < a.numBlocks() && !any_diff; ++i) {
        const auto &ba = a.block(i);
        const auto &bb = b.block(i);
        if (ba.insts.size() != bb.insts.size()) {
            any_diff = true;
            break;
        }
        for (size_t k = 0; k < ba.insts.size(); ++k) {
            if (ba.insts[k].cls != bb.insts[k].cls) {
                any_diff = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_diff);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProgramTest,
    ::testing::Values("bzip2", "crafty", "eon", "gap", "gcc", "gzip",
                      "mcf", "parser", "perlbmk", "twolf", "vortex",
                      "vpr", "vpr_ref", "ammp", "applu", "apsi",
                      "art", "equake", "facerec", "fma3d", "galgel",
                      "lucas", "mesa", "mgrid", "sixtrack", "swim",
                      "wupwise"));

} // namespace
} // namespace pri::workload
