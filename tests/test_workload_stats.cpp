/**
 * @file
 * Statistical conformance tests, parameterized over every benchmark
 * profile: the dynamic instruction stream a walker generates must
 * deliver the instruction mix, branch statistics, and value
 * distributions its profile declares. These are the properties the
 * SPEC substitution (DESIGN.md §5) rests on.
 */

#include <gtest/gtest.h>

#include "common/bitutils.hh"
#include "workload/walker.hh"

namespace pri::workload
{
namespace
{

struct StreamStats
{
    uint64_t total = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t condBranches = 0;
    uint64_t takenCond = 0;
    uint64_t fpOps = 0;
    uint64_t intDests = 0;
    uint64_t intNarrow10 = 0;
    uint64_t fpDests = 0;
    uint64_t fpZero = 0;
};

StreamStats
collect(const SyntheticProgram &prog, uint64_t n)
{
    Walker w(prog);
    StreamStats s;
    for (uint64_t i = 0; i < n; ++i) {
        WInst wi = w.next();
        if (wi.isBranch())
            w.steer(wi, wi.taken, wi.actualTarget);
        ++s.total;
        s.loads += wi.isLoad();
        s.stores += wi.isStore();
        if (wi.isBranch()) {
            ++s.branches;
            if (!wi.isUncond) {
                ++s.condBranches;
                s.takenCond += wi.taken;
            }
        }
        s.fpOps += isa::isFp(wi.cls);
        if (wi.hasDst()) {
            if (wi.dst.cls == isa::RegClass::Int) {
                ++s.intDests;
                s.intNarrow10 +=
                    significantBits(wi.resultValue) <= 10;
            } else {
                ++s.fpDests;
                s.fpZero += fpValueTrivial(wi.resultValue);
            }
        }
    }
    return s;
}

class WorkloadStatsTest
    : public ::testing::TestWithParam<std::string>
{
  protected:
    const BenchmarkProfile &profile() const
    {
        return profileByName(GetParam());
    }
};

/** Sum stream stats over several program seeds: hot dynamic loops
 *  skew any single program's mix; the multi-seed mean is what the
 *  experiment harnesses actually consume (bench_util kSeeds). */
StreamStats
collectSeeds(const BenchmarkProfile &p, uint64_t n_per_seed)
{
    StreamStats acc;
    for (uint64_t seed : {11u, 22u, 33u}) {
        SyntheticProgram prog(p, seed);
        const auto s = collect(prog, n_per_seed);
        acc.total += s.total;
        acc.loads += s.loads;
        acc.stores += s.stores;
        acc.branches += s.branches;
        acc.condBranches += s.condBranches;
        acc.takenCond += s.takenCond;
        acc.fpOps += s.fpOps;
        acc.intDests += s.intDests;
        acc.intNarrow10 += s.intNarrow10;
        acc.fpDests += s.fpDests;
        acc.fpZero += s.fpZero;
    }
    return acc;
}

TEST_P(WorkloadStatsTest, DynamicMixTracksProfile)
{
    const auto &p = profile();
    const auto s = collectSeeds(p, 60000);
    const double n = static_cast<double>(s.total);

    // Dynamic loop skew makes the dynamic mix drift from the static
    // mix even after seed-averaging; bound the drift.
    EXPECT_NEAR(s.loads / n, p.fracLoad, 0.15) << p.name;
    EXPECT_NEAR(s.stores / n, p.fracStore, 0.12) << p.name;
    EXPECT_NEAR(s.branches / n, p.fracBranch, 0.10) << p.name;
    if (p.suite == Suite::Fp) {
        EXPECT_GT(s.fpOps / n, 0.08) << p.name;
    } else if (p.fracFpAdd + p.fracFpMult == 0.0) {
        EXPECT_EQ(s.fpOps, 0u) << p.name;
    }
}

TEST_P(WorkloadStatsTest, BranchTakenRateIsPlausible)
{
    const auto s = collectSeeds(profile(), 60000);
    ASSERT_GT(s.condBranches, 500u);
    const double taken =
        static_cast<double>(s.takenCond) / s.condBranches;
    // Loop back-edges keep this well above zero; forward branches
    // keep it well below one.
    EXPECT_GT(taken, 0.05) << profile().name;
    EXPECT_LT(taken, 0.99) << profile().name;
}

TEST_P(WorkloadStatsTest, ValueDistributionsMatchCalibration)
{
    const auto &p = profile();
    const auto s = collectSeeds(p, 60000);

    if (s.intDests > 2000) {
        const double frac =
            static_cast<double>(s.intNarrow10) / s.intDests;
        const WidthCdf cdf(p.widthPoints);
        // Dynamic skew tolerance (hot static instructions dominate).
        EXPECT_NEAR(frac, cdf.at(10), 0.22) << p.name;
    }
    if (s.fpDests > 2000) {
        const double frac =
            static_cast<double>(s.fpZero) / s.fpDests;
        EXPECT_NEAR(frac, p.fpFracZero, 0.08) << p.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, WorkloadStatsTest,
    ::testing::Values("bzip2", "crafty", "eon", "gap", "gcc", "gzip",
                      "mcf", "parser", "perlbmk", "twolf", "vortex",
                      "vpr", "vpr_ref", "ammp", "applu", "apsi",
                      "art", "equake", "facerec", "fma3d", "galgel",
                      "lucas", "mesa", "mgrid", "sixtrack", "swim",
                      "wupwise"));

} // namespace
} // namespace pri::workload
