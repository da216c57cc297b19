/**
 * @file
 * Unit tests for the significance-check bit utilities that gate
 * physical register inlining.
 */

#include <gtest/gtest.h>

#include "common/bitutils.hh"

namespace pri
{
namespace
{

TEST(SignExtend, ZeroBitsGivesZero)
{
    EXPECT_EQ(signExtend(0xffff, 0), 0);
}

TEST(SignExtend, PositiveValueUnchanged)
{
    EXPECT_EQ(signExtend(0x3f, 7), 0x3f);
    EXPECT_EQ(signExtend(5, 8), 5);
}

TEST(SignExtend, NegativeValueExtended)
{
    EXPECT_EQ(signExtend(0x7f, 7), -1);
    EXPECT_EQ(signExtend(0x40, 7), -64);
    EXPECT_EQ(signExtend(0x80, 8), -128);
}

TEST(SignExtend, FullWidthIdentity)
{
    EXPECT_EQ(signExtend(0xdeadbeefdeadbeefULL, 64),
              static_cast<int64_t>(0xdeadbeefdeadbeefULL));
}

TEST(FitsInSignedBits, SevenBitBoundaries)
{
    // The 4-wide machine inlines values representable in 7 bits:
    // [-64, 63].
    EXPECT_TRUE(fitsInSignedBits(63, 7));
    EXPECT_FALSE(fitsInSignedBits(64, 7));
    EXPECT_TRUE(fitsInSignedBits(static_cast<uint64_t>(-64), 7));
    EXPECT_FALSE(fitsInSignedBits(static_cast<uint64_t>(-65), 7));
    EXPECT_TRUE(fitsInSignedBits(0, 7));
    EXPECT_TRUE(fitsInSignedBits(static_cast<uint64_t>(-1), 7));
}

TEST(FitsInSignedBits, TenBitBoundaries)
{
    // The 8-wide machine inlines 10-bit values: [-512, 511].
    EXPECT_TRUE(fitsInSignedBits(511, 10));
    EXPECT_FALSE(fitsInSignedBits(512, 10));
    EXPECT_TRUE(fitsInSignedBits(static_cast<uint64_t>(-512), 10));
    EXPECT_FALSE(fitsInSignedBits(static_cast<uint64_t>(-513), 10));
}

TEST(FitsInSignedBits, ZeroBitsNeverFits)
{
    EXPECT_FALSE(fitsInSignedBits(0, 0));
}

TEST(FitsInSignedBits, SixtyFourAlwaysFits)
{
    EXPECT_TRUE(fitsInSignedBits(0xffffffffffffffffULL, 64));
    EXPECT_TRUE(fitsInSignedBits(0x8000000000000000ULL, 64));
}

TEST(SignificantBits, SmallValues)
{
    EXPECT_EQ(significantBits(0), 1u);
    EXPECT_EQ(significantBits(static_cast<uint64_t>(-1)), 1u);
    EXPECT_EQ(significantBits(1), 2u);
    EXPECT_EQ(significantBits(static_cast<uint64_t>(-2)), 2u);
    EXPECT_EQ(significantBits(127), 8u);
    EXPECT_EQ(significantBits(128), 9u);
    EXPECT_EQ(significantBits(static_cast<uint64_t>(-128)), 8u);
    EXPECT_EQ(significantBits(static_cast<uint64_t>(-129)), 9u);
}

TEST(SignificantBits, ConsistentWithFitsInSignedBits)
{
    // Property: significantBits(v) is the smallest w with
    // fitsInSignedBits(v, w).
    const uint64_t samples[] = {
        0, 1, 2, 63, 64, 127, 511, 512, 0xffffULL, 0x7fffffffULL,
        0xffffffffULL, 0x123456789abcdefULL,
        static_cast<uint64_t>(-1), static_cast<uint64_t>(-64),
        static_cast<uint64_t>(-65), static_cast<uint64_t>(-512),
        static_cast<uint64_t>(-513),
        0x8000000000000000ULL,
    };
    for (uint64_t v : samples) {
        const unsigned w = significantBits(v);
        EXPECT_TRUE(fitsInSignedBits(v, w)) << v << " w=" << w;
        if (w > 1) {
            EXPECT_FALSE(fitsInSignedBits(v, w - 1))
                << v << " w=" << w;
        }
    }
}

TEST(FpFields, DecomposesOne)
{
    // 1.0 = 0x3FF0000000000000
    const auto f = fpFields(0x3ff0000000000000ULL);
    EXPECT_EQ(f.sign, 0u);
    EXPECT_EQ(f.exponent, 0x3ffu);
    EXPECT_EQ(f.significand, 0u);
}

TEST(FpTrivial, ZeroAndAllOnes)
{
    EXPECT_TRUE(fpValueTrivial(0));
    EXPECT_TRUE(fpValueTrivial(~uint64_t{0}));
    EXPECT_FALSE(fpValueTrivial(0x3ff0000000000000ULL)); // 1.0
}

TEST(FpTrivial, ExponentAndSignificandFields)
{
    EXPECT_TRUE(fpExponentTrivial(0));                    // +0.0
    EXPECT_TRUE(fpSignificandTrivial(0));
    EXPECT_TRUE(fpSignificandTrivial(0x3ff0000000000000ULL)); // 1.0
    EXPECT_FALSE(fpExponentTrivial(0x3ff0000000000000ULL));
    // Infinity: exponent all ones, significand zero.
    EXPECT_TRUE(fpExponentTrivial(0x7ff0000000000000ULL));
}

TEST(Pow2Helpers, Basics)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(48));
    EXPECT_EQ(nextPow2(5), 8u);
    EXPECT_EQ(log2Exact(4096), 12u);
}

} // namespace
} // namespace pri
