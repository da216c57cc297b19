/**
 * @file
 * Tests for the strict numeric option parser shared by pri_sim,
 * pri_sweepd and the bench harnesses: a sign, a blank, trailing text
 * or an overflow must be a usage error, never a silent 0 or a
 * wrapped-around count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace pri
{
namespace
{

/** True when parsing @p text as option --opt is a usage error. */
bool
rejects(const char *text,
        uint64_t max = std::numeric_limits<uint64_t>::max())
{
    ScopedErrorCapture capture;
    try {
        parseNumber("--opt", text, max);
    } catch (const FatalError &) {
        return true;
    }
    return false;
}

bool
rejectsCount(const char *text)
{
    ScopedErrorCapture capture;
    try {
        parseCount("--jobs", text);
    } catch (const FatalError &) {
        return true;
    }
    return false;
}

TEST(ParseNumber, AcceptsWholeDecimalNumbers)
{
    EXPECT_EQ(parseNumber("--opt", "0"), 0u);
    EXPECT_EQ(parseNumber("--opt", "42"), 42u);
    EXPECT_EQ(parseNumber("--opt", "007"), 7u);
    EXPECT_EQ(parseNumber("--opt", "18446744073709551615"),
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(parseNumber("--opt", "16", 16), 16u);
    EXPECT_EQ(parseCount("--jobs", "4"), 4u);
    EXPECT_EQ(parseCount("--jobs", "4294967295"),
              std::numeric_limits<unsigned>::max());
}

TEST(ParseNumber, RejectsSignsBlanksAndTrailingText)
{
    for (const char *bad : {"-1", "+1", "", " 1", "1 ", "x", "4x",
                            "1.5", "0x10", "1e3"}) {
        EXPECT_TRUE(rejects(bad)) << "'" << bad << "'";
        EXPECT_FALSE(tryParseNumber(bad).has_value()) << "'" << bad << "'";
    }
    EXPECT_TRUE(rejectsCount("-1"));
    EXPECT_TRUE(rejectsCount("x"));
}

TEST(ParseNumber, RejectsOverflowAndValuesAboveTheBound)
{
    EXPECT_TRUE(rejects("18446744073709551616"));
    EXPECT_TRUE(rejects("99999999999999999999999"));
    EXPECT_TRUE(rejects("17", 16));
    EXPECT_FALSE(tryParseNumber("18446744073709551616").has_value());
    EXPECT_EQ(tryParseNumber("16", 16), 16u);
    // A count must fit an unsigned, not wrap to a small number.
    EXPECT_TRUE(rejectsCount("4294967296"));
    EXPECT_TRUE(rejectsCount("18446744073709551615"));
}

TEST(ParseNumber, ErrorNamesTheOptionAndTheText)
{
    ScopedErrorCapture capture;
    try {
        parseNumber("--injections", "-1");
        FAIL() << "accepted -1";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--injections"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'-1'"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace pri
