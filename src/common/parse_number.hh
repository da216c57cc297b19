/**
 * @file
 * Strict parsing of numeric command-line option values, shared by
 * pri_sim, pri_sweepd and the bench harnesses so a malformed number
 * is the same usage error in every CLI.
 */

#ifndef PRI_COMMON_PARSE_NUMBER_HH
#define PRI_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

#include "common/logging.hh"

namespace pri
{

/**
 * @p text as a whole decimal number no larger than @p max, or nothing
 * for anything else (signs, blanks, trailing text, overflow).
 */
inline std::optional<uint64_t>
tryParseNumber(const char *text,
               uint64_t max = std::numeric_limits<uint64_t>::max())
{
    const char *end = text + std::strlen(text);
    uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ptr == text || ptr != end || ec != std::errc{} || v > max)
        return std::nullopt;
    return v;
}

/**
 * The value of option @p opt as a whole decimal number no larger
 * than @p max. Anything else is a fatal usage error rather than a
 * silent 0 or a wrapped-around huge count.
 */
inline uint64_t
parseNumber(std::string_view opt, const char *text,
            uint64_t max = std::numeric_limits<uint64_t>::max())
{
    const auto v = tryParseNumber(text, max);
    if (!v)
        fatal("{}: expected a whole number no larger than {}, got '{}'",
              opt, max, text);
    return *v;
}

/** parseNumber() bounded to what an unsigned holds. */
inline unsigned
parseCount(std::string_view opt, const char *text)
{
    return static_cast<unsigned>(
        parseNumber(opt, text, std::numeric_limits<unsigned>::max()));
}

} // namespace pri

#endif // PRI_COMMON_PARSE_NUMBER_HH
