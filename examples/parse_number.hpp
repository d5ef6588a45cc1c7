/**
 * @file
 * Whole-value parsing for the command-line tools' numeric flags
 * (bfly_serve, bfly_loadgen): a value is a decimal number in range or
 * it is refused, never read up to its first bad character.
 */

#ifndef BUTTERFLY_EXAMPLES_PARSE_NUMBER_HPP
#define BUTTERFLY_EXAMPLES_PARSE_NUMBER_HPP

#include <charconv>
#include <cstdint>
#include <cstring>

namespace bfly {

/** Parse all of @p text as a decimal in [min, max], scaled by
 *  @p unit; false on anything else (sign, junk, overflow). */
inline bool
parseNumber(const char *text, std::uint64_t min, std::uint64_t max,
            std::uint64_t unit, std::uint64_t &out)
{
    const char *end = text + std::strlen(text);
    std::uint64_t n = 0;
    const auto [ptr, ec] = std::from_chars(text, end, n);
    if (ec != std::errc() || ptr != end || n < min || n > max / unit)
        return false;
    out = n * unit;
    return true;
}

} // namespace bfly

#endif // BUTTERFLY_EXAMPLES_PARSE_NUMBER_HPP
