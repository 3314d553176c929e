/**
 * @file
 * Parsing and formatting of human-readable quantities: byte sizes
 * ("128B", "4KB", "4.125MB"), frequencies ("200MHz", "4GHz") and
 * simulated time.  Used by benches, examples and environment-variable
 * configuration, plus the strict unsigned parser every count-valued
 * knob and flag shares.
 */

#ifndef RAMPAGE_UTIL_UNITS_HH
#define RAMPAGE_UTIL_UNITS_HH

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace rampage
{

/**
 * Parse an unsigned decimal count ("24000000") strictly, unlike bare
 * strtoull: rejects signs and leading whitespace ("-5" would wrap,
 * " 24" would be skipped), trailing junk ("24x" would truncate), text
 * with no digits ("abc" would parse as 0) and out-of-range values.
 * The ConfigError names `origin` (the flag, variable or field the
 * text came from) and echoes the text.
 */
std::uint64_t parseCount(const std::string &text, const char *origin);

/**
 * Parse a byte size such as "128", "128B", "4KB", "1MB", "2GiB".
 * Binary (1024-based) multipliers throughout, matching the paper's
 * usage. Throws ConfigError on malformed input.
 */
std::uint64_t parseByteSize(const std::string &text);

/**
 * Parse a frequency such as "200MHz", "4GHz", "1000000000" (Hz).
 * Throws ConfigError on malformed input.
 */
std::uint64_t parseFrequency(const std::string &text);

/** Format a byte count compactly, e.g. 4096 -> "4KB", 132 -> "132B". */
std::string formatByteSize(std::uint64_t bytes);

/** Format a frequency compactly, e.g. 200000000 -> "200MHz". */
std::string formatFrequency(std::uint64_t hz);

/** Format picoseconds as seconds with the given precision. */
std::string formatSeconds(Tick ps, int precision = 4);

/** @return the CPU cycle time in picoseconds for an issue rate in Hz. */
Tick cycleTimePs(std::uint64_t hz);

} // namespace rampage

#endif // RAMPAGE_UTIL_UNITS_HH
