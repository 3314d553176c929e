/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.
 *
 * Fingerprints a run's stats dump (perf/rampage_perf.cc's stats_crc)
 * and the reference and probe streams the tests pin, so a change that
 * moves any number shows as a changed 32-bit value.
 */

#ifndef RAMPAGE_UTIL_CRC32_HH
#define RAMPAGE_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace rampage
{

/** CRC-32 of `size` bytes, optionally continuing a running `seed`. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Convenience overload for text payloads (stats dumps). */
std::uint32_t crc32(const std::string &text);

} // namespace rampage

#endif // RAMPAGE_UTIL_CRC32_HH
