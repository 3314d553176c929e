/**
 * @file
 * Unit tests for util/units.hh parsing and formatting.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/error.hh"
#include "util/types.hh"
#include "util/units.hh"

namespace rampage
{
namespace
{

TEST(Units, ParseByteSizePlain)
{
    EXPECT_EQ(parseByteSize("128"), 128u);
    EXPECT_EQ(parseByteSize("128B"), 128u);
    EXPECT_EQ(parseByteSize("0"), 0u);
}

TEST(Units, ParseByteSizeSuffixes)
{
    EXPECT_EQ(parseByteSize("4KB"), 4096u);
    EXPECT_EQ(parseByteSize("4kb"), 4096u);
    EXPECT_EQ(parseByteSize("4KiB"), 4096u);
    EXPECT_EQ(parseByteSize("1MB"), mib);
    EXPECT_EQ(parseByteSize("2GB"), 2 * gib);
    EXPECT_EQ(parseByteSize("4.125MB"), 4 * mib + 128 * kib);
}

TEST(Units, ParseCountIsStrict)
{
    EXPECT_EQ(parseCount("0", "n"), 0u);
    EXPECT_EQ(parseCount("24000000", "n"), 24'000'000u);
    for (const char *bad : {"", "-1", "+1", " 7", "7 ", "24x", "abc",
                            "99999999999999999999999999"}) {
        try {
            parseCount(bad, "--count");
            ADD_FAILURE() << "'" << bad << "' was accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("--count"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Units, ParseFrequency)
{
    EXPECT_EQ(parseFrequency("200MHz"), 200'000'000u);
    EXPECT_EQ(parseFrequency("4GHz"), 4'000'000'000u);
    EXPECT_EQ(parseFrequency("1000"), 1000u);
    EXPECT_EQ(parseFrequency("2.5GHz"), 2'500'000'000u);
}

TEST(Units, FormatByteSize)
{
    EXPECT_EQ(formatByteSize(128), "128B");
    EXPECT_EQ(formatByteSize(4096), "4KB");
    EXPECT_EQ(formatByteSize(4 * mib), "4MB");
    EXPECT_EQ(formatByteSize(4 * mib + 128 * kib), "4224KB");
    EXPECT_EQ(formatByteSize(3 * gib), "3GB");
}

TEST(Units, FormatFrequency)
{
    EXPECT_EQ(formatFrequency(200'000'000), "200MHz");
    EXPECT_EQ(formatFrequency(4'000'000'000ull), "4GHz");
    EXPECT_EQ(formatFrequency(500'000'000), "500MHz");
    EXPECT_EQ(formatFrequency(1234), "1234Hz");
}

TEST(Units, RoundTripSizes)
{
    for (std::uint64_t bytes : {128ull, 256ull, 4096ull, 4ull * mib})
        EXPECT_EQ(parseByteSize(formatByteSize(bytes)), bytes);
}

TEST(Units, CycleTime)
{
    // The paper's issue-rate sweep in picoseconds.
    EXPECT_EQ(cycleTimePs(200'000'000), 5000u);
    EXPECT_EQ(cycleTimePs(1'000'000'000), 1000u);
    EXPECT_EQ(cycleTimePs(4'000'000'000ull), 250u);
}

TEST(Units, FormatSeconds)
{
    EXPECT_EQ(formatSeconds(psPerSec, 2), "1.00");
    EXPECT_EQ(formatSeconds(psPerSec / 2, 1), "0.5");
    EXPECT_EQ(formatSeconds(6'380'000'000'000ull, 2), "6.38");
}

} // namespace
} // namespace rampage
