/**
 * @file
 * Malformed-stream tests for the --isolate outcome codec.  The pipe
 * bytes come from a child that may have died mid-write (or, in
 * principle, from a corrupted stream), so the decoder's contract is:
 * a well-formed buffer round-trips bit-exactly; every other buffer
 * throws InternalError — never a crash, never an out-of-memory
 * allocation sized by an attacker-controlled length prefix.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/point_ipc.hh"
#include "core/sweep.hh"
#include "util/error.hh"

namespace rampage
{
namespace
{

/** A rich outcome exercising every encoder path. */
PointOutcome
richOutcome()
{
    PointOutcome outcome;
    outcome.id = "p-robust";
    outcome.status = PointStatus::Ok;
    outcome.wallSeconds = 1.25;
    outcome.debugTail = {"ring line one", "ring line two"};
    outcome.haveResult = true;
    outcome.result.elapsedPs = 123456789;
    outcome.result.counts.refs = 60000;
    outcome.result.systemName = "robustness fixture";
    outcome.result.issueHz = 1'000'000'000;
    outcome.result.stats.addCounter("a.counter", "a counter", 7);
    outcome.result.stats.addValue("a.value", "a value", -0.0);
    StatsSnapshot::Entry hist;
    hist.name = "a.histogram";
    hist.desc = "a histogram";
    hist.kind = StatsSnapshot::Kind::Histogram;
    hist.buckets = {1, 2, 3, 4};
    hist.samples = 10;
    hist.sum = 99;
    outcome.result.stats.addEntry(std::move(hist));
    return outcome;
}

TEST(PointIpcRobustness, RoundTripSurvives)
{
    std::string bytes = encodePointOutcome(richOutcome());
    PointOutcome back = decodePointOutcome(bytes);
    EXPECT_EQ(back.id, "p-robust");
    ASSERT_TRUE(back.haveResult);
    EXPECT_EQ(back.result.counts.refs, 60000u);
    ASSERT_EQ(back.result.stats.entries().size(), 3u);
    EXPECT_EQ(back.result.stats.entries()[2].buckets.size(), 4u);
    // Re-encoding the decoded outcome must reproduce the bytes.
    EXPECT_EQ(encodePointOutcome(back), bytes);
}

TEST(PointIpcRobustness, EveryTruncationThrowsInternalError)
{
    std::string bytes = encodePointOutcome(richOutcome());
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_THROW(decodePointOutcome(bytes.substr(0, len)),
                     InternalError)
            << "truncated to " << len << " of " << bytes.size();
}

TEST(PointIpcRobustness, ByteCorruptionNeverEscapesTheTaxonomy)
{
    // Force every byte to 0xFF in turn.  Length prefixes become
    // absurd counts; the decoder must reject them up front (bounded
    // against the bytes remaining) instead of reserving gigabytes,
    // and nothing may escape as a non-InternalError exception.
    std::string bytes = encodePointOutcome(richOutcome());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (static_cast<unsigned char>(bytes[i]) == 0xff)
            continue;
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(0xff);
        try {
            decodePointOutcome(corrupt); // corrupted payload bytes
        } catch (const InternalError &) {
            // corrupted structure: the right category
        } catch (const std::exception &err) {
            FAIL() << "byte " << i
                   << " corruption escaped as: " << err.what();
        }
    }
}

TEST(PointIpcRobustness, HugeDeclaredCountsRejectedBeforeAllocation)
{
    // Hand-build the smallest buffer whose debug-tail count claims
    // 2^32-1 strings: version, id "", status, category, error "",
    // invariant "", scope "", 0 violations, wallSeconds,
    // refsAtCancel, signal, then the hostile count.
    std::string bytes;
    bytes.push_back(4);                     // codec version
    auto u32 = [&bytes](std::uint32_t v) {
        for (int shift = 0; shift < 32; shift += 8)
            bytes.push_back(static_cast<char>((v >> shift) & 0xff));
    };
    auto u64 = [&bytes](std::uint64_t v) {
        for (int shift = 0; shift < 64; shift += 8)
            bytes.push_back(static_cast<char>((v >> shift) & 0xff));
    };
    u32(0);               // id ""
    bytes.push_back(0);   // status
    bytes.push_back(0);   // error category
    u32(0);               // error ""
    u32(0);               // auditInvariant ""
    u32(0);               // auditScope ""
    u32(0);               // no violations
    u64(0);               // wallSeconds
    u64(0);               // refsAtCancel
    u32(0);               // signalNumber
    u32(0xffffffffu);     // debugTail: 4G strings declared
    // The message pins the rejection on the count itself, not on an
    // earlier field (a stale version byte would also throw).
    try {
        decodePointOutcome(bytes);
        FAIL() << "a 4G-string debug tail decoded";
    } catch (const InternalError &err) {
        EXPECT_NE(std::string(err.what()).find("declares 4294967295"),
                  std::string::npos)
            << err.what();
    }
}

TEST(PointIpcRobustness, TornFinalRecordKeepsCompleteOnes)
{
    std::string stream;
    std::string payload = "abc";
    stream.push_back(pointIpcRingTag);
    stream.push_back(3);
    stream.append(3, '\0');
    stream += payload;
    // A second record whose declared length exceeds what follows.
    stream.push_back(pointIpcOutcomeTag);
    stream.push_back(100);
    stream.append(3, '\0');
    stream += "short";

    bool torn = false;
    std::vector<FramedRecord> records =
        parseFramedRecords(stream, torn);
    EXPECT_TRUE(torn);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].tag, pointIpcRingTag);
    EXPECT_EQ(records[0].payload, "abc");
}

} // namespace
} // namespace rampage
