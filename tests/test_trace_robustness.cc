/**
 * @file
 * Hardened trace-ingestion tests: every damage pattern the
 * fault-injecting corrupter can produce must either raise TraceError
 * (strict mode, or structural header damage) or degrade predictably
 * (lenient skip-and-warn within the malformed budget).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/corrupter.hh"
#include "trace/file_format.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{
namespace
{

class TraceRobustness : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override
    {
        setQuiet(false);
        std::remove(path.c_str());
    }

    /** Write a healthy native trace of `count` records. */
    void writeNative(std::uint64_t count)
    {
        TraceWriter writer(path);
        for (std::uint64_t i = 0; i < count; ++i)
            writer.write(ref(i));
    }

    /** Write a healthy din trace of `count` records. */
    void writeDin(std::uint64_t count)
    {
        TraceWriter writer(path, true);
        for (std::uint64_t i = 0; i < count; ++i)
            writer.write(ref(i));
    }

    static MemRef ref(std::uint64_t i)
    {
        MemRef r;
        r.vaddr = 0x1000 + 8 * i;
        r.kind = static_cast<RefKind>(i % 3);
        r.pid = 7;
        return r;
    }

    static std::uint64_t countRefs(FileTraceSource &source)
    {
        MemRef r;
        std::uint64_t n = 0;
        while (source.next(r))
            ++n;
        return n;
    }

    // Per-test path: ctest runs fixture tests as concurrent
    // processes, and one test's TearDown must not remove another's
    // file.
    std::string path = std::string(::testing::TempDir()) +
                       "/rampage_robust_" +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                       ".trace";
    TraceReadOptions strict{true, 0};
};

TEST_F(TraceRobustness, TruncatedHeaderIsRejected)
{
    writeNative(4);
    truncateTraceFile(path, 5); // mid-magic
    EXPECT_THROW({ FileTraceSource source(path); }, TraceError);
    try {
        FileTraceSource source(path);
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("header"),
                  std::string::npos);
    }
}

TEST_F(TraceRobustness, BadMagicFallsBackToDinAndFailsTheBudget)
{
    // A flipped first byte means the file is not native; the din
    // reader then sees binary garbage, which strict mode rejects.
    writeNative(4);
    corruptTraceMagic(path);
    FileTraceSource probe(path);
    EXPECT_FALSE(probe.isNative());
    EXPECT_THROW(
        {
            FileTraceSource source(path, 0, strict);
            MemRef r;
            source.next(r);
        },
        TraceError);
}

TEST_F(TraceRobustness, UnsupportedVersionIsRejected)
{
    writeNative(4);
    corruptTraceVersion(path, '9');
    try {
        FileTraceSource source(path);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST_F(TraceRobustness, TruncatedTailStrictThrows)
{
    writeNative(10);
    truncateTraceFile(path, 8 + 10 * 11 - 3); // clip last record
    EXPECT_THROW({ FileTraceSource source(path, 0, strict); },
                 TraceError);
}

TEST_F(TraceRobustness, TruncatedTailLenientDropsOnlyTheTail)
{
    writeNative(10);
    truncateTraceFile(path, 8 + 10 * 11 - 3);
    FileTraceSource source(path);
    EXPECT_TRUE(source.isNative());
    EXPECT_EQ(source.recordCount(), 9u);
    EXPECT_EQ(countRefs(source), 9u);
}

TEST_F(TraceRobustness, CorruptRecordKindStrictThrows)
{
    writeNative(10);
    corruptNativeRecordKind(path, 4, 0xcc);
    FileTraceSource source(path, 0, strict);
    MemRef r;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(source.next(r));
    EXPECT_THROW(source.next(r), TraceError);
}

TEST_F(TraceRobustness, CorruptRecordKindLenientSkipsIt)
{
    writeNative(10);
    corruptNativeRecordKind(path, 4, 0xcc);
    FileTraceSource source(path);
    EXPECT_EQ(countRefs(source), 9u);
    EXPECT_EQ(source.malformedSkipped(), 1u);
}

TEST_F(TraceRobustness, LenientBudgetCapsNativeDamage)
{
    writeNative(10);
    for (std::uint64_t i = 0; i < 5; ++i)
        corruptNativeRecordKind(path, i, 0xcc);
    TraceReadOptions lenient;
    lenient.malformedBudget = 3;
    FileTraceSource source(path, 0, lenient);
    MemRef r;
    EXPECT_THROW(
        {
            while (source.next(r)) {
            }
        },
        TraceError);
}

TEST_F(TraceRobustness, MalformedDinLinesSkippedWithinBudget)
{
    writeDin(6);
    appendMalformedDinLines(path, 4);
    FileTraceSource source(path, 3);
    EXPECT_EQ(countRefs(source), 6u);
    EXPECT_EQ(source.malformedSkipped(), 4u);
}

TEST_F(TraceRobustness, MalformedDinLinesStrictThrow)
{
    writeDin(2);
    appendMalformedDinLines(path, 1);
    FileTraceSource source(path, 3, strict);
    MemRef r;
    ASSERT_TRUE(source.next(r));
    ASSERT_TRUE(source.next(r));
    EXPECT_THROW(source.next(r), TraceError);
}

TEST_F(TraceRobustness, MalformedDinBudgetExceededThrows)
{
    writeDin(2);
    appendMalformedDinLines(path, 8);
    TraceReadOptions lenient;
    lenient.malformedBudget = 5;
    FileTraceSource source(path, 3, lenient);
    MemRef r;
    EXPECT_THROW(
        {
            while (source.next(r)) {
            }
        },
        TraceError);
}

TEST_F(TraceRobustness, BudgetIsPerPass)
{
    // reset() starts a fresh pass: replaying damaged-but-within-budget
    // content must not accumulate into a spurious budget trip.
    writeDin(3);
    appendMalformedDinLines(path, 2);
    TraceReadOptions lenient;
    lenient.malformedBudget = 3;
    FileTraceSource source(path, 3, lenient);
    EXPECT_EQ(countRefs(source), 3u);
    source.reset();
    EXPECT_EQ(countRefs(source), 3u);
    EXPECT_EQ(source.malformedSkipped(), 2u);
}

TEST_F(TraceRobustness, MissingFileThrowsTraceError)
{
    try {
        FileTraceSource source("/nonexistent/rampage.trace");
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Trace);
    }
}

} // namespace
} // namespace rampage
