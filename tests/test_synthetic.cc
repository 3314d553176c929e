/**
 * @file
 * Tests for the synthetic trace generator and the Table 2 roster.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "trace/benchmarks.hh"
#include "trace/synthetic.hh"
#include "util/crc32.hh"

namespace rampage
{
namespace
{

ProgramProfile
testProfile()
{
    ProgramProfile p;
    p.name = "test";
    p.seed = 1234;
    p.dataPerInstr = 0.30;
    return p;
}

TEST(Synthetic, DeterministicForSameSeed)
{
    SyntheticProgram a(testProfile(), 0), b(testProfile(), 0);
    MemRef ra, rb;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.vaddr, rb.vaddr);
        ASSERT_EQ(ra.kind, rb.kind);
    }
}

TEST(Synthetic, ResetReproducesStream)
{
    SyntheticProgram prog(testProfile(), 0);
    std::vector<MemRef> first;
    MemRef ref;
    for (int i = 0; i < 5000; ++i) {
        prog.next(ref);
        first.push_back(ref);
    }
    prog.reset();
    for (int i = 0; i < 5000; ++i) {
        prog.next(ref);
        ASSERT_EQ(ref.vaddr, first[i].vaddr);
        ASSERT_EQ(ref.kind, first[i].kind);
    }
}

TEST(Synthetic, PidStampedOnEveryRef)
{
    SyntheticProgram prog(testProfile(), 7);
    MemRef ref;
    for (int i = 0; i < 1000; ++i) {
        prog.next(ref);
        ASSERT_EQ(ref.pid, 7);
    }
    EXPECT_EQ(prog.pid(), 7);
}

TEST(Synthetic, ReferenceMixMatchesProfile)
{
    ProgramProfile p = testProfile();
    p.dataPerInstr = 0.25;
    p.storeFraction = 0.4;
    SyntheticProgram prog(p, 0);
    std::map<RefKind, int> counts;
    MemRef ref;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        prog.next(ref);
        ++counts[ref.kind];
    }
    double data = counts[RefKind::Load] + counts[RefKind::Store];
    double instr = counts[RefKind::IFetch];
    EXPECT_NEAR(data / instr, 0.25, 0.01);
    EXPECT_NEAR(counts[RefKind::Store] / data, 0.4, 0.02);
}

TEST(Synthetic, AddressesStayInRegions)
{
    ProgramProfile p = testProfile();
    SyntheticProgram prog(p, 0);
    MemRef ref;
    for (int i = 0; i < 100000; ++i) {
        prog.next(ref);
        if (ref.isInstr()) {
            ASSERT_GE(ref.vaddr, SyntheticProgram::codeBase);
            ASSERT_LT(ref.vaddr,
                      SyntheticProgram::codeBase + p.codeBytes);
            ASSERT_EQ(ref.vaddr % 4, 0u) << "unaligned fetch";
        } else {
            bool in_stack =
                ref.vaddr <= SyntheticProgram::stackTop &&
                ref.vaddr > SyntheticProgram::stackTop - p.stackBytes;
            bool in_globals =
                ref.vaddr >= SyntheticProgram::globalBase &&
                ref.vaddr < SyntheticProgram::globalBase + p.globalBytes;
            bool in_heap =
                ref.vaddr >= SyntheticProgram::heapBase &&
                ref.vaddr < SyntheticProgram::heapBase + p.heapBytes;
            ASSERT_TRUE(in_stack || in_globals || in_heap)
                << std::hex << ref.vaddr;
        }
    }
}

TEST(Synthetic, EndlessStream)
{
    SyntheticProgram prog(testProfile(), 0);
    MemRef ref;
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(prog.next(ref));
    EXPECT_EQ(prog.generated(), 1000u);
}

TEST(Roster, HasEighteenPrograms)
{
    // Table 2 lists 18 traces.
    EXPECT_EQ(benchmarkRoster().size(), 18u);
}

TEST(Roster, TotalsMatchPaperTable2)
{
    // The combined workload is ~1.1 G references (§4.2).
    double total = 0;
    for (const auto &profile : benchmarkRoster())
        total += profile.totalMillions;
    EXPECT_NEAR(total, 1100.0, 25.0);
}

TEST(Roster, MixDerivedFromTable2Counts)
{
    for (const auto &profile : benchmarkRoster()) {
        EXPECT_NEAR(profile.dataPerInstr,
                    profile.totalMillions / profile.instrMillions - 1.0,
                    1e-9)
            << profile.name;
        EXPECT_GT(profile.dataPerInstr, 0.0) << profile.name;
        EXPECT_LT(profile.dataPerInstr, 0.6) << profile.name;
    }
}

TEST(Roster, LookupByName)
{
    const auto &gcc = benchmarkProfile("gcc");
    EXPECT_EQ(gcc.name, "gcc");
    EXPECT_NEAR(gcc.instrMillions, 78.8, 1e-9);
    EXPECT_NEAR(gcc.totalMillions, 100.0, 1e-9);
}

TEST(Roster, DistinctSeedsAndPids)
{
    auto workload = makeWorkload();
    ASSERT_EQ(workload.size(), 18u);
    for (std::size_t i = 0; i < workload.size(); ++i)
        EXPECT_EQ(workload[i]->pid(), static_cast<Pid>(i));
    // Streams differ between programs.
    MemRef a, b;
    workload[0]->next(a);
    workload[1]->next(b);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        workload[0]->next(a);
        workload[1]->next(b);
        if (a.vaddr == b.vaddr)
            ++same;
    }
    EXPECT_LT(same, 50);
}

TEST(Roster, SaltDecorrelatesWorkloads)
{
    auto base = makeWorkload(0);
    auto salted = makeWorkload(1);
    MemRef a, b;
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        base[0]->next(a);
        salted[0]->next(b);
        if (a.vaddr == b.vaddr)
            ++same;
    }
    EXPECT_LT(same, 150);
}

/**
 * CRC-32 of the first `n` references of `src`, pulled in 4096-ref
 * fills; each reference is hashed as its little-endian vaddr (8 B),
 * kind (1 B) and pid (2 B), so struct padding never enters the sum.
 */
std::uint32_t
streamCrc(TraceSource &src, std::size_t n)
{
    constexpr std::size_t chunk = 4096;
    std::vector<MemRef> refs(chunk);
    std::vector<std::uint8_t> bytes(chunk * 11);
    std::uint32_t crc = 0;
    for (std::size_t done = 0; done < n;) {
        std::size_t want = std::min(chunk, n - done);
        std::size_t got = src.fill(refs.data(), want);
        EXPECT_EQ(got, want);
        std::uint8_t *out = bytes.data();
        for (std::size_t i = 0; i < got; ++i) {
            for (int b = 0; b < 8; ++b)
                *out++ =
                    static_cast<std::uint8_t>(refs[i].vaddr >> (8 * b));
            *out++ = static_cast<std::uint8_t>(refs[i].kind);
            *out++ = static_cast<std::uint8_t>(refs[i].pid);
            *out++ = static_cast<std::uint8_t>(refs[i].pid >> 8);
        }
        crc = crc32(bytes.data(), got * 11, crc);
        done += got;
    }
    return crc;
}

TEST(SyntheticFingerprint, RosterStreamsArePinned)
{
    // The first 2^20 references of every roster program, for the two
    // workload salts the benchmark and the benches use.  A generator
    // rewrite must reproduce these exactly: every golden, stats crc
    // and byte-identity check downstream depends on the stream.
    // DeterministicForSameSeed cannot catch a changed stream, since
    // both of its instances change together.
    static const std::array<std::array<std::uint32_t, 18>, 2> pinned = {{
        // makeWorkload(0), roster order (alvinn ... yacc)
        {0x3a6ee149, 0x86b30778, 0x7a2b84ab, 0xab44e8e0,
         0x96bde8e6, 0xec32ae0b, 0x981e60fb, 0x616ebab5,
         0xa1329852, 0x7e05098f, 0x9da47d1d, 0x13511799,
         0xacb1ce29, 0x2596042e, 0x0c7fb696, 0x239c6b0b,
         0xf478f336, 0x5e5dd3c6},
        // makeWorkload(1)
        {0xd38c1d84, 0xe24b2e2a, 0xc850a4ba, 0xbbe04615,
         0x7fb84a05, 0xa129eda8, 0x0faec62b, 0x38979385,
         0x74f20054, 0x50c6d646, 0x37933e9f, 0x480df6a6,
         0x1b161615, 0x52d9a6ee, 0xfe4e5277, 0x853562ec,
         0x9d414c16, 0xf9940189},
    }};
    for (std::uint64_t salt : {0u, 1u}) {
        auto workload = makeWorkload(salt);
        ASSERT_EQ(workload.size(), 18u);
        for (std::size_t i = 0; i < workload.size(); ++i) {
            EXPECT_EQ(streamCrc(*workload[i], std::size_t{1} << 20),
                      pinned[salt][i])
                << std::hex << "salt " << salt << " program "
                << workload[i]->name();
        }
    }
}

/** `total` references from a fresh `profile` stream, filled in the
 *  repeating chunk-size `schedule`; counts the calls that open with
 *  a data reference staged by the call before (`pendingRef`). */
std::vector<MemRef>
fillChunked(const ProgramProfile &profile, std::size_t total,
            const std::vector<std::size_t> &schedule,
            std::size_t &data_openers)
{
    SyntheticProgram prog(profile, 3);
    std::vector<MemRef> out(total);
    data_openers = 0;
    std::size_t done = 0;
    for (std::size_t k = 0; done < total; ++k) {
        std::size_t want =
            std::min(schedule[k % schedule.size()], total - done);
        EXPECT_EQ(prog.fill(out.data() + done, want), want);
        if (!out[done].isInstr())
            ++data_openers;
        done += want;
    }
    EXPECT_EQ(prog.generated(), total);
    return out;
}

TEST(Synthetic, StreamIndependentOfChunking)
{
    // A data reference that does not fit in one fill opens the next,
    // so every chunking yields the one stream.
    const ProgramProfile &profile = benchmarkProfile("nasa7");
    const std::size_t total = 200000;
    std::size_t openers = 0;
    std::vector<MemRef> whole =
        fillChunked(profile, total, {total}, openers);
    EXPECT_EQ(openers, 0u);

    const std::vector<std::vector<std::size_t>> schedules = {
        {1}, {7}, {4096}, {1, 7, 4096, 2, 3, 1000, 1, 1, 64}};
    for (const auto &schedule : schedules) {
        std::vector<MemRef> got =
            fillChunked(profile, total, schedule, openers);
        if (schedule.size() > 1 || schedule[0] < 4096) {
            // A data reference was split from its fetch across two
            // calls.
            EXPECT_GT(openers, 0u) << "schedule[0] " << schedule[0];
        }
        for (std::size_t i = 0; i < total; ++i) {
            ASSERT_EQ(got[i].vaddr, whole[i].vaddr)
                << "ref " << i << " schedule[0] " << schedule[0];
            ASSERT_EQ(got[i].kind, whole[i].kind) << "ref " << i;
            ASSERT_EQ(got[i].pid, whole[i].pid) << "ref " << i;
        }
    }
}

} // namespace
} // namespace rampage
