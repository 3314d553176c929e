/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "util/random.hh"

namespace rampage
{
namespace
{

CacheParams
params(std::uint64_t size, std::uint64_t block, unsigned assoc,
       ReplPolicy repl = ReplPolicy::LRU)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = size;
    p.blockBytes = block;
    p.assoc = assoc;
    p.repl = repl;
    return p;
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(params(1024, 32, 1));
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x100, false).hit);
    // Same block, different offset.
    EXPECT_TRUE(cache.access(0x11f, false).hit);
    // Next block misses.
    EXPECT_FALSE(cache.access(0x120, false).hit);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    // 1 KB direct-mapped, 32 B blocks: addresses 1 KB apart conflict.
    SetAssocCache cache(params(1024, 32, 1));
    EXPECT_FALSE(cache.access(0x0, false).hit);
    auto res = cache.access(0x400, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.victimValid);
    EXPECT_EQ(res.victimAddr, 0x0u);
    EXPECT_FALSE(cache.access(0x0, false).hit); // evicted
}

TEST(Cache, TwoWayAbsorbsConflict)
{
    SetAssocCache cache(params(1024, 32, 2));
    cache.access(0x0, false);
    cache.access(0x400, false);
    EXPECT_TRUE(cache.access(0x0, false).hit);
    EXPECT_TRUE(cache.access(0x400, false).hit);
}

TEST(Cache, LruEvictsLeastRecent)
{
    // One set of 2 ways: fill A, B; touch A; C must evict B.
    SetAssocCache cache(params(64, 32, 2));
    cache.access(0x000, false); // A
    cache.access(0x100, false); // B
    cache.access(0x000, false); // touch A
    auto res = cache.access(0x200, false); // C
    EXPECT_TRUE(res.victimValid);
    EXPECT_EQ(res.victimAddr, 0x100u);
}

TEST(Cache, FifoEvictsOldestFill)
{
    SetAssocCache cache(params(64, 32, 2, ReplPolicy::FIFO));
    cache.access(0x000, false); // A filled first
    cache.access(0x100, false); // B
    cache.access(0x000, false); // touching A must not matter
    auto res = cache.access(0x200, false);
    EXPECT_TRUE(res.victimValid);
    EXPECT_EQ(res.victimAddr, 0x000u);
}

TEST(Cache, DirtyVictimReported)
{
    // 64 B / 32 B / direct-mapped => 2 sets, set = address bit 5.
    SetAssocCache cache(params(64, 32, 1));
    cache.access(0x000, true); // dirty fill, set 0
    auto res = cache.access(0x020, false); // set 1: no conflict
    EXPECT_FALSE(res.victimValid);
    res = cache.access(0x040, false); // set 0: evicts dirty 0x000
    EXPECT_TRUE(res.victimValid);
    EXPECT_TRUE(res.victimDirty);
    EXPECT_EQ(res.victimAddr, 0x000u);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, WriteHitDirtiesBlock)
{
    SetAssocCache cache(params(64, 32, 1));
    cache.access(0x000, false);
    EXPECT_FALSE(cache.probeDirty(0x000));
    cache.access(0x004, true);
    EXPECT_TRUE(cache.probeDirty(0x01f));
}

TEST(Cache, InvalidateReportsDirtyState)
{
    SetAssocCache cache(params(64, 32, 1));
    cache.access(0x000, true);
    auto inv = cache.invalidate(0x000);
    EXPECT_TRUE(inv.present);
    EXPECT_TRUE(inv.dirty);
    EXPECT_FALSE(cache.probe(0x000));
    inv = cache.invalidate(0x000);
    EXPECT_FALSE(inv.present);
}

TEST(Cache, MarkCleanAndDirty)
{
    SetAssocCache cache(params(64, 32, 1));
    cache.access(0x000, false);
    EXPECT_FALSE(cache.probeDirty(0x000));
    cache.markDirty(0x000);
    EXPECT_TRUE(cache.probeDirty(0x000));
    // No-op on an absent block.
    cache.markDirty(0x999);
    EXPECT_FALSE(cache.probe(0x999));
}

TEST(Cache, FlushAll)
{
    SetAssocCache cache(params(256, 32, 2));
    for (Addr a = 0; a < 256; a += 32)
        cache.access(a, false);
    EXPECT_EQ(cache.validBlocks(), 8u);
    cache.flushAll();
    EXPECT_EQ(cache.validBlocks(), 0u);
}

TEST(Cache, FullyAssociativeViaAssocZero)
{
    SetAssocCache cache(params(128, 32, 0));
    EXPECT_EQ(cache.numSets(), 1u);
    EXPECT_EQ(cache.ways(), 4u);
    // Addresses that would conflict in any set-indexed scheme coexist.
    cache.access(0x0000, false);
    cache.access(0x1000, false);
    cache.access(0x2000, false);
    cache.access(0x3000, false);
    EXPECT_TRUE(cache.probe(0x0000));
    EXPECT_TRUE(cache.probe(0x3000));
}

TEST(Cache, BlockAddr)
{
    SetAssocCache cache(params(1024, 128, 1));
    EXPECT_EQ(cache.blockAddr(0x17f), 0x100u);
    EXPECT_EQ(cache.blockAddr(0x100), 0x100u);
}

TEST(Cache, PaperGeometries)
{
    // The paper's L1: 16 KB direct-mapped, 32 B blocks => 512 sets.
    SetAssocCache l1(params(16 * kib, 32, 1));
    EXPECT_EQ(l1.numSets(), 512u);
    // The paper's L2: 4 MB direct-mapped at 128 B => 32 K sets.
    SetAssocCache l2(params(4 * mib, 128, 1));
    EXPECT_EQ(l2.numSets(), 32768u);
    // 2-way at 4 KB blocks => 512 sets.
    SetAssocCache two(params(4 * mib, 4096, 2, ReplPolicy::Random));
    EXPECT_EQ(two.numSets(), 512u);
}

TEST(Cache, StatsMissRatio)
{
    SetAssocCache cache(params(64, 32, 1));
    cache.access(0x000, false);
    cache.access(0x000, false);
    cache.access(0x000, false);
    cache.access(0x020, false);
    EXPECT_DOUBLE_EQ(cache.stats().missRatio(), 0.5);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses(), 0u);
}

// ----------------------------------------------------------------
// Property sweep: for every geometry and policy, a cache never holds
// more blocks than its capacity, hits are only for present blocks,
// and re-accessing the victim misses.
// ----------------------------------------------------------------

struct CacheSweepParam
{
    std::uint64_t size;
    std::uint64_t block;
    unsigned assoc;
    ReplPolicy repl;
};

class CacheSweep : public ::testing::TestWithParam<CacheSweepParam>
{
};

TEST_P(CacheSweep, RandomTrafficInvariants)
{
    const auto &p = GetParam();
    SetAssocCache cache(params(p.size, p.block, p.assoc, p.repl));
    SetAssocCache shadow(params(p.size, p.block, p.assoc, p.repl));
    Rng rng(99);

    std::uint64_t capacity = p.size / p.block;
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.below(8 * p.size);
        bool write = rng.chance(0.3);
        auto res = cache.access(addr, write);
        // Shadow with identical seed & sequence behaves identically
        // (model determinism).
        auto ref = shadow.access(addr, write);
        ASSERT_EQ(res.hit, ref.hit);
        ASSERT_EQ(res.victimValid, ref.victimValid);
        if (res.victimValid) {
            ASSERT_EQ(res.victimAddr, ref.victimAddr);
            // The victim is gone; the accessed block is present.
            if (cache.blockAddr(res.victimAddr) !=
                cache.blockAddr(addr)) {
                ASSERT_FALSE(cache.probe(res.victimAddr));
            }
        }
        ASSERT_TRUE(cache.probe(addr));
        ASSERT_LE(cache.validBlocks(), capacity);
    }
    EXPECT_EQ(cache.stats().accesses(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Values(
        CacheSweepParam{1024, 32, 1, ReplPolicy::LRU},
        CacheSweepParam{1024, 32, 2, ReplPolicy::LRU},
        CacheSweepParam{1024, 32, 2, ReplPolicy::Random},
        CacheSweepParam{1024, 32, 4, ReplPolicy::FIFO},
        CacheSweepParam{1024, 32, 0, ReplPolicy::LRU},
        CacheSweepParam{4096, 128, 1, ReplPolicy::LRU},
        CacheSweepParam{4096, 128, 2, ReplPolicy::Random},
        CacheSweepParam{16 * 1024, 32, 1, ReplPolicy::LRU},
        CacheSweepParam{8192, 256, 8, ReplPolicy::Random},
        CacheSweepParam{8192, 4096, 2, ReplPolicy::LRU}));

// Full associativity with LRU is optimal for a loop that fits the
// cache: cold misses only, while a direct-mapped cache of the same
// capacity suffers its conflicts.
TEST(Cache, FullAssociativityBeatsDirectMappedOnFittingLoop)
{
    std::vector<Addr> loop;
    Rng rng(5);
    for (int i = 0; i < 24; ++i)
        loop.push_back(rng.below(1 << 20) & ~Addr{31});

    SetAssocCache dm(params(1024, 32, 1));
    SetAssocCache fa(params(1024, 32, 0));
    for (int round = 0; round < 50; ++round) {
        for (Addr a : loop) {
            dm.access(a, false);
            fa.access(a, false);
        }
    }
    // 24 distinct blocks fit the 32-block FA cache: cold misses only.
    EXPECT_EQ(fa.stats().misses, 24u);
    EXPECT_GT(dm.stats().misses, fa.stats().misses);
}

} // namespace
} // namespace rampage
