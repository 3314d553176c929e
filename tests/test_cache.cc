/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "util/audit.hh"
#include "util/error.hh"
#include "util/bitops.hh"
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

/** Names each case by its geometry, e.g. "1024B_32B_2way_LRU". */
void
PrintTo(const CacheSweepParam &p, std::ostream *os)
{
    *os << p.size << "B_" << p.block << "B_";
    if (p.assoc == 0)
        *os << "full";
    else
        *os << p.assoc << "way";
    *os << "_" << replPolicyName(p.repl);
}

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


// ----------------------------------------------------------------
// Differential test: the tag-word cache against the layout it
// replaced — a 24-byte line holding a tag, a valid flag, a dirty flag
// and a replacement stamp per block, stamped on every access.  Both
// see the same seeded operations; every result, the stats, the valid
// blocks in visit order and the audit findings must agree.
// ----------------------------------------------------------------

class LineArrayCache
{
  public:
    explicit LineArrayCache(const CacheParams &p) : prm(p), rng(p.seed)
    {
        std::uint64_t blocks = prm.sizeBytes / prm.blockBytes;
        nWays = prm.assoc == 0 ? static_cast<unsigned>(blocks)
                               : prm.assoc;
        nSets = blocks / nWays;
        blockBits = floorLog2(prm.blockBytes);
        setBits = floorLog2(nSets);
        lines.assign(nSets * nWays, Line{});
    }

    CacheAccessResult
    access(Addr addr, bool is_write)
    {
        CacheAccessResult result;
        std::uint64_t set = setIndex(addr);
        Addr tag = tagOf(addr);
        Line *base = &lines[set * nWays];
        ++useCounter;
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                result.hit = true;
                if (is_write)
                    base[w].dirty = true;
                if (prm.repl == ReplPolicy::LRU)
                    base[w].stamp = useCounter;
                ++stat.hits;
                return result;
            }
        }
        ++stat.misses;
        Line &line = base[pickVictim(set)];
        if (line.valid) {
            result.victimValid = true;
            result.victimDirty = line.dirty;
            result.victimAddr = rebuildAddr(set, line.tag);
            ++stat.evictions;
            if (line.dirty)
                ++stat.dirtyEvictions;
        }
        line.valid = true;
        line.dirty = is_write;
        line.tag = tag;
        line.stamp = useCounter;
        return result;
    }

    bool probe(Addr addr) { return findLine(addr) != nullptr; }

    bool
    probeDirty(Addr addr)
    {
        Line *line = findLine(addr);
        return line != nullptr && line->dirty;
    }

    SetAssocCache::InvalidateResult
    invalidate(Addr addr)
    {
        SetAssocCache::InvalidateResult result;
        if (Line *line = findLine(addr)) {
            result.present = true;
            result.dirty = line->dirty;
            line->valid = false;
            line->dirty = false;
            ++stat.invalidations;
        }
        return result;
    }

    void
    markDirty(Addr addr)
    {
        if (Line *line = findLine(addr))
            line->dirty = true;
    }

    std::uint64_t
    validBlocks() const
    {
        std::uint64_t count = 0;
        for (const Line &line : lines)
            count += line.valid ? 1 : 0;
        return count;
    }

    std::vector<std::pair<Addr, bool>>
    validInOrder() const
    {
        std::vector<std::pair<Addr, bool>> out;
        for (std::uint64_t set = 0; set < nSets; ++set)
            for (unsigned w = 0; w < nWays; ++w)
                if (lines[set * nWays + w].valid)
                    out.emplace_back(
                        rebuildAddr(set, lines[set * nWays + w].tag),
                        lines[set * nWays + w].dirty);
        return out;
    }

    bool
    corruptTagXor(Addr addr, Addr tag_xor)
    {
        Line *line = findLine(addr);
        if (!line || tag_xor == 0)
            return false;
        line->tag ^= tag_xor;
        return true;
    }

    /** The two cache audits, as (invariant, detail) in check order. */
    void
    auditState(AuditContext &ctx, const std::string &label) const
    {
        std::uint64_t valid = 0;
        for (std::uint64_t set = 0; set < nSets; ++set) {
            const Line *base = &lines[set * nWays];
            for (unsigned w = 0; w < nWays; ++w) {
                if (!base[w].valid)
                    continue;
                ++valid;
                for (unsigned v = w + 1; v < nWays; ++v)
                    ctx.check(!base[v].valid || base[v].tag != base[w].tag,
                              "cache.dup_tag",
                              "%s set %llu holds tag 0x%llx in ways %u "
                              "and %u (addr 0x%llx cached twice)",
                              label.c_str(),
                              static_cast<unsigned long long>(set),
                              static_cast<unsigned long long>(base[w].tag),
                              w, v,
                              static_cast<unsigned long long>(
                                  rebuildAddr(set, base[w].tag)));
            }
        }
        std::uint64_t removed = stat.evictions + stat.invalidations;
        ctx.check(stat.misses >= removed && stat.misses - removed == valid,
                  "cache.stats",
                  "%s holds %llu valid blocks but counters imply %lld "
                  "(misses %llu - evictions %llu - invalidations %llu)",
                  label.c_str(), static_cast<unsigned long long>(valid),
                  static_cast<long long>(stat.misses) -
                      static_cast<long long>(removed),
                  static_cast<unsigned long long>(stat.misses),
                  static_cast<unsigned long long>(stat.evictions),
                  static_cast<unsigned long long>(stat.invalidations));
    }

    const CacheStats &stats() const { return stat; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;
    };
    static_assert(sizeof(Line) == 24, "the replaced per-block layout");

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> blockBits) & (nSets - 1);
    }

    Addr tagOf(Addr addr) const { return addr >> blockBits >> setBits; }

    Addr
    rebuildAddr(std::uint64_t set, Addr tag) const
    {
        return ((tag << setBits) | set) << blockBits;
    }

    Line *
    findLine(Addr addr)
    {
        Line *base = &lines[setIndex(addr) * nWays];
        for (unsigned w = 0; w < nWays; ++w)
            if (base[w].valid && base[w].tag == tagOf(addr))
                return &base[w];
        return nullptr;
    }

    unsigned
    pickVictim(std::uint64_t set)
    {
        Line *base = &lines[set * nWays];
        for (unsigned w = 0; w < nWays; ++w)
            if (!base[w].valid)
                return w;
        if (prm.repl == ReplPolicy::Random)
            return static_cast<unsigned>(rng.below(nWays));
        unsigned victim = 0;
        for (unsigned w = 1; w < nWays; ++w)
            if (base[w].stamp < base[victim].stamp)
                victim = w;
        return victim;
    }

    CacheParams prm;
    std::uint64_t nSets;
    unsigned nWays;
    unsigned blockBits;
    unsigned setBits;
    std::vector<Line> lines;
    std::uint64_t useCounter = 0;
    Rng rng;
    CacheStats stat;
};

std::vector<std::pair<Addr, bool>>
validInOrder(const SetAssocCache &cache)
{
    std::vector<std::pair<Addr, bool>> out;
    cache.forEachValidBlock([&](Addr addr, bool dirty) {
        out.emplace_back(addr, dirty);
        return true;
    });
    return out;
}

std::vector<std::pair<std::string, std::string>>
findings(const AuditContext &ctx)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const AuditViolation &v : ctx.violations())
        out.emplace_back(v.invariant, v.detail);
    return out;
}

struct CacheDifferentialCase
{
    const char *name;
    std::uint64_t size;
    std::uint64_t block;
    unsigned assoc;
    ReplPolicy repl;
};

void
PrintTo(const CacheDifferentialCase &c, std::ostream *os)
{
    *os << c.name;
}

class CacheDifferential
    : public ::testing::TestWithParam<CacheDifferentialCase>
{
};

TEST_P(CacheDifferential, MatchesLineArrayModel)
{
    const CacheDifferentialCase &c = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        CacheParams p = params(c.size, c.block, c.assoc, c.repl);
        p.seed = seed;
        SetAssocCache cache(p);
        LineArrayCache ref(p);
        Rng rng(seed * 7919);
        // Four times the capacity: enough conflict to evict, enough
        // reuse to hit.
        std::uint64_t span = 4 * c.size;

        for (int op = 0; op < 6000; ++op) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " op "
                                            << op);
            Addr addr = rng.below(span);
            std::uint64_t roll = rng.below(100);
            if (roll < 55) {
                bool write = rng.chance(0.3);
                CacheAccessResult got = cache.access(addr, write);
                CacheAccessResult want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit);
                ASSERT_EQ(got.victimValid, want.victimValid);
                ASSERT_EQ(got.victimDirty, want.victimDirty);
                ASSERT_EQ(got.victimAddr, want.victimAddr);
            } else if (roll < 70) {
                ASSERT_EQ(cache.probe(addr), ref.probe(addr));
            } else if (roll < 78) {
                ASSERT_EQ(cache.probeDirty(addr), ref.probeDirty(addr));
            } else if (roll < 88) {
                auto got = cache.invalidate(addr);
                auto want = ref.invalidate(addr);
                ASSERT_EQ(got.present, want.present);
                ASSERT_EQ(got.dirty, want.dirty);
            } else if (roll < 97) {
                cache.markDirty(addr);
                ref.markDirty(addr);
            } else {
                // Low bits retag onto another live address (a
                // duplicate tag when it shares the set); high bits,
                // up to the top of the 62-bit field, onto none.
                Addr tag_xor = rng.chance(0.5)
                                   ? 1 + rng.below(15)
                                   : Addr{1} << rng.below(62);
                ASSERT_EQ(cache.corruptTagXor(addr, tag_xor),
                          ref.corruptTagXor(addr, tag_xor));
            }

            const CacheStats &got = cache.stats();
            const CacheStats &want = ref.stats();
            ASSERT_EQ(got.hits, want.hits);
            ASSERT_EQ(got.misses, want.misses);
            ASSERT_EQ(got.evictions, want.evictions);
            ASSERT_EQ(got.dirtyEvictions, want.dirtyEvictions);
            ASSERT_EQ(got.invalidations, want.invalidations);
            ASSERT_EQ(cache.validBlocks(), ref.validBlocks());
            ASSERT_EQ(validInOrder(cache), ref.validInOrder());

            if (op % 500 == 499) {
                AuditContext got_ctx("differential");
                AuditContext want_ctx("differential");
                cache.auditState(got_ctx, "test");
                ref.auditState(want_ctx, "test");
                ASSERT_EQ(got_ctx.checksRun(), want_ctx.checksRun());
                ASSERT_EQ(findings(got_ctx), findings(want_ctx));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(
        CacheDifferentialCase{"direct_mapped", 1024, 32, 1,
                              ReplPolicy::LRU},
        CacheDifferentialCase{"two_way_random", 1024, 32, 2,
                              ReplPolicy::Random},
        CacheDifferentialCase{"four_way_lru", 2048, 32, 4,
                              ReplPolicy::LRU},
        CacheDifferentialCase{"four_way_fifo", 2048, 64, 4,
                              ReplPolicy::FIFO},
        CacheDifferentialCase{"fully_associative", 512, 32, 0,
                              ReplPolicy::LRU}),
    [](const ::testing::TestParamInfo<CacheDifferentialCase> &info) {
        return std::string(info.param.name);
    });

TEST(Cache, CorruptTagXorRejectsAnXorWiderThanTheTagField)
{
    SetAssocCache cache(params(1024, 32, 1));
    cache.access(0x100, false);
    EXPECT_THROW(cache.corruptTagXor(0x100, Addr{1} << 62),
                 InternalError);
    EXPECT_TRUE(cache.corruptTagXor(0x100, Addr{1} << 61));
}

} // namespace
} // namespace rampage
