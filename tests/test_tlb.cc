/**
 * @file
 * Unit and property tests for the TLB model (paper §2.3, §4.3).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tlb/tlb.hh"
#include "util/audit.hh"
#include "util/random.hh"

namespace rampage
{
namespace
{

TEST(Tlb, MissThenHit)
{
    Tlb tlb;
    EXPECT_FALSE(tlb.lookup(1, 100).hit);
    tlb.insert(1, 100, 7);
    auto hit = tlb.lookup(1, 100);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.frame, 7u);
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, PidsAreSeparateAddressSpaces)
{
    Tlb tlb;
    tlb.insert(1, 100, 7);
    EXPECT_FALSE(tlb.lookup(2, 100).hit);
    tlb.insert(2, 100, 9);
    EXPECT_EQ(tlb.lookup(1, 100).frame, 7u);
    EXPECT_EQ(tlb.lookup(2, 100).frame, 9u);
}

TEST(Tlb, InsertRefreshesExistingMapping)
{
    Tlb tlb;
    tlb.insert(1, 100, 7);
    tlb.insert(1, 100, 8);
    EXPECT_EQ(tlb.lookup(1, 100).frame, 8u);
    EXPECT_EQ(tlb.validEntries(), 1u);
}

TEST(Tlb, InvalidateSingleEntry)
{
    Tlb tlb;
    tlb.insert(1, 100, 7);
    tlb.insert(1, 200, 8);
    EXPECT_TRUE(tlb.invalidate(1, 100));
    EXPECT_FALSE(tlb.invalidate(1, 100));
    EXPECT_FALSE(tlb.lookup(1, 100).hit);
    EXPECT_TRUE(tlb.lookup(1, 200).hit);
    EXPECT_EQ(tlb.stats().flushes, 1u);
}

TEST(Tlb, CapacityNeverExceeded)
{
    TlbParams p;
    p.entries = 64; // the paper's TLB
    Tlb tlb(p);
    for (std::uint64_t vpn = 0; vpn < 1000; ++vpn)
        tlb.insert(0, vpn, vpn);
    EXPECT_EQ(tlb.validEntries(), 64u);
}

TEST(Tlb, FullyAssociativeHoldsExactlyCapacityHotSet)
{
    TlbParams p;
    p.entries = 64;
    Tlb tlb(p);
    // A 64-page hot set fits a fully-associative 64-entry TLB: after
    // the first pass, everything hits.
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn) {
        tlb.lookup(0, vpn);
        tlb.insert(0, vpn, vpn);
    }
    tlb.clearStats();
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t vpn = 0; vpn < 64; ++vpn)
            EXPECT_TRUE(tlb.lookup(0, vpn).hit);
    EXPECT_EQ(tlb.stats().missRatio(), 0.0);
}

TEST(Tlb, LruBeatsRandomOnCyclicSlightOverflow)
{
    // A 66-page cyclic sweep over a 64-entry TLB: LRU always misses
    // (pathological), random retains some entries.  This documents
    // why the paper's choice of random replacement is defensible.
    auto run = [](bool lru) {
        TlbParams p;
        p.entries = 64;
        p.lruReplacement = lru;
        Tlb tlb(p);
        for (int round = 0; round < 20; ++round)
            for (std::uint64_t vpn = 0; vpn < 66; ++vpn)
                if (!tlb.lookup(0, vpn).hit)
                    tlb.insert(0, vpn, vpn);
        return tlb.stats().missRatio();
    };
    EXPECT_GT(run(true), run(false));
}

TEST(Tlb, SetAssociativeGeometry)
{
    // The §6.3 future-work TLB: 1 K entries, 2-way.
    TlbParams p;
    p.entries = 1024;
    p.assoc = 2;
    Tlb tlb(p);
    for (std::uint64_t vpn = 0; vpn < 5000; ++vpn)
        tlb.insert(3, vpn, vpn);
    EXPECT_LE(tlb.validEntries(), 1024u);
    // A small hot set still fits.
    Tlb tlb2(p);
    for (std::uint64_t vpn = 0; vpn < 100; ++vpn)
        tlb2.insert(3, vpn, vpn);
    unsigned hits = 0;
    for (std::uint64_t vpn = 0; vpn < 100; ++vpn)
        if (tlb2.lookup(3, vpn).hit)
            ++hits;
    EXPECT_EQ(hits, 100u);
}

class TlbGeometry : public ::testing::TestWithParam<TlbParams>
{
};

TEST_P(TlbGeometry, ProbeAgreesWithLookup)
{
    Tlb tlb(GetParam());
    Rng rng(31);
    for (int i = 0; i < 3000; ++i) {
        Pid pid = static_cast<Pid>(rng.below(4));
        std::uint64_t vpn = rng.below(300);
        bool present = tlb.probe(pid, vpn);
        auto look = tlb.lookup(pid, vpn);
        ASSERT_EQ(present, look.hit);
        if (!look.hit)
            tlb.insert(pid, vpn, vpn * 10);
        ASSERT_TRUE(tlb.probe(pid, vpn));
        ASSERT_LE(tlb.validEntries(), GetParam().entries);
    }
}

/**
 * Static storage, so the padding bytes of each TlbParams are zero:
 * gtest names the cases by dumping the raw bytes of the parameter,
 * and stack temporaries would leak whatever the stack held into the
 * names, making them differ from run to run.
 */
const TlbParams tlbGeometries[] = {
    TlbParams{64, 0, false, 7},   TlbParams{64, 0, true, 7},
    TlbParams{64, 2, false, 7},   TlbParams{1024, 2, false, 7},
    TlbParams{16, 4, true, 7},    TlbParams{8, 0, false, 7},
};

INSTANTIATE_TEST_SUITE_P(Geometries, TlbGeometry,
                         ::testing::ValuesIn(tlbGeometries));

/**
 * The linear-scan TLB the (pid, vpn) index and free-way masks replaced,
 * kept here as the reference model: every operation scans the ways of
 * the set in order, exactly as the model is defined.  The indexed Tlb
 * must be indistinguishable from it — same hits, frames, statistics
 * and slot-ordered entries after every operation.
 */
class LinearScanTlb
{
  public:
    explicit LinearScanTlb(const TlbParams &params)
        : prm(params), rng(params.seed)
    {
        nWays = prm.assoc == 0 ? prm.entries : prm.assoc;
        nSets = prm.entries / nWays;
        entries.assign(prm.entries, Entry{});
    }

    TlbLookup
    lookup(Pid pid, std::uint64_t vpn)
    {
        ++useCounter;
        Entry *entry = find(pid, vpn);
        if (!entry) {
            ++stat.misses;
            return TlbLookup{};
        }
        ++stat.hits;
        if (prm.lruReplacement)
            entry->stamp = useCounter;
        return TlbLookup{true, entry->frame};
    }

    bool
    probe(Pid pid, std::uint64_t vpn)
    {
        return find(pid, vpn) != nullptr;
    }

    void
    insert(Pid pid, std::uint64_t vpn, std::uint64_t frame)
    {
        ++useCounter;
        if (Entry *entry = find(pid, vpn)) {
            entry->frame = frame;
            entry->stamp = useCounter;
            return;
        }
        Entry *base = &entries[setOf(pid, vpn) * nWays];
        Entry *slot = nullptr;
        for (unsigned w = 0; w < nWays && !slot; ++w)
            if (!base[w].valid)
                slot = &base[w];
        if (!slot) {
            if (prm.lruReplacement) {
                slot = base;
                for (unsigned w = 1; w < nWays; ++w)
                    if (base[w].stamp < slot->stamp)
                        slot = &base[w];
            } else {
                slot = &base[rng.below(nWays)];
            }
        }
        *slot = Entry{pid, vpn, frame, useCounter, true};
    }

    bool
    invalidate(Pid pid, std::uint64_t vpn)
    {
        Entry *entry = find(pid, vpn);
        if (!entry)
            return false;
        entry->valid = false;
        ++stat.flushes;
        return true;
    }

    bool
    corruptFrameXor(std::uint64_t frame_xor)
    {
        for (Entry &entry : entries) {
            if (entry.valid) {
                entry.frame ^= frame_xor;
                return true;
            }
        }
        return false;
    }

    /** Valid entries in slot order, as (pid, vpn, frame). */
    std::vector<std::tuple<Pid, std::uint64_t, std::uint64_t>>
    validInOrder() const
    {
        std::vector<std::tuple<Pid, std::uint64_t, std::uint64_t>> out;
        for (const Entry &entry : entries)
            if (entry.valid)
                out.emplace_back(entry.pid, entry.vpn, entry.frame);
        return out;
    }

    const TlbStats &stats() const { return stat; }

  private:
    struct Entry
    {
        Pid pid = 0;
        std::uint64_t vpn = 0;
        std::uint64_t frame = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    std::uint64_t
    setOf(Pid pid, std::uint64_t vpn) const
    {
        return (vpn ^ (static_cast<std::uint64_t>(pid) << 13)) &
               (nSets - 1);
    }

    Entry *
    find(Pid pid, std::uint64_t vpn)
    {
        Entry *base = &entries[setOf(pid, vpn) * nWays];
        for (unsigned w = 0; w < nWays; ++w)
            if (base[w].valid && base[w].pid == pid && base[w].vpn == vpn)
                return &base[w];
        return nullptr;
    }

    TlbParams prm;
    unsigned nWays;
    std::uint64_t nSets;
    std::vector<Entry> entries;
    std::uint64_t useCounter = 0;
    Rng rng;
    TlbStats stat;
};

std::vector<std::tuple<Pid, std::uint64_t, std::uint64_t>>
validInOrder(const Tlb &tlb)
{
    std::vector<std::tuple<Pid, std::uint64_t, std::uint64_t>> out;
    tlb.forEachValidEntry([&](Pid pid, std::uint64_t vpn,
                              std::uint64_t frame) {
        out.emplace_back(pid, vpn, frame);
        return true;
    });
    return out;
}

struct DifferentialCase
{
    const char *name;
    TlbParams params;
};

void
PrintTo(const DifferentialCase &c, std::ostream *os)
{
    *os << c.name;
}

class TlbDifferential : public ::testing::TestWithParam<DifferentialCase>
{
};

TEST_P(TlbDifferential, MatchesLinearScanModel)
{
    const TlbParams &params = GetParam().params;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Tlb tlb(params);
        LinearScanTlb ref(params);
        Rng rng(seed * 977);
        // Enough distinct pages to overflow the TLB yet revisit each.
        std::uint64_t pages = 2 * std::uint64_t{params.entries} + 5;

        for (int op = 0; op < 6000; ++op) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " op "
                                            << op);
            Pid pid = static_cast<Pid>(rng.below(3));
            std::uint64_t vpn = rng.below(pages) * 7;
            std::uint64_t roll = rng.below(100);
            if (roll < 45) {
                TlbLookup got = tlb.lookup(pid, vpn);
                TlbLookup want = ref.lookup(pid, vpn);
                ASSERT_EQ(got.hit, want.hit);
                ASSERT_EQ(got.frame, want.frame);
            } else if (roll < 72) {
                std::uint64_t frame = rng.below(1 << 20);
                tlb.insert(pid, vpn, frame);
                ref.insert(pid, vpn, frame);
            } else if (roll < 84) {
                ASSERT_EQ(tlb.probe(pid, vpn), ref.probe(pid, vpn));
            } else if (roll < 98) {
                ASSERT_EQ(tlb.invalidate(pid, vpn),
                          ref.invalidate(pid, vpn));
            } else {
                std::uint64_t frame_xor = 1 + rng.below(255);
                ASSERT_EQ(tlb.corruptFrameXor(frame_xor),
                          ref.corruptFrameXor(frame_xor));
            }

            ASSERT_EQ(tlb.stats().hits, ref.stats().hits);
            ASSERT_EQ(tlb.stats().misses, ref.stats().misses);
            ASSERT_EQ(tlb.stats().flushes, ref.stats().flushes);
            ASSERT_EQ(validInOrder(tlb), ref.validInOrder());
        }
        AuditContext ctx("differential");
        tlb.auditState(ctx);
        EXPECT_TRUE(ctx.clean());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferential,
    ::testing::Values(DifferentialCase{"fa64_random", {64, 0, false, 7}},
                      DifferentialCase{"fa64_lru", {64, 0, true, 7}},
                      DifferentialCase{"fa128_random", {128, 0, false, 7}},
                      DifferentialCase{"fa128_lru", {128, 0, true, 7}},
                      DifferentialCase{"sa1024x2", {1024, 2, false, 7}},
                      DifferentialCase{"one_entry", {1, 0, false, 7}}),
    [](const ::testing::TestParamInfo<DifferentialCase> &info) {
        return std::string(info.param.name);
    });

TEST(TlbIndex, AuditCatchesADroppedKey)
{
    Tlb tlb;
    for (std::uint64_t vpn = 0; vpn < 40; ++vpn)
        tlb.insert(1, vpn, vpn + 100);
    AuditContext clean_ctx("before");
    tlb.auditState(clean_ctx);
    ASSERT_TRUE(clean_ctx.clean());

    ASSERT_TRUE(tlb.corruptDropIndexKey(11));
    AuditContext ctx("after");
    tlb.auditState(ctx);
    ASSERT_FALSE(ctx.clean());
    EXPECT_EQ(ctx.violations().front().invariant, "tlb.index");
    // The entry is still valid but unreachable through lookups.
    EXPECT_EQ(tlb.validEntries(), 40u);
    unsigned reachable = 0;
    for (std::uint64_t vpn = 0; vpn < 40; ++vpn)
        reachable += tlb.probe(1, vpn) ? 1 : 0;
    EXPECT_EQ(reachable, 39u);
}

TEST(TlbIndex, EmptyTlbHasNoKeyToDrop)
{
    Tlb tlb;
    EXPECT_FALSE(tlb.corruptDropIndexKey(0));
}

} // namespace
} // namespace rampage
