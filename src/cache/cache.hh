/**
 * @file
 * Generic set-associative cache model.
 *
 * Models tags and state only (no data payload): each access reports
 * hit/miss and any victim eviction, and the hierarchy composition in
 * src/core charges the timing.  Covers every configuration the paper
 * simulates — the direct-mapped 16 KB split L1 (§4.3), the 4 MB
 * direct-mapped baseline L2 (§4.4) and the 2-way random-replacement
 * L2 (§4.7) — plus fully-associative and LRU/FIFO configurations used
 * by the tests and ablation benches.
 */

#ifndef RAMPAGE_CACHE_CACHE_HH
#define RAMPAGE_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/random.hh"
#include "util/types.hh"

namespace rampage
{

class AuditContext;
class StatsRegistry;

/** Block replacement policy within a set. */
enum class ReplPolicy : std::uint8_t
{
    LRU,    ///< least recently used
    Random, ///< uniform random victim (paper's 2-way L2, §4.7)
    FIFO,   ///< oldest-filled victim
};

/** Display name of a replacement policy. */
const char *replPolicyName(ReplPolicy policy);

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 16 * kib;
    std::uint64_t blockBytes = 32;
    unsigned assoc = 1;                    ///< 0 = fully associative
    ReplPolicy repl = ReplPolicy::LRU;
    std::uint64_t seed = 1;                ///< for Random replacement
};

/** Outcome of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool victimValid = false; ///< a valid block was evicted
    bool victimDirty = false; ///< ... and it was dirty
    Addr victimAddr = 0;      ///< block-aligned address of the victim
};

/** Cumulative cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t invalidations = 0;

    std::uint64_t accesses() const { return hits + misses; }
    double missRatio() const;
};

/**
 * Tag/state model of a set-associative cache.
 *
 * Addresses presented must already be in the cache's address domain
 * (physical for every cache in this study).  Misses allocate
 * (write-allocate); the caller performs any required fill/write-back
 * timing using the returned victim information.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Look up `addr`, allocating the block on a miss.
     * @param addr byte address (any offset within the block).
     * @param is_write marks the block dirty on hit or on allocate.
     * @return hit flag and victim details.
     *
     * The hit path is inline — the simulator probes an L1 on every
     * reference and the paper's L1s are direct-mapped, so a hit is
     * one tag compare; only the allocate/evict slow path lives out
     * of line.
     */
    CacheAccessResult
    access(Addr addr, bool is_write)
    {
        CacheAccessResult result;
        std::uint64_t set = setIndex(addr);
        Addr tag = tagOf(addr);
        Line *base = &lines[set * nWays];

        ++useCounter;
        for (unsigned w = 0; w < nWays; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                result.hit = true;
                if (is_write)
                    line.dirty = true;
                if (prm.repl == ReplPolicy::LRU)
                    line.stamp = useCounter;
                ++stat.hits;
                return result;
            }
        }
        accessMiss(result, addr, set, tag, is_write);
        return result;
    }

    /** @return true if the block holding addr is present (no state change). */
    bool probe(Addr addr) const;

    /** @return true if the block holding addr is present and dirty. */
    bool probeDirty(Addr addr) const;

    /**
     * Remove the block holding addr if present.
     * @retval {present, dirty-at-removal}
     */
    struct InvalidateResult
    {
        bool present = false;
        bool dirty = false;
    };
    InvalidateResult invalidate(Addr addr);

    /** Mark the block holding addr dirty (victim-cache swap-back). */
    void markDirty(Addr addr);

    /** Drop every block (e.g. at simulation boundaries). */
    void flushAll();

    /** Block-aligned base of the block containing addr. */
    Addr blockAddr(Addr addr) const;

    /** Count of valid blocks (test/inspection aid). */
    std::uint64_t validBlocks() const;

    const CacheParams &params() const { return prm; }
    const CacheStats &stats() const { return stat; }
    void clearStats() { stat = CacheStats{}; }

    /**
     * Register this cache's counters under `prefix` (e.g. "l1i").
     * The cache must outlive the registry's dumps.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    std::uint64_t numSets() const { return nSets; }
    unsigned ways() const { return nWays; }

    /**
     * Visit every valid block as (block-aligned address, dirty);
     * return false from the callback to stop early.  Pure inspection —
     * used by the model-integrity audits and the fault injector.
     */
    void forEachValidBlock(
        const std::function<bool(Addr, bool)> &visit) const;

    /**
     * Self-audit (`label` prefixes the detail, e.g. "l1d"): no set may
     * hold the same tag in two valid ways, and the stats must be
     * internally consistent.  Cross-level invariants (inclusion) are
     * checked by the owning hierarchy.
     */
    void auditState(AuditContext &ctx, const std::string &label) const;

    /**
     * Fault-injection hook (tests/CI only): XOR the stored tag of the
     * valid block holding `addr` with `tag_xor`, silently retagging it
     * as a different address — the audit must catch the resulting
     * inclusion violation.
     * @retval true a valid block was corrupted.
     */
    bool corruptTagXor(Addr addr, Addr tag_xor);

  private:
    /** One tag-array entry. */
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0; ///< LRU: last use; FIFO: fill order
    };

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> blockBits) & (nSets - 1);
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr >> blockBits >> setBits;
    }

    Addr rebuildAddr(std::uint64_t set, Addr tag) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    unsigned pickVictim(std::uint64_t set);

    /** Allocate on a miss (write-allocate), possibly evicting. */
    void accessMiss(CacheAccessResult &result, Addr addr,
                    std::uint64_t set, Addr tag, bool is_write);

    CacheParams prm;
    std::uint64_t nSets;
    unsigned nWays;
    unsigned blockBits;
    unsigned setBits; ///< floorLog2(nSets)
    std::vector<Line> lines; ///< nSets * nWays, set-major
    std::uint64_t useCounter = 0;
    Rng rng;
    CacheStats stat;
};

} // namespace rampage

#endif // RAMPAGE_CACHE_CACHE_HH
