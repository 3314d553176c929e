/**
 * @file
 * Translation lookaside buffer model (paper §2.3, §4.3).
 *
 * The paper's TLB: 64 entries, fully associative, random replacement,
 * 1-cycle (pipelined) hit.  Under the conventional hierarchy it maps
 * virtual pages to DRAM physical frames (fixed 4 KB pages); under
 * RAMpage it maps virtual pages to *SRAM main memory* frames at the
 * current SRAM page size, and an entry is flushed whenever its page
 * is replaced from the SRAM main memory.
 *
 * Set-associative geometries are supported for the §6.3 future-work
 * configuration (1 K entries, 2-way).
 *
 * Host-side data structure: the modelled state is the slot-ordered
 * `entries` array (set-major, way order, random-victim draws and LRU
 * stamps exactly as a linear-scan TLB would keep them).  Two derived
 * structures sit in front of it so that no operation scans the ways:
 * an open-addressed (pid, vpn) -> slot index (power-of-two capacity at
 * least twice the entry count, linear probing, backward-shift delete)
 * and a per-set free-way bitmask, so the first invalid way is a
 * count-trailing-zeros.  Both are kept exact by insert() and
 * invalidate(), and audited as "tlb.index".
 */

#ifndef RAMPAGE_TLB_TLB_HH
#define RAMPAGE_TLB_TLB_HH

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

/** TLB geometry and policy. */
struct TlbParams
{
    unsigned entries = 64; ///< total entries (paper: 64)
    unsigned assoc = 0;    ///< 0 = fully associative (paper), else ways
    bool lruReplacement = false; ///< false = random (paper)
    std::uint64_t seed = 7;
};

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0; ///< single-entry invalidations

    std::uint64_t lookups() const { return hits + misses; }
    double missRatio() const;
};

/** Result of a TLB lookup. */
struct TlbLookup
{
    bool hit = false;
    std::uint64_t frame = 0; ///< translated frame number on hit
};

/**
 * The TLB.  Entries are keyed on (pid, virtual page number) and hold
 * a frame number whose meaning belongs to the enclosing hierarchy
 * (DRAM frame conventionally, SRAM frame under RAMpage).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params = TlbParams{});

    /**
     * Translate; counts a hit or a miss.  Inline: the access engine
     * calls it on every reference, and a hit is one index probe.
     */
    TlbLookup
    lookup(Pid pid, std::uint64_t vpn)
    {
        ++useCounter;
        std::uint32_t slot = find(pid, vpn);
        if (slot == noSlot)
            return recordMiss(pid, vpn);
        Entry &entry = entries[slot];
        ++stat.hits;
        if (prm.lruReplacement)
            entry.stamp = useCounter;
        return TlbLookup{true, entry.frame};
    }

    /** Probe without statistics or LRU update. */
    bool probe(Pid pid, std::uint64_t vpn) const;

    /** Install (pid, vpn) -> frame, replacing per policy. */
    void insert(Pid pid, std::uint64_t vpn, std::uint64_t frame);

    /**
     * Invalidate the entry for (pid, vpn) if present (used when a
     * RAMpage SRAM page is replaced, §2.3).
     * @retval true an entry was flushed.
     */
    bool invalidate(Pid pid, std::uint64_t vpn);

    /** Number of currently valid entries. */
    unsigned validEntries() const;

    const TlbParams &params() const { return prm; }
    const TlbStats &stats() const { return stat; }
    void clearStats() { stat = TlbStats{}; }

    /** Register the TLB's counters under `prefix` (e.g. "tlb"). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Visit every valid entry as (pid, vpn, frame); return false from
     * the callback to stop early.  Pure inspection — used by the
     * model-integrity audits and the fault injector.
     */
    void forEachValidEntry(
        const std::function<bool(Pid, std::uint64_t, std::uint64_t)>
            &visit) const;

    /**
     * Self-audit.  "tlb.index": the (pid, vpn) index maps one-to-one
     * onto the valid entries, each at its own slot, and the free-way
     * masks mirror the valid bits.  "tlb.dup_entry": no two valid
     * entries translate the same (pid, vpn).  Whether each frame is
     * *backed* by a live mapping is a cross-component question
     * checked by the hierarchy.
     */
    void auditState(AuditContext &ctx) const;

    /**
     * Fault-injection hook (tests/CI only): XOR the first valid
     * entry's frame with `frame_xor`, making the TLB translate to a
     * frame the page tables never assigned.
     * @retval true an entry was corrupted.
     */
    bool corruptFrameXor(std::uint64_t frame_xor);

    /**
     * Fault-injection hook (tests/CI only): drop the index key of the
     * `seed`-selected valid entry without invalidating the entry — the
     * stale-index bug the "tlb.index" audit guards against.
     * @retval true a key was dropped.
     */
    bool corruptDropIndexKey(std::uint64_t seed);

  private:
    struct Entry
    {
        Pid pid = 0;
        std::uint64_t vpn = 0;
        std::uint64_t frame = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    /** Marks an empty index cell; find()'s "absent" answer. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    std::uint64_t setOf(Pid pid, std::uint64_t vpn) const;

    /** lookup()'s miss path: count it, out of line. */
    TlbLookup recordMiss(Pid pid, std::uint64_t vpn);

    /** Home index cell of (pid, vpn) (Fibonacci hashing). */
    std::size_t
    homeOf(Pid pid, std::uint64_t vpn) const
    {
        std::uint64_t key = vpn ^ (static_cast<std::uint64_t>(pid) << 48);
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> indexShift);
    }

    /** Slot holding (pid, vpn), or noSlot — one index probe run. */
    std::uint32_t
    find(Pid pid, std::uint64_t vpn) const
    {
        for (std::size_t cell = homeOf(pid, vpn);;
             cell = (cell + 1) & indexMask) {
            std::uint32_t slot = index[cell];
            if (slot == noSlot)
                return noSlot;
            const Entry &entry = entries[slot];
            if (entry.vpn == vpn && entry.pid == pid)
                return slot;
        }
    }

    /** Add `slot` (a valid entry) to the index under its key. */
    void indexInsert(std::uint32_t slot);
    /** Remove `slot` from the index (no-op when it is not indexed). */
    void indexErase(std::uint32_t slot);

    /** The freeWays word holding `slot`'s bit, and the bit. */
    std::size_t
    freeWordOf(std::uint32_t slot) const
    {
        return slot / nWays * maskWords + slot % nWays / 64;
    }
    std::uint64_t
    freeBitOf(std::uint32_t slot) const
    {
        return std::uint64_t{1} << (slot % nWays % 64);
    }

    TlbParams prm;
    unsigned nWays;
    std::uint64_t nSets;
    std::vector<Entry> entries; ///< set-major
    /** (pid, vpn) -> slot, noSlot marks an empty cell. */
    std::vector<std::uint32_t> index;
    std::size_t indexMask = 0;
    unsigned indexShift = 0;
    /** Per set, maskWords words; a set bit marks an invalid way. */
    std::vector<std::uint64_t> freeWays;
    unsigned maskWords = 1;
    std::uint64_t useCounter = 0;
    Rng rng;
    TlbStats stat;
};

} // namespace rampage

#endif // RAMPAGE_TLB_TLB_HH
