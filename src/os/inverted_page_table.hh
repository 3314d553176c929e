/**
 * @file
 * Inverted page table (paper §2.2).
 *
 * RAMpage translates virtual pages to SRAM main-memory frames with an
 * inverted page table — one entry per physical frame, found through a
 * hash on the virtual address — because (a) the SRAM main memory is
 * small, so a frame-indexed table stays small; (b) the table size is
 * fixed, so the whole table can be pinned in the SRAM main memory;
 * and (c) with the table pinned, a TLB miss never references DRAM
 * unless the access itself page-faults.
 *
 * The modelled entry size is 20 bytes; together with the pinned-frame
 * calculation in src/os/page_store.hh this reproduces the paper's §4.5
 * operating-system reserve (6 pages at 4 KB pages, ~5300 at 128 B).
 * The host keeps each entry in 16 bytes with 32-bit chain links: the
 * table image the handler trace probes is the modelled one, and the
 * host layout only decides how much memory a set-up zero-fills and a
 * walk chases.
 *
 * The table also reports which of its own (virtual) words a lookup
 * touches, so the TLB-miss handler trace (src/trace/handlers.hh) can
 * replay the same probe sequence through the memory hierarchy.
 */

#ifndef RAMPAGE_OS_INVERTED_PAGE_TABLE_HH
#define RAMPAGE_OS_INVERTED_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace rampage
{

class AuditContext;

/** Bytes per modelled inverted-page-table entry (see file comment). */
constexpr std::uint64_t iptEntryBytes = 20;

/** Result of an inverted-page-table lookup. */
struct IptLookup
{
    bool found = false;
    std::uint64_t frame = 0; ///< frame holding (pid, vpn) when found
    unsigned probes = 0;     ///< hash-chain entries inspected
};

/**
 * Frame-indexed page table with hash-anchor lookup.
 *
 * The anchor table has one head per hash bucket; collisions chain
 * through the frame entries.  remove() and insert() keep the chains
 * consistent as the pager reassigns frames.
 */
class InvertedPageTable
{
  public:
    /** Most frames a table holds: chain links are 32-bit. */
    static constexpr std::uint64_t maxFrames = 0xffff'ffffu;

    /**
     * @param frames number of physical frames mapped, in
     *        [1, maxFrames] (ConfigError otherwise, before anything
     *        is allocated).
     * @param table_vbase virtual address where the table resides (the
     *        pinned OS region under RAMpage); probe addresses are
     *        reported relative to this base.
     */
    InvertedPageTable(std::uint64_t frames, Addr table_vbase);

    /**
     * Find the frame mapping (pid, vpn).
     * @param probe_addrs when non-null, receives the virtual address
     *        of each table word the lookup touched (anchor slot plus
     *        each chain entry), for handler-trace synthesis.
     */
    IptLookup lookup(Pid pid, std::uint64_t vpn,
                     std::vector<Addr> *probe_addrs = nullptr) const;

    /** Map frame -> (pid, vpn); the frame must be unmapped. */
    void insert(std::uint64_t frame, Pid pid, std::uint64_t vpn);

    /**
     * Unmap a frame.
     * @retval true the frame was mapped and has been removed.
     */
    bool remove(std::uint64_t frame);

    /** @return true if the frame currently maps some page. */
    bool mapped(std::uint64_t frame) const;

    /** Virtual pid/vpn held by a mapped frame. */
    Pid framePid(std::uint64_t frame) const;
    std::uint64_t frameVpn(std::uint64_t frame) const;

    /** Number of mapped frames. */
    std::uint64_t mappedCount() const { return nMapped; }

    /** Total table footprint in bytes (anchors + entries). */
    std::uint64_t tableBytes() const;

    /** Virtual address of a frame's table entry. */
    Addr entryAddr(std::uint64_t frame) const;

    /** Mean hash-chain probes over all lookups so far. */
    double meanProbeDepth() const;

    /**
     * Self-audit: every chain entry valid and bucketed under its own
     * hash, every valid entry reachable from exactly one anchor chain,
     * no chain longer than the table, and the reachable count equal to
     * mappedCount().  Walks chains with explicit bounds, so it stays
     * safe on state lookup() would assert on.
     */
    void auditState(AuditContext &ctx) const;

    /**
     * Fault-injection hook (tests/CI only): unlink `frame` from its
     * hash chain while leaving the entry valid and mappedCount()
     * untouched — a mapped page the lookup path can no longer reach.
     * @retval true the frame was valid and has been unlinked.
     */
    bool corruptUnlink(std::uint64_t frame);

  private:
    /** End of a hash chain (never a frame: frames < maxFrames). */
    static constexpr std::uint32_t noFrame = 0xffff'ffffu;

    /** Host entry: what a walk reads, in a quarter of a cache line. */
    struct Entry
    {
        std::uint64_t vpn = 0;
        std::uint32_t next = noFrame; ///< hash chain link
        Pid pid = 0;
        bool valid = false;
    };
    static_assert(sizeof(Entry) == 16, "host IPT entry grew");

    std::uint64_t hashOf(Pid pid, std::uint64_t vpn) const;
    Addr anchorAddr(std::uint64_t bucket) const;

    std::vector<Entry> entries;
    std::vector<std::uint32_t> anchors; ///< bucket -> first frame
    std::uint64_t anchorMask;
    Addr vbase;
    std::uint64_t nMapped = 0;

    mutable std::uint64_t lookupCount = 0;
    mutable std::uint64_t probeCount = 0;
};

} // namespace rampage

#endif // RAMPAGE_OS_INVERTED_PAGE_TABLE_HH
