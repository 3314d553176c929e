/**
 * @file
 * The SRAM main-memory page store — one placement/replacement engine
 * behind every RAMpage configuration (paper §2.2, §4.5, §6.2/§6.3).
 *
 * The store manages the software-paged SRAM at a fixed frame
 * granularity (`pageBytes`) and composes one of two page-size
 * policies on top:
 *
 *  - **uniform** (`defaultPageBytes == 0`): every page is exactly one
 *    frame.  This is the paper's §4.5 system: residency lives in the
 *    pinned inverted page table, replacement is a pluggable policy
 *    (clock by default), and cold fill hands frames out in order.
 *  - **per-pid** (`defaultPageBytes != 0`): each process is assigned
 *    its own page size, a power-of-two multiple of the base frame
 *    (§6.2/§6.3 "dynamic tuning").  A page of k frames occupies k
 *    contiguous frames aligned to k; replacement is a window clock
 *    with second chance; cold fill is bump allocation with alignment.
 *
 * A per-pid configuration whose page sizes are all equal to the base
 * frame is *normalized to the uniform policy at construction*: the
 * degenerate case is not a near-copy of the fixed-size pager, it IS
 * the fixed-size pager, bit for bit (stats names, probe addresses,
 * reserve size, DRAM pricing hints — everything).
 *
 * Capacity follows the paper exactly in both modes: the
 * cache-equivalent 4 MB plus the bytes a cache of that size would
 * have spent on tags (§4.5).  A pinned operating-system reserve at
 * the bottom of the frame space holds the handler image and the
 * residency table, so TLB misses and fault handling never touch DRAM
 * except for the faulted transfer itself (§2.3).
 *
 * The store is a pure placement/replacement engine: it answers
 * residency lookups and services faults, reporting everything the
 * hierarchy needs to charge time (table probe addresses for the
 * handler trace, the victim pages for write-back and inclusion
 * flushes, and the scan length).
 */

#ifndef RAMPAGE_OS_PAGE_STORE_HH
#define RAMPAGE_OS_PAGE_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/inverted_page_table.hh"
#include "os/page_replacement.hh"
#include "util/error.hh"
#include "util/types.hh"

namespace rampage
{

class AuditContext;
class StatsRegistry;

/** Static configuration of the SRAM main memory. */
struct PageStoreParams
{
    /**
     * SRAM frame size: the page size under the uniform policy (the
     * paper sweeps 128 B - 4 KB), the base frame (granularity and
     * smallest page) under the per-pid policy.
     */
    std::uint64_t pageBytes = 1024;
    /** Cache-equivalent SRAM capacity (paper: 4 MB). */
    std::uint64_t baseSramBytes = 4 * mib;
    /**
     * Tag bytes per frame that the equivalent cache would have spent;
     * RAMpage gets them back as usable capacity (paper §4.5: +128 KB
     * at 128 B pages).
     */
    std::uint64_t tagBytesPerBlock = 4;
    /** Replacement policy (uniform mode only; paper: clock). */
    PageReplKind repl = PageReplKind::Clock;
    /** Standby list length for PageReplKind::Standby. */
    std::uint64_t standbyPages = 16;
    std::uint64_t seed = 11;
    /** Fixed OS image (handler code + data) pinned besides the table. */
    std::uint64_t osFixedBytes = 12 * kib;
    /** Virtual base of the pinned OS region (code, data, then table). */
    Addr osVirtBase = 0x0001'0000;

    // --- per-pid page-size policy (§6.2/§6.3) -----------------------
    /**
     * Page size for pids without an explicit entry; 0 selects the
     * uniform policy (every page is one `pageBytes` frame).
     */
    std::uint64_t defaultPageBytes = 0;
    /** Per-pid page sizes (powers of two in [pageBytes, dramPage]). */
    std::unordered_map<Pid, std::uint64_t> pageBytesByPid;
};

/** One evicted page during a fault (uniform faults evict 0 or 1). */
struct PageVictim
{
    Pid pid = 0;
    std::uint64_t vpn = 0;
    std::uint64_t startFrame = 0;
    std::uint64_t frames = 0; ///< length in frames
    std::uint64_t bytes = 0;
    bool dirty = false;
};

/**
 * Outcome of servicing a page fault.  The fault path fills a
 * caller-owned instance, so its vectors keep their capacity from one
 * fault to the next.
 */
struct PageFaultResult
{
    /** Frame (uniform) / start frame (per-pid) now holding the page. */
    std::uint64_t frame = 0;
    unsigned scanCost = 0; ///< replacement-policy scan length
    std::vector<PageVictim> victims;
    /** Table words the fault handling touched (for the handler trace). */
    std::vector<Addr> probes;
};

/** Page-store statistics (mode decides which counters register). */
struct PageStoreStats
{
    std::uint64_t faults = 0;
    std::uint64_t dirtyWritebacks = 0;
    std::uint64_t coldFills = 0;      ///< uniform: free-frame faults
    std::uint64_t victimsEvicted = 0; ///< per-pid: window-clock victims
};

/** The SRAM main-memory manager. */
class PageStore
{
  public:
    explicit PageStore(const PageStoreParams &params);

    /** @return true under the uniform (fixed page size) policy. */
    bool uniform() const { return prm.defaultPageBytes == 0; }

    /** Frame size: uniform page, or per-pid base frame. */
    std::uint64_t frameBytes() const { return prm.pageBytes; }

    /**
     * log2 of frameBytes(): a physical address's frame number is
     * `paddr >> frameShift()`, a shift where a divide would cost tens
     * of cycles on every L1 fill and write-back.
     */
    unsigned frameShift() const { return frameBits; }

    /** Uniform page size (same as frameBytes()). */
    std::uint64_t pageBytes() const { return prm.pageBytes; }

    /**
     * log2 of a pid's page size (of frameBytes() under the uniform
     * policy).  Inline and one table load: the hierarchy takes its
     * translation shift from this on every reference.
     */
    unsigned
    pageShift(Pid pid) const
    {
        return pid < pidShift.size() ? pidShift[pid] : defaultShift;
    }

    /** Page size for a pid (frameBytes() under the uniform policy). */
    std::uint64_t
    pageBytes(Pid pid) const
    {
        return std::uint64_t{1} << pageShift(pid);
    }

    /** Page size in frames for a pid (1 under the uniform policy). */
    std::uint64_t pageFrames(Pid pid) const;

    /** Total SRAM size (cache-equivalent + reclaimed tag bytes). */
    std::uint64_t sramBytes() const { return totalBytes; }

    /** Total page frames. */
    std::uint64_t totalFrames() const { return nFrames; }

    /** Pinned operating-system frames at the bottom of the space. */
    std::uint64_t osFrames() const { return nOsFrames; }

    /** Frames available to user pages. */
    std::uint64_t userFrames() const { return nFrames - nOsFrames; }

    /** Number of resident (mapped) pages. */
    std::uint64_t residentPages() const;

    /**
     * Residency lookup (the TLB-miss handler's table walk).  `frame`
     * is the page's start frame under the per-pid policy.
     * @param probes when non-null receives the table words touched.
     */
    IptLookup lookup(Pid pid, std::uint64_t vpn,
                     std::vector<Addr> *probes = nullptr) const;

    /** Record a reference to a frame (replacement state); inline —
     *  the hierarchy touches the referenced frame on every L1 fill and
     *  write-back.  Both page-size policies set a mark byte without a
     *  call; only LRU replacement and a standby-page rescue take the
     *  policy's virtual touched(). */
    void
    touch(std::uint64_t frame)
    {
        if (uniform()) {
            repl->touch(frame);
            return;
        }
        RAMPAGE_ASSERT(frame < nFrames, "frame out of range");
        std::uint64_t start = frameStart[frame];
        if (start != noFrame)
            refd[start] = 1;
    }

    /** Mark the page holding a frame dirty (a store hit it). */
    void markDirty(std::uint64_t frame);

    /** @return dirty state of the page holding a frame. */
    bool isDirty(std::uint64_t frame) const;

    /** @return true when a page (or the OS reserve) owns the frame. */
    bool frameOwned(std::uint64_t frame) const;

    /** @return frame is pinned or belongs to a resident page. */
    bool
    frameBacked(std::uint64_t frame) const
    {
        return frame < nOsFrames || frameOwned(frame);
    }

    /**
     * Service a fault for (pid, vpn): choose victims (never pinned),
     * unmap them, and map the new page.  The caller charges DRAM
     * transfer time, flushes the victims' TLB entries and maintains
     * L1 inclusion using the details written to `result` (cleared
     * first; its vectors are reused, so a warm fault allocates
     * nothing).
     */
    void handleFault(Pid pid, std::uint64_t vpn, PageFaultResult &result);

    /** handleFault() into a fresh result. */
    PageFaultResult
    handleFault(Pid pid, std::uint64_t vpn)
    {
        PageFaultResult result;
        handleFault(pid, vpn, result);
        return result;
    }

    /** Physical SRAM address of an offset within a frame. */
    Addr
    physAddr(std::uint64_t frame, Addr offset) const
    {
        return frame * prm.pageBytes + offset;
    }

    /**
     * Translate a virtual address in the pinned OS region to its SRAM
     * physical address.  OS references bypass the TLB (they are
     * direct-mapped into the reserve, like MIPS kseg0), which is how
     * the pinned-handler guarantee of §2.3 is realized.
     */
    Addr
    osPhysAddr(Addr os_vaddr) const
    {
        RAMPAGE_ASSERT(os_vaddr >= prm.osVirtBase &&
                           os_vaddr < osVirtEnd(),
                       "address outside the pinned OS region");
        // The reserve occupies frames [0, nOsFrames) verbatim.
        return os_vaddr - prm.osVirtBase;
    }

    /** Extent of the pinned OS virtual region. */
    Addr osVirtBase() const { return prm.osVirtBase; }
    Addr osVirtEnd() const
    {
        return prm.osVirtBase + nOsFrames * prm.pageBytes;
    }

    /** Virtual base address of the residency-table image. */
    Addr tableVirtBase() const { return tableVbase; }

    /** Register the store's counters under `prefix` (e.g. "pager"). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    const PageStoreParams &params() const { return prm; }
    const PageStoreStats &stats() const { return stat; }
    const InvertedPageTable &table() const { return *ipt; }
    /** Uniform-mode replacement policy (ConfigError otherwise). */
    const PageReplacementPolicy &policy() const;

    /**
     * Self-audit.  Uniform: the pinned OS reserve never mapped, every
     * cold-filled user frame mapped (an unmapped one is leaked SRAM
     * capacity), the cold region beyond the fill cursor empty, no
     * dirty bit on an unmapped user frame, no (pid, vpn) resident in
     * two frames.  Per-pid: every resident page aligned to its own
     * length, inside the user frame range, owning exactly its frames
     * (back-pointers agree); no frame owned by the reserve or by a
     * dead page; counts consistent.  Both modes include the inverted
     * page table's own chain/count audit.
     */
    void auditState(AuditContext &ctx) const;

    /**
     * Fault-injection hooks (tests/CI only).  Each models one classic
     * pager bug; every hook returns true when it corrupted state.
     */
    /** Unlink a mapped frame's table entry from its hash chain. */
    bool corruptUnlinkEntry();
    /** Uniform: set the dirty bit of a frame that maps no page. */
    bool corruptStaleDirty();
    /** Uniform: drop a cold-filled frame's mapping (leak the frame). */
    bool corruptLeakFrame();
    /** Per-pid: clear one owned frame's back-pointer. */
    bool corruptDropOwner();

  private:
    static PageStoreParams normalized(PageStoreParams params);

    Addr probeAddr(Pid pid, std::uint64_t vpn) const;

    void auditUniform(AuditContext &ctx) const;
    void auditPerPid(AuditContext &ctx) const;

    /** Per-pid: evict every page overlapping [start, start+frames). */
    void evictWindow(std::uint64_t start, std::uint64_t frames,
                     PageFaultResult &result);

    static constexpr std::uint64_t noFrame = ~std::uint64_t{0};

    PageStoreParams prm;
    /** pageShift() of pids past the table (every pid when uniform). */
    unsigned defaultShift;
    unsigned frameBits; ///< frameShift()
    /** Per-pid page shifts, up to the largest explicitly sized pid. */
    std::vector<std::uint8_t> pidShift;
    std::uint64_t totalBytes;
    std::uint64_t nFrames;
    std::uint64_t nOsFrames;
    Addr tableVbase;
    /** Residency, in both modes: one entry per page, at its start. */
    std::unique_ptr<InvertedPageTable> ipt;
    /** Uniform-mode replacement policy (null under per-pid). */
    std::unique_ptr<PageReplacementPolicy> repl;
    /** Dirty bits, indexed by frame (uniform) / start frame (per-pid). */
    std::vector<bool> dirty;
    std::uint64_t nextFreeFrame; ///< cold-fill cursor

    // --- per-pid policy state ---------------------------------------
    /** Owning page's start frame per frame, or noFrame. */
    std::vector<std::uint64_t> frameStart;
    /** Window-clock reference marks, indexed by start frame. */
    std::vector<std::uint8_t> refd;
    std::uint64_t nResident = 0;
    std::uint64_t hand = 0; ///< window-clock hand

    PageStoreStats stat;
};

} // namespace rampage

#endif // RAMPAGE_OS_PAGE_STORE_HH
