/**
 * @file
 * Page-replacement policies for the RAMpage SRAM main memory.
 *
 * The paper's policy (§4.5) is the standard clock algorithm: a hand
 * sweeps the frame table clearing "in use" marks until it finds an
 * unused frame, which becomes the victim.  Alternatives are provided
 * for the ablation benches: FIFO, random, true LRU, and clock with a
 * standby page list — the §3.2 victim-cache analogue, where a
 * replaced page sits on a standby list and the page longest on the
 * list is the one actually discarded (Crowley's textbook scheme the
 * paper cites).
 *
 * Policies operate on frame numbers in [0, frames); pinned frames are
 * never offered as victims.
 */

#ifndef RAMPAGE_OS_PAGE_REPLACEMENT_HH
#define RAMPAGE_OS_PAGE_REPLACEMENT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/random.hh"
#include "util/types.hh"

namespace rampage
{

/** Replacement policy selector. */
enum class PageReplKind : std::uint8_t
{
    Clock,   ///< paper's policy (§4.5)
    Fifo,    ///< oldest fill
    Random,  ///< uniform over unpinned frames
    Lru,     ///< true LRU (upper bound for the ablation)
    Standby, ///< clock + standby page list (§3.2 victim analogue)
};

const char *pageReplKindName(PageReplKind kind);

/**
 * Abstract page-replacement policy.
 *
 * The pager notifies the policy of every frame touch and fill; when a
 * fault needs a frame, pickVictim() returns an unpinned victim.
 *
 * Touches arrive on every L1 fill and write-back, so touch() is not
 * virtual: it sets the frame's reference mark — one byte per frame,
 * the clock algorithm's "in use" bit — inline.  A policy that must see
 * a touch sets `markHook` in the frame's mark, and touch() then calls
 * touched() instead: LruPolicy keeps the hook on every frame (each
 * touch restamps), StandbyPolicy sets it while a page awaits discard
 * (a touch rescues it).
 */
class PageReplacementPolicy
{
  public:
    /**
     * @param frames total frame count.
     * @param first_evictable frames below this index are pinned
     *        (operating-system reserve) and never chosen.
     */
    PageReplacementPolicy(std::uint64_t frames,
                          std::uint64_t first_evictable);
    virtual ~PageReplacementPolicy() = default;

    /** A frame was referenced. */
    void
    touch(std::uint64_t frame)
    {
        std::uint8_t &mark = marks[frame];
        if (mark & markHook)
            touched(frame);
        else
            mark = markReferenced;
    }

    /** A frame was (re)filled with a new page. */
    virtual void fill(std::uint64_t frame) = 0;

    /**
     * Choose a victim frame (never pinned).
     * @param scan_cost_out when non-null, receives the number of
     *        frame-table entries the policy inspected — the clock
     *        hand's travel, charged to the fault handler's work.
     */
    virtual std::uint64_t pickVictim(unsigned *scan_cost_out) = 0;

    virtual std::string name() const = 0;

  protected:
    /** Mark bits: referenced since the hand last passed / hook. */
    static constexpr std::uint8_t markReferenced = 1;
    static constexpr std::uint8_t markHook = 2;

    /** touch() of a frame whose mark carries markHook. */
    virtual void touched(std::uint64_t) {}

    std::uint64_t nFrames;
    std::uint64_t firstEvictable;
    /** Per-frame mark bits (markReferenced | markHook). */
    std::vector<std::uint8_t> marks;
};

/** Factory for the selected policy. */
std::unique_ptr<PageReplacementPolicy>
makePageReplacement(PageReplKind kind, std::uint64_t frames,
                    std::uint64_t first_evictable,
                    std::uint64_t seed = 11,
                    std::uint64_t standby_pages = 16);

/** The paper's clock (second-chance) algorithm. */
class ClockPolicy : public PageReplacementPolicy
{
  public:
    using PageReplacementPolicy::PageReplacementPolicy;

    void fill(std::uint64_t frame) override;
    std::uint64_t pickVictim(unsigned *scan_cost_out) override;
    std::string name() const override { return "clock"; }

  private:
    std::uint64_t hand = firstEvictable;
};

/** FIFO (oldest fill) replacement. */
class FifoPolicy : public PageReplacementPolicy
{
  public:
    FifoPolicy(std::uint64_t frames, std::uint64_t first_evictable);

    void fill(std::uint64_t frame) override;
    std::uint64_t pickVictim(unsigned *scan_cost_out) override;
    std::string name() const override { return "FIFO"; }

  private:
    std::vector<std::uint64_t> fillSeq;
    std::uint64_t seq = 0;
};

/** Uniform random replacement over unpinned frames. */
class RandomPolicy : public PageReplacementPolicy
{
  public:
    RandomPolicy(std::uint64_t frames, std::uint64_t first_evictable,
                 std::uint64_t seed);

    void fill(std::uint64_t) override {}
    std::uint64_t pickVictim(unsigned *scan_cost_out) override;
    std::string name() const override { return "random"; }

  private:
    Rng rng;
};

/**
 * True least-recently-used replacement.  Software LRU has no free
 * implementation: either every touch maintains an ordered list (a
 * cost this simulator does not charge) or the victim is found by a
 * scan (charged here via scan_cost).  The ablation bench therefore
 * shows LRU's *miss* advantage and its *software* disadvantage —
 * precisely the trade-off that makes clock the textbook choice.
 */
class LruPolicy : public PageReplacementPolicy
{
  public:
    LruPolicy(std::uint64_t frames, std::uint64_t first_evictable);

    void fill(std::uint64_t frame) override;
    std::uint64_t pickVictim(unsigned *scan_cost_out) override;
    std::string name() const override { return "LRU"; }

  private:
    void touched(std::uint64_t frame) override;

    std::vector<std::uint64_t> lastUse;
    std::uint64_t seq = 0;
};

/**
 * Clock with a standby page list: clock nominates pages onto a FIFO
 * standby list; the actual victim is the page that has been on the
 * list longest.  A touched standby page is rescued (removed from the
 * list), giving recently replaced pages a grace period exactly as a
 * victim cache gives evicted blocks one.
 */
class StandbyPolicy : public PageReplacementPolicy
{
  public:
    StandbyPolicy(std::uint64_t frames, std::uint64_t first_evictable,
                  std::uint64_t standby_pages);

    void fill(std::uint64_t frame) override;
    std::uint64_t pickVictim(unsigned *scan_cost_out) override;
    std::string name() const override { return "clock+standby"; }

    /** Pages rescued from the standby list so far. */
    std::uint64_t rescues() const { return rescueCount; }

  private:
    /** Clock nomination (same as ClockPolicy). */
    std::uint64_t nominate(unsigned *scan_cost_out);
    /** Rescue a standby page (its mark carries markHook). */
    void touched(std::uint64_t frame) override;

    /** Pages awaiting discard; each carries markHook in its mark. */
    std::deque<std::uint64_t> standby;
    std::uint64_t standbyTarget;
    std::uint64_t hand;
    std::uint64_t rescueCount = 0;
};

} // namespace rampage

#endif // RAMPAGE_OS_PAGE_REPLACEMENT_HH
