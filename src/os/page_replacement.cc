#include "os/page_replacement.hh"

#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

const char *
pageReplKindName(PageReplKind kind)
{
    switch (kind) {
      case PageReplKind::Clock:
        return "clock";
      case PageReplKind::Fifo:
        return "FIFO";
      case PageReplKind::Random:
        return "random";
      case PageReplKind::Lru:
        return "LRU";
      case PageReplKind::Standby:
        return "clock+standby";
    }
    return "?";
}

PageReplacementPolicy::PageReplacementPolicy(std::uint64_t frames,
                                             std::uint64_t first_evictable)
    : nFrames(frames), firstEvictable(first_evictable), marks(frames, 0)
{
    RAMPAGE_ASSERT(frames > first_evictable,
                   "no evictable frames left after the pinned reserve");
}

std::unique_ptr<PageReplacementPolicy>
makePageReplacement(PageReplKind kind, std::uint64_t frames,
                    std::uint64_t first_evictable, std::uint64_t seed,
                    std::uint64_t standby_pages)
{
    switch (kind) {
      case PageReplKind::Clock:
        return std::make_unique<ClockPolicy>(frames, first_evictable);
      case PageReplKind::Fifo:
        return std::make_unique<FifoPolicy>(frames, first_evictable);
      case PageReplKind::Random:
        return std::make_unique<RandomPolicy>(frames, first_evictable,
                                              seed);
      case PageReplKind::Lru:
        return std::make_unique<LruPolicy>(frames, first_evictable);
      case PageReplKind::Standby:
        return std::make_unique<StandbyPolicy>(frames, first_evictable,
                                               standby_pages);
    }
    throw InternalError("unreachable page replacement kind");
}

// ---------------------------------------------------------------- Clock

void
ClockPolicy::fill(std::uint64_t frame)
{
    marks[frame] = markReferenced;
}

std::uint64_t
ClockPolicy::pickVictim(unsigned *scan_cost_out)
{
    unsigned scanned = 0;
    std::uint64_t evictable = nFrames - firstEvictable;
    // Two full sweeps guarantee an unreferenced frame (the first sweep
    // clears every mark).
    for (std::uint64_t step = 0; step < 2 * evictable + 1; ++step) {
        std::uint64_t frame = hand;
        hand = hand + 1 >= nFrames ? firstEvictable : hand + 1;
        ++scanned;
        if (marks[frame]) {
            marks[frame] = 0;
        } else {
            if (scan_cost_out)
                *scan_cost_out = scanned;
            return frame;
        }
    }
    throw InternalError("clock hand failed to find a victim");
}

// ----------------------------------------------------------------- FIFO

FifoPolicy::FifoPolicy(std::uint64_t frames, std::uint64_t first_evictable)
    : PageReplacementPolicy(frames, first_evictable),
      fillSeq(frames, 0)
{
}

void
FifoPolicy::fill(std::uint64_t frame)
{
    fillSeq[frame] = ++seq;
}

std::uint64_t
FifoPolicy::pickVictim(unsigned *scan_cost_out)
{
    std::uint64_t victim = firstEvictable;
    for (std::uint64_t frame = firstEvictable + 1; frame < nFrames; ++frame)
        if (fillSeq[frame] < fillSeq[victim])
            victim = frame;
    // A real FIFO is a queue: O(1) victim selection.  The scan above
    // is only this model's way of finding the oldest fill.
    if (scan_cost_out)
        *scan_cost_out = 1;
    return victim;
}

// --------------------------------------------------------------- Random

RandomPolicy::RandomPolicy(std::uint64_t frames,
                           std::uint64_t first_evictable,
                           std::uint64_t seed)
    : PageReplacementPolicy(frames, first_evictable), rng(seed)
{
}

std::uint64_t
RandomPolicy::pickVictim(unsigned *scan_cost_out)
{
    if (scan_cost_out)
        *scan_cost_out = 1;
    return firstEvictable + rng.below(nFrames - firstEvictable);
}

// ------------------------------------------------------------------ LRU

LruPolicy::LruPolicy(std::uint64_t frames, std::uint64_t first_evictable)
    : PageReplacementPolicy(frames, first_evictable), lastUse(frames, 0)
{
    // Every touch restamps: route them all through touched().
    marks.assign(frames, markHook);
}

void
LruPolicy::touched(std::uint64_t frame)
{
    lastUse[frame] = ++seq;
}

void
LruPolicy::fill(std::uint64_t frame)
{
    lastUse[frame] = ++seq;
}

std::uint64_t
LruPolicy::pickVictim(unsigned *scan_cost_out)
{
    std::uint64_t victim = firstEvictable;
    for (std::uint64_t frame = firstEvictable + 1; frame < nFrames; ++frame)
        if (lastUse[frame] < lastUse[victim])
            victim = frame;
    if (scan_cost_out)
        *scan_cost_out = static_cast<unsigned>(nFrames - firstEvictable);
    return victim;
}

// -------------------------------------------------------------- Standby

StandbyPolicy::StandbyPolicy(std::uint64_t frames,
                             std::uint64_t first_evictable,
                             std::uint64_t standby_pages)
    : PageReplacementPolicy(frames, first_evictable),
      standbyTarget(standby_pages),
      hand(first_evictable)
{
    RAMPAGE_ASSERT(standby_pages < frames - first_evictable,
                   "standby list larger than evictable memory");
}

void
StandbyPolicy::touched(std::uint64_t frame)
{
    // Rescue: the page proved hot while awaiting discard.
    marks[frame] = markReferenced;
    for (auto it = standby.begin(); it != standby.end(); ++it) {
        if (*it == frame) {
            standby.erase(it);
            break;
        }
    }
    ++rescueCount;
}

void
StandbyPolicy::fill(std::uint64_t frame)
{
    marks[frame] |= markReferenced;
}

std::uint64_t
StandbyPolicy::nominate(unsigned *scan_cost_out)
{
    unsigned scanned = 0;
    std::uint64_t evictable = nFrames - firstEvictable;
    for (std::uint64_t step = 0; step < 2 * evictable + 1; ++step) {
        std::uint64_t frame = hand;
        hand = hand + 1 >= nFrames ? firstEvictable : hand + 1;
        ++scanned;
        if (marks[frame] & markHook)
            continue; // already awaiting discard
        if (marks[frame] & markReferenced) {
            marks[frame] = 0;
        } else {
            if (scan_cost_out)
                *scan_cost_out += scanned;
            return frame;
        }
    }
    throw InternalError("standby clock hand failed to nominate a page");
}

std::uint64_t
StandbyPolicy::pickVictim(unsigned *scan_cost_out)
{
    if (scan_cost_out)
        *scan_cost_out = 0;
    // Keep nominating until the list is full, then discard its oldest.
    while (standby.size() < standbyTarget + 1) {
        std::uint64_t nominee = nominate(scan_cost_out);
        standby.push_back(nominee);
        marks[nominee] |= markHook;
    }
    std::uint64_t victim = standby.front();
    standby.pop_front();
    marks[victim] &= ~markHook;
    return victim;
}

} // namespace rampage
