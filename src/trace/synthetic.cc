#include "trace/synthetic.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace rampage
{

namespace
{

// The generator's fixed probabilities.
constexpr Odds stackHotOdds{0.99};    ///< stack ref in the hot frames
constexpr Odds globalBurstOdds{0.995}; ///< global ref in the hot slice
constexpr Odds globalHotOdds{0.95};   ///< global excursion skews hot
constexpr Odds streamRestartOdds{0.0005}; ///< new array sweep
constexpr Odds evenOdds{0.5};         ///< meander steps down

} // namespace

SyntheticProgram::SyntheticProgram(const ProgramProfile &profile, Pid pid)
    : prof(profile), streamPid(pid), rng(profile.seed)
{
    RAMPAGE_ASSERT(prof.codeBytes >= 4096, "text segment too small");
    RAMPAGE_ASSERT(prof.heapBytes >= 4096, "heap too small");
    RAMPAGE_ASSERT(prof.stackBytes >= 256, "stack too small");
    reset();
}

void
SyntheticProgram::cacheProfileConstants()
{
    hotCodeCached = hotCodeBytes();
    globalHotBytes =
        std::min<std::uint64_t>(prof.globalBytes, 12 * 1024);
    // The skewed regions' hot spans, exactly as Rng::skewedBelow
    // derives them (fraction 0.08, floored at 1).
    auto skew_hot = [](std::uint64_t bound) {
        std::uint64_t hot = static_cast<std::uint64_t>(
            static_cast<double>(bound) * 0.08);
        return hot == 0 ? std::uint64_t{1} : hot;
    };
    stackSkewHot = skew_hot(prof.stackBytes);
    globalSkewHot = skew_hot(prof.globalBytes);
    stackCut = UnitCut::below(prof.stackFraction);
    globalCut =
        UnitCut::afterSubtract(prof.stackFraction, prof.globalFraction);
    branchOdds = Odds(prof.branchTakenRate);
    hotCodeOdds = Odds(prof.hotCodeProb);
    dataOdds = Odds(prof.dataPerInstr);
    storeOdds = Odds(prof.storeFraction);
    streamOdds = Odds(prof.streamFraction);
    hotDataOdds = Odds(prof.hotDataProb);
    hotJumpOdds = Odds(prof.hotJumpProb);
    coldJumpOdds = Odds(prof.coldJumpProb);
    globalJumpOdds = Odds(prof.globalJumpProb);
}

void
SyntheticProgram::reset()
{
    rng = Rng(prof.seed);
    cacheProfileConstants();
    pc = codeBase;
    hotCodeBase = codeBase;
    hotHeapBytes = prof.hotDataBytes;
    if (hotHeapBytes < 4096)
        hotHeapBytes = 4096;
    if (hotHeapBytes > prof.heapBytes)
        hotHeapBytes = prof.heapBytes;
    hotHeapBase = heapBase;
    streamPtr = heapBase;
    coldPtr = heapBase;
    hotPtr = 0;
    globalPtr = 0;
    instrSincePhase = 0;
    refCount = 0;
    dataPending = false;
    changePhase();
}

std::uint64_t
SyntheticProgram::hotCodeBytes() const
{
    std::uint64_t hot = static_cast<std::uint64_t>(
        static_cast<double>(prof.codeBytes) * prof.hotCodeFraction);
    if (hot < 1024)
        hot = 1024;
    if (hot > prof.hotCodeBytesCap)
        hot = prof.hotCodeBytesCap;
    return hot;
}

void
SyntheticProgram::changePhase()
{
    // Pick a new hot heap window and a new loop nest, aligned to 256 B
    // so windows overlap cache/page boundaries realistically.
    std::uint64_t heap_span = prof.heapBytes > hotHeapBytes
                                  ? prof.heapBytes - hotHeapBytes
                                  : 1;
    hotHeapBase = heapBase + alignDown(rng.below(heap_span), 8);

    std::uint64_t hot_code = hotCodeCached;
    std::uint64_t code_span = prof.codeBytes > hot_code
                                  ? prof.codeBytes - hot_code
                                  : 1;
    hotCodeBase = codeBase + alignDown(rng.below(code_span), 6);
    instrSincePhase = 0;
}

inline Addr
SyntheticProgram::nextFetch(Rng &r)
{
    if (r.chance(branchOdds)) {
        if (r.chance(hotCodeOdds)) {
            // Branch within the current loop nest.
            pc = hotCodeBase + alignDown(r.below(hotCodeCached), 2);
        } else {
            // Long-range call/jump anywhere in the text segment.
            pc = codeBase + alignDown(r.below(prof.codeBytes), 2);
        }
    } else {
        pc += 4;
        if (pc >= codeBase + prof.codeBytes)
            pc = hotCodeBase;
    }
    return pc;
}

inline Addr
SyntheticProgram::burstWalk(Rng &r, Addr &ptr, Addr base,
                            std::uint64_t span, Odds jump)
{
    if (ptr < base || ptr >= base + span || r.chance(jump)) {
        ptr = base + alignDown(r.below(span), 3);
    } else {
        std::uint64_t step = 4 + r.below(28);
        if (r.chance(evenOdds)) {
            ptr = ptr >= base + step ? ptr - step : base;
        } else {
            ptr += step;
            if (ptr + 8 >= base + span)
                ptr = base;
        }
    }
    return alignDown(ptr, 2);
}

inline Addr
SyntheticProgram::nextData(Rng &r)
{
    // One unit() draw picks the region, compared as its 53-bit
    // integer against the cached cuts.
    const std::uint64_t region = r.next() >> 11;
    if (region < stackCut) {
        // Stack: intensely hot within the top frame or two.
        return stackTop - alignDown(
            r.skewedBelowCached(prof.stackBytes, stackSkewHot,
                                stackHotOdds),
            2);
    }
    if (region < globalCut) {
        // Bursty accesses against a hot slice of the static data,
        // with a rare skewed excursion over the whole region.
        if (r.chance(globalBurstOdds)) {
            return burstWalk(r, globalPtr, globalBase, globalHotBytes,
                             globalJumpOdds);
        }
        return globalBase + alignDown(
            r.skewedBelowCached(prof.globalBytes, globalSkewHot,
                                globalHotOdds),
            2);
    }
    // Heap reference: streaming or hot-window.
    if (r.chance(streamOdds)) {
        streamPtr += prof.streamStride;
        if (streamPtr + 8 >= heapBase + prof.heapBytes)
            streamPtr = heapBase;
        // Occasionally restart a stream elsewhere (new array sweep).
        if (r.chance(streamRestartOdds))
            streamPtr = heapBase + alignDown(r.below(prof.heapBytes), 6);
        return alignDown(streamPtr, 2);
    }
    if (r.chance(hotDataOdds)) {
        return burstWalk(r, hotPtr, hotHeapBase, hotHeapBytes,
                         hotJumpOdds);
    }
    // Cold heap traffic is a pointer chase: a local meander with rare
    // long jumps, so consecutive cold references cluster in a page or
    // two (real linked-structure traversals do) rather than spraying
    // the TLB with uniform addresses.
    if (r.chance(coldJumpOdds)) {
        coldPtr = heapBase + alignDown(r.below(prof.heapBytes), 6);
    } else {
        std::uint64_t step = 16 + r.below(112);
        if (r.chance(evenOdds)) {
            coldPtr = coldPtr >= heapBase + step ? coldPtr - step
                                                 : heapBase;
        } else {
            coldPtr += step;
            if (coldPtr + 8 >= heapBase + prof.heapBytes)
                coldPtr = heapBase;
        }
    }
    return alignDown(coldPtr, 2);
}

std::size_t
SyntheticProgram::fill(MemRef *buf, std::size_t n)
{
    // Each instruction fetch is followed by the data reference it
    // carries, if any.  The data reference's draws happen with its
    // fetch, so a data reference that does not fit in this buffer is
    // staged in `pendingRef` and opens the next call: the stream is
    // the same however it is chunked.
    std::size_t got = 0;
    if (dataPending && got < n) {
        dataPending = false;
        buf[got++] = pendingRef;
    }
    Rng r = rng; // register-resident; written back below
    while (got < n) {
        MemRef &fetch = buf[got++];
        fetch.vaddr = nextFetch(r);
        fetch.kind = RefKind::IFetch;
        fetch.pid = streamPid;

        if (++instrSincePhase >= prof.phaseLength) {
            rng = r;
            changePhase();
            r = rng;
        }

        if (r.chance(dataOdds)) {
            MemRef data;
            data.vaddr = nextData(r);
            data.kind = r.chance(storeOdds) ? RefKind::Store
                                            : RefKind::Load;
            data.pid = streamPid;
            if (got < n) {
                buf[got++] = data;
            } else {
                pendingRef = data;
                dataPending = true;
            }
        }
    }
    rng = r;
    refCount += n;
    return n;
}

} // namespace rampage
