#include "trace/synthetic.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace rampage
{

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

Addr
SyntheticProgram::nextFetch()
{
    if (rng.chance(prof.branchTakenRate)) {
        std::uint64_t hot_code = hotCodeCached;
        if (rng.chance(prof.hotCodeProb)) {
            // Branch within the current loop nest.
            pc = hotCodeBase + alignDown(rng.below(hot_code), 2);
        } else {
            // Long-range call/jump anywhere in the text segment.
            pc = codeBase + alignDown(rng.below(prof.codeBytes), 2);
        }
    } else {
        pc += 4;
        if (pc >= codeBase + prof.codeBytes)
            pc = hotCodeBase;
    }
    return pc;
}

Addr
SyntheticProgram::burstWalk(Addr &ptr, Addr base, std::uint64_t span,
                            double jump_prob)
{
    if (ptr < base || ptr >= base + span || rng.chance(jump_prob)) {
        ptr = base + alignDown(rng.below(span), 3);
    } else {
        std::uint64_t step = 4 + rng.below(28);
        if (rng.chance(0.5)) {
            ptr = ptr >= base + step ? ptr - step : base;
        } else {
            ptr += step;
            if (ptr + 8 >= base + span)
                ptr = base;
        }
    }
    return alignDown(ptr, 2);
}

Addr
SyntheticProgram::nextData()
{
    double region = rng.unit();
    if (region < prof.stackFraction) {
        // Stack: intensely hot within the top frame or two.
        return stackTop - alignDown(
            rng.skewedBelowCached(prof.stackBytes, stackSkewHot, 0.99),
            2);
    }
    region -= prof.stackFraction;
    if (region < prof.globalFraction) {
        // Bursty accesses against a hot slice of the static data,
        // with a rare skewed excursion over the whole region.
        if (rng.chance(0.995)) {
            return burstWalk(globalPtr, globalBase, globalHotBytes,
                             prof.globalJumpProb);
        }
        return globalBase + alignDown(
            rng.skewedBelowCached(prof.globalBytes, globalSkewHot,
                                  0.95),
            2);
    }
    // Heap reference: streaming or hot-window.
    if (prof.streamFraction > 0 && rng.chance(prof.streamFraction)) {
        streamPtr += prof.streamStride;
        if (streamPtr + 8 >= heapBase + prof.heapBytes)
            streamPtr = heapBase;
        // Occasionally restart a stream elsewhere (new array sweep).
        if (rng.chance(0.0005))
            streamPtr = heapBase + alignDown(rng.below(prof.heapBytes), 6);
        return alignDown(streamPtr, 2);
    }
    if (rng.chance(prof.hotDataProb)) {
        return burstWalk(hotPtr, hotHeapBase, hotHeapBytes,
                         prof.hotJumpProb);
    }
    // Cold heap traffic is a pointer chase: a local meander with rare
    // long jumps, so consecutive cold references cluster in a page or
    // two (real linked-structure traversals do) rather than spraying
    // the TLB with uniform addresses.
    if (rng.chance(prof.coldJumpProb)) {
        coldPtr = heapBase + alignDown(rng.below(prof.heapBytes), 6);
    } else {
        std::uint64_t step = 16 + rng.below(112);
        if (rng.chance(0.5)) {
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
    while (got < n) {
        MemRef &fetch = buf[got++];
        fetch.vaddr = nextFetch();
        fetch.kind = RefKind::IFetch;
        fetch.pid = streamPid;

        if (++instrSincePhase >= prof.phaseLength)
            changePhase();

        if (rng.chance(prof.dataPerInstr)) {
            MemRef data;
            data.vaddr = nextData();
            data.kind = rng.chance(prof.storeFraction)
                            ? RefKind::Store
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
    refCount += n;
    return n;
}

} // namespace rampage
