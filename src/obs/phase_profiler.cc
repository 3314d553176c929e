#include "obs/phase_profiler.hh"

#include <atomic>
#include <cstdio>

namespace rampage
{

namespace
{

/**
 * Global totals as atomic nanosecond counters: fetch_add is the whole
 * synchronization story, so worker threads never contend on a lock.
 */
std::atomic<std::uint64_t> globalNanos[sweepPhaseCount];

thread_local double threadSeconds[sweepPhaseCount];

} // namespace

const char *
sweepPhaseName(SweepPhase phase)
{
    switch (phase) {
      case SweepPhase::Audit:
        return "audit";
      case SweepPhase::Checkpoint:
        return "checkpoint";
      case SweepPhase::Ipc:
        return "ipc";
    }
    return "unknown";
}

void
phaseRecord(SweepPhase phase, double seconds)
{
    if (seconds < 0)
        return;
    std::size_t idx = static_cast<std::size_t>(phase);
    threadSeconds[idx] += seconds;
    globalNanos[idx].fetch_add(
        static_cast<std::uint64_t>(seconds * 1e9),
        std::memory_order_relaxed);
}

PhaseSeconds
phaseThreadTotals()
{
    PhaseSeconds out{};
    for (std::size_t i = 0; i < sweepPhaseCount; ++i)
        out[i] = threadSeconds[i];
    return out;
}

void
phaseThreadReset()
{
    for (double &seconds : threadSeconds)
        seconds = 0.0;
}

void
phaseGlobalAdd(const PhaseSeconds &seconds)
{
    for (std::size_t i = 0; i < sweepPhaseCount; ++i) {
        if (seconds[i] <= 0)
            continue;
        globalNanos[i].fetch_add(
            static_cast<std::uint64_t>(seconds[i] * 1e9),
            std::memory_order_relaxed);
    }
}

std::string
phaseGlobalSummary()
{
    std::string out;
    char piece[64];
    for (std::size_t i = 0; i < sweepPhaseCount; ++i) {
        std::uint64_t nanos =
            globalNanos[i].load(std::memory_order_relaxed);
        if (nanos == 0)
            continue;
        std::snprintf(piece, sizeof(piece), "%s%s %.1fs",
                      out.empty() ? "" : ", ",
                      sweepPhaseName(static_cast<SweepPhase>(i)),
                      static_cast<double>(nanos) / 1e9);
        out += piece;
    }
    return out;
}

} // namespace rampage
