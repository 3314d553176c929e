/**
 * @file
 * Per-hierarchy-level simulated-time accounting, matching the
 * categories of the paper's Figures 2 and 3: L1 instruction, L1 data
 * (inclusion maintenance only — data hits are fully pipelined), the
 * L2 cache / SRAM main memory level, and DRAM.
 *
 * Software handler time (TLB miss, page fault, context switch) is
 * *interleaved* through the hierarchy exactly as in the paper, so it
 * lands inside these four levels rather than in a separate bucket.
 */

#ifndef RAMPAGE_STATS_TIME_BREAKDOWN_HH
#define RAMPAGE_STATS_TIME_BREAKDOWN_HH

#include <array>
#include <cstddef>
#include <string>

#include "util/types.hh"

namespace rampage
{

/** The four accounted hierarchy levels (Figures 2-3). */
enum class TimeLevel : std::size_t
{
    L1I,   ///< instruction fetches (hits) + L1I inclusion probes
    L1D,   ///< L1D inclusion probes only (data hits are pipelined)
    L2,    ///< L2 cache, or the SRAM main memory under RAMpage
    Dram,  ///< Direct Rambus transfer time
};

constexpr std::size_t numTimeLevels = 4;

/** Accumulated simulated time per hierarchy level. */
class TimeBreakdown
{
  public:
    /** Add `ps` picoseconds to one level. */
    void
    add(TimeLevel level, Tick ps)
    {
        ticks[static_cast<std::size_t>(level)] += ps;
    }

    /** Time accumulated on one level. */
    Tick
    at(TimeLevel level) const
    {
        return ticks[static_cast<std::size_t>(level)];
    }

    /** Total simulated time across all levels. */
    Tick total() const;

    /** Fraction of total time on one level; 0 when total is 0. */
    double fraction(TimeLevel level) const;

    /**
     * Render a one-line summary; `l2_name` labels the third level
     * ("L2" or "SRAM MM").
     */
    std::string render(const std::string &l2_name = "L2") const;

    /** Reset all levels to zero. */
    void reset();

  private:
    std::array<Tick, numTimeLevels> ticks{};
};

/** Display name of a level ("L1i", "L1d", ...). */
std::string timeLevelName(TimeLevel level,
                          const std::string &l2_name = "L2");

} // namespace rampage

#endif // RAMPAGE_STATS_TIME_BREAKDOWN_HH
