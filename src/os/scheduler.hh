/**
 * @file
 * Multiprogramming scheduler: the simulator's one implementation of
 * time slicing (paper §4.2, §4.6).
 *
 * Under plain RAMpage and the conventional hierarchies nothing
 * blocks, so slicing is pure round-robin: rotate() at every quantum
 * expiry.  With context switches on misses, scheduling becomes
 * timing-coupled: a process that faults to DRAM blocks until its page
 * transfer completes, the CPU switches to another ready process, and
 * if every process is blocked the CPU stalls until the earliest
 * transfer finishes.  This class keeps the ready/blocked state and
 * picks the next process; the simulator charges the context-switch
 * trace and advances time.
 */

#ifndef RAMPAGE_OS_SCHEDULER_HH
#define RAMPAGE_OS_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace rampage
{

class AuditContext;
class StatsRegistry;

/** Result of a scheduling decision. */
struct SchedPick
{
    std::size_t index = 0; ///< process chosen to run next
    Tick resumeAt = 0;     ///< time the pick can start (>= now)
    bool stalled = false;  ///< CPU idled waiting for an unblock
};

/** Scheduler statistics. */
struct SchedStats
{
    std::uint64_t quantumSwitches = 0; ///< time-slice expiries
    std::uint64_t missSwitches = 0;    ///< switches taken on faults
    std::uint64_t stalls = 0;          ///< all-blocked CPU idles
    Tick stallTime = 0;                ///< total idle picoseconds
};

/** Round-robin scheduler with blocked-on-fault states. */
class Scheduler
{
  public:
    /**
     * @param nprocs number of processes (trace streams).
     * @param quantum_refs references per time slice (paper: 500 000).
     */
    Scheduler(std::size_t nprocs, std::uint64_t quantum_refs);

    /** Currently running process. */
    std::size_t current() const { return running; }

    /**
     * Account `n` executed references against the quantum; `n` must
     * not exceed refsUntilQuantum().
     * @retval true the quantum just expired (caller should charge a
     *         context switch and call rotate()).
     */
    bool onRefs(std::uint64_t n);

    /** References the running slice can still execute before expiry. */
    std::uint64_t
    refsUntilQuantum() const
    {
        return quantumRefs - refsInSlice;
    }

    /**
     * Time-slice switch: advance round-robin to the next ready
     * process.  If none is ready the CPU stalls until the earliest
     * unblock.
     */
    SchedPick rotate(Tick now);

    /**
     * Block the running process until `until` (its page transfer
     * completes) and pick the next process to run.
     */
    SchedPick blockCurrent(Tick now, Tick until);

    /** @return true if process `index` is ready at time `now`. */
    bool ready(std::size_t index, Tick now) const;

    /** Number of ready processes at time `now`. */
    std::size_t readyCount(Tick now) const;

    std::size_t processCount() const { return blockedUntil.size(); }
    std::uint64_t quantum() const { return quantumRefs; }
    const SchedStats &stats() const { return stat; }

    /** Register the scheduler's counters under `prefix` (e.g. "sched"). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Self-audit at time `now`: the running process must exist and be
     * ready (the simulator always advances time to the pick's
     * resumeAt before executing), and the slice counter must not
     * exceed the quantum (onRefs() resets it at expiry).
     */
    void auditState(AuditContext &ctx, Tick now) const;

    /**
     * Fault-injection hook (tests/CI only): block the *running*
     * process until `until` without switching away, modelling a
     * lost-wakeup scheduler bug.
     * @retval true always (the running process always exists).
     */
    bool corruptBlockRunning(Tick until);

  private:
    /**
     * Pick the next ready process after `from` in round-robin order,
     * stalling to the earliest unblock when everyone is blocked.
     */
    SchedPick pickFrom(std::size_t from, Tick now);

    std::vector<Tick> blockedUntil; ///< 0 = ready
    std::size_t running = 0;
    std::uint64_t quantumRefs;
    std::uint64_t refsInSlice = 0;
    SchedStats stat;
};

} // namespace rampage

#endif // RAMPAGE_OS_SCHEDULER_HH
