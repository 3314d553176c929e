#include "os/scheduler.hh"

#include "stats/registry.hh"
#include "util/audit.hh"
#include "util/debug.hh"
#include "util/logging.hh"

namespace rampage
{

void
Scheduler::registerStats(StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.addCounter(prefix + ".quantum_switches",
                   "time-slice context switches",
                   &stat.quantumSwitches);
    reg.addCounter(prefix + ".miss_switches",
                   "context switches taken on page faults",
                   &stat.missSwitches);
    reg.addCounter(prefix + ".stalls", "all-blocked CPU idles",
                   &stat.stalls);
    reg.addCounter(prefix + ".stall_ps", "total CPU idle picoseconds",
                   &stat.stallTime);
}

Scheduler::Scheduler(std::size_t nprocs, std::uint64_t quantum_refs)
    : blockedUntil(nprocs, 0), quantumRefs(quantum_refs)
{
    RAMPAGE_ASSERT(nprocs > 0, "scheduler needs at least one process");
    RAMPAGE_ASSERT(quantum_refs > 0, "quantum must be positive");
}

bool
Scheduler::onRefs(std::uint64_t n)
{
    RAMPAGE_ASSERT(n <= refsUntilQuantum(),
                   "bulk slice accounting overran the quantum");
    refsInSlice += n;
    if (refsInSlice >= quantumRefs) {
        refsInSlice = 0;
        return true;
    }
    return false;
}

bool
Scheduler::ready(std::size_t index, Tick now) const
{
    return blockedUntil[index] <= now;
}

std::size_t
Scheduler::readyCount(Tick now) const
{
    std::size_t count = 0;
    for (Tick until : blockedUntil)
        if (until <= now)
            ++count;
    return count;
}

SchedPick
Scheduler::pickFrom(std::size_t from, Tick now)
{
    std::size_t n = blockedUntil.size();
    for (std::size_t step = 0; step < n; ++step) {
        std::size_t candidate = (from + step) % n;
        if (blockedUntil[candidate] <= now) {
            running = candidate;
            refsInSlice = 0;
            return SchedPick{candidate, now, false};
        }
    }

    // Everyone is blocked: the CPU stalls until the earliest transfer
    // completes, then runs that process.
    std::size_t earliest = 0;
    for (std::size_t i = 1; i < n; ++i)
        if (blockedUntil[i] < blockedUntil[earliest])
            earliest = i;
    Tick resume = blockedUntil[earliest];
    RAMPAGE_ASSERT(resume > now, "stall with a ready process available");
    ++stat.stalls;
    stat.stallTime += resume - now;
    RAMPAGE_DPRINTF(Sched, "stall %llu ps until proc %zu unblocks",
                    static_cast<unsigned long long>(resume - now),
                    earliest);
    running = earliest;
    refsInSlice = 0;
    return SchedPick{earliest, resume, true};
}

SchedPick
Scheduler::rotate(Tick now)
{
    ++stat.quantumSwitches;
    return pickFrom((running + 1) % blockedUntil.size(), now);
}

void
Scheduler::auditState(AuditContext &ctx, Tick now) const
{
    ctx.check(running < blockedUntil.size(), "sched.queue",
              "running index %zu out of range (%zu processes)",
              running, blockedUntil.size());
    if (running < blockedUntil.size())
        ctx.check(blockedUntil[running] <= now, "sched.queue",
                  "running process %zu is blocked until %llu ps "
                  "(now %llu ps)",
                  running,
                  static_cast<unsigned long long>(
                      blockedUntil[running]),
                  static_cast<unsigned long long>(now));
    ctx.check(refsInSlice <= quantumRefs, "sched.queue",
              "slice counter %llu exceeds the %llu-ref quantum",
              static_cast<unsigned long long>(refsInSlice),
              static_cast<unsigned long long>(quantumRefs));
}

bool
Scheduler::corruptBlockRunning(Tick until)
{
    blockedUntil[running] = until;
    return true;
}

SchedPick
Scheduler::blockCurrent(Tick now, Tick until)
{
    blockedUntil[running] = until;
    ++stat.missSwitches;
    RAMPAGE_DPRINTF(Sched, "block proc %zu until %llu ps", running,
                    static_cast<unsigned long long>(until));
    return pickFrom((running + 1) % blockedUntil.size(), now);
}

} // namespace rampage
