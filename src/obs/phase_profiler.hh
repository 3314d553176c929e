/**
 * @file
 * Host-side phase profiling for the sweep pipeline's bookkeeping.
 *
 * Scoped wall-clock timers attribute the host time a campaign spends
 * around its simulations — integrity audits, checkpoint-manifest I/O
 * and the --isolate IPC round-trip — so a slow campaign shows which
 * overhead to switch off.  Simulator throughput itself is measured
 * from outside the simulator by perf/ (perf/README.md), never here.
 *
 * Two accumulators run in parallel:
 *  - a thread-local one, reset at the start of each sweep-point
 *    attempt and harvested into that point's outcome
 *    (PointOutcome::phaseSeconds), which survives the --isolate pipe;
 *  - a process-global one (atomic nanosecond counters) feeding the
 *    sweep heartbeat's "host phases" line.
 *
 * Profiling is always on: a steady_clock read pair per phase is
 * nanoseconds against the milliseconds-to-seconds phases it brackets,
 * and everything lands on stderr, so golden stdout and every --json
 * report are untouched.
 */

#ifndef RAMPAGE_OBS_PHASE_PROFILER_HH
#define RAMPAGE_OBS_PHASE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace rampage
{

/** The sweep-pipeline phases host time is attributed to. */
enum class SweepPhase : std::uint8_t
{
    Audit,      ///< model-integrity audits
    Checkpoint, ///< checkpoint-manifest load/append
    Ipc,        ///< --isolate pipe encode/drain/decode
};

/** Number of SweepPhase values (array sizing). */
constexpr std::size_t sweepPhaseCount = 3;

/** Stable snake_case phase name ("audit", "checkpoint", "ipc"). */
const char *sweepPhaseName(SweepPhase phase);

/** Per-phase wall-clock totals, seconds, indexed by SweepPhase. */
using PhaseSeconds = std::array<double, sweepPhaseCount>;

/** Charge `seconds` of wall-clock to a phase (thread + global). */
void phaseRecord(SweepPhase phase, double seconds);

/** This thread's accumulated phase totals since phaseThreadReset(). */
PhaseSeconds phaseThreadTotals();

/** Zero this thread's accumulator (sweep does this per attempt). */
void phaseThreadReset();

/**
 * Merge a harvested per-point total back into the process-global
 * accumulator — how the parent credits work a forked --isolate child
 * measured on the far side of the pipe.
 */
void phaseGlobalAdd(const PhaseSeconds &seconds);

/**
 * One-line human summary of the global totals for the sweep heartbeat:
 * "audit 0.8s, checkpoint 0.1s, ipc 0.3s".  Phases with no
 * time recorded are omitted; "" when nothing has been recorded.
 */
std::string phaseGlobalSummary();

/** RAII timer: charges its scope's wall-clock to one phase. */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(SweepPhase phase)
        : ph(phase), start(std::chrono::steady_clock::now())
    {
    }

    ~ScopedPhaseTimer()
    {
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        phaseRecord(ph, elapsed.count());
    }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

  private:
    SweepPhase ph;
    std::chrono::steady_clock::time_point start;
};

} // namespace rampage

#endif // RAMPAGE_OBS_PHASE_PROFILER_HH
