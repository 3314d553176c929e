/**
 * @file
 * Cooperative per-point deadline: the cancellation token behind
 * `--point-deadline` / `RAMPAGE_DEADLINE`.
 *
 * SweepRunner arms a wall-clock deadline on the worker thread before
 * running a point body; the simulation driver polls it at the same
 * seam as the reference-count watchdog, once per chunk of up to 4096
 * references, and every poll reads the clock (tens of nanoseconds
 * against a chunk's ~100 microseconds).
 * When the deadline passes, the poll throws `TimeoutError` carrying
 * the references executed at cancel, which SweepRunner records as a
 * `PointStatus::TimedOut` outcome — the point is cancelled, the
 * campaign continues.
 *
 * The token is thread-local: each worker (and each `--isolate` child
 * process) cancels only its own point, and nested/unrelated
 * simulations on other threads are unaffected.
 */

#ifndef RAMPAGE_CORE_DEADLINE_HH
#define RAMPAGE_CORE_DEADLINE_HH

#include <cstdint>

namespace rampage
{

/**
 * Arm the calling thread's point deadline `seconds` of wall-clock
 * time from now (must be positive).  Re-arming replaces the previous
 * deadline.
 */
void armPointDeadline(double seconds);

/** Disarm the calling thread's point deadline (idempotent). */
void disarmPointDeadline();

/** @return true while a deadline is armed on this thread. */
bool pointDeadlineArmed();

/**
 * Per-chunk poll: one branch when disarmed, else one clock read.
 * Throws `TimeoutError` — carrying `refs_executed` — once the armed
 * deadline has passed, and disarms so the unwind cannot re-trip.
 */
void pollPointDeadline(std::uint64_t refs_executed);

} // namespace rampage

#endif // RAMPAGE_CORE_DEADLINE_HH
