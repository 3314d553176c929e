/**
 * @file
 * Fork-boundary serialization for sweep points (--isolate).
 *
 * When SweepRunner isolates a point into a child process, the child's
 * entire result — the PointOutcome, its SimResult with every event
 * counter and the frozen stats snapshot — must cross a pipe and be
 * indistinguishable on the parent side from an in-process run, or the
 * benches' byte-identical-stdout guarantee breaks.  The codec here is
 * therefore exact, not pretty: integers are fixed-width little-endian
 * and doubles travel as their IEEE-754 bit patterns, so re-printing a
 * decoded result produces the same bytes as printing the original.
 *
 * The pipe carries one encoded PointOutcome and nothing else: the
 * parent reads it to EOF and decodes it, so a child that died
 * mid-write leaves a truncated buffer that the decoder rejects.
 */

#ifndef RAMPAGE_CORE_POINT_IPC_HH
#define RAMPAGE_CORE_POINT_IPC_HH

#include <exception>
#include <string>

namespace rampage
{

struct PointOutcome;

/** Serialize an outcome (including any SimResult) to bytes. */
std::string encodePointOutcome(const PointOutcome &outcome);

/**
 * Rebuild an outcome from encodePointOutcome() bytes.
 * @throws InternalError when the buffer is malformed or from a
 *         different codec version (parent and child are the same
 *         binary, so this only fires on pipe corruption).
 */
PointOutcome decodePointOutcome(const std::string &bytes);

/**
 * Rebuild the typed exception a Failed/AuditFailed/TimedOut outcome
 * carried before crossing the fork boundary, so embedders that
 * rethrow (runBlockingSweep) observe the same what() text and catch
 * the same type as they would in-process.  Null for Ok.
 */
std::exception_ptr rebuildPointException(const PointOutcome &outcome);

} // namespace rampage

#endif // RAMPAGE_CORE_POINT_IPC_HH
