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
 * The pipe carries framed records: one tag byte, a 4-byte
 * little-endian payload length, then the payload.
 *   - 'R' records are single debug-ring events, streamed by the
 *     child's fatal-signal handler (debugRingWriteFramed) so a crash
 *     still ships its post-mortem tail;
 *   - 'O' carries one encoded PointOutcome — the child's last word.
 * A truncated final record (the child died mid-write) is reported,
 * not an error: the parent keeps every complete record before it.
 */

#ifndef RAMPAGE_CORE_POINT_IPC_HH
#define RAMPAGE_CORE_POINT_IPC_HH

#include <exception>
#include <string>
#include <vector>

namespace rampage
{

struct PointOutcome;

/** Record tags on the --isolate outcome pipe. */
constexpr char pointIpcRingTag = 'R';
constexpr char pointIpcOutcomeTag = 'O';

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

/** Write one framed record; false on short write (EPIPE, ENOSPC). */
bool writeFramedRecord(int fd, char tag, const std::string &payload);

/** One record recovered from the child's pipe stream. */
struct FramedRecord
{
    char tag = 0;
    std::string payload;
};

/**
 * Split a drained pipe stream into complete records.  `torn` is set
 * when trailing bytes form only a partial record — the signature of a
 * child killed mid-write; complete records before it are kept.
 */
std::vector<FramedRecord> parseFramedRecords(const std::string &bytes,
                                             bool &torn);

} // namespace rampage

#endif // RAMPAGE_CORE_POINT_IPC_HH
