/**
 * @file
 * Simulated-time event tracing.
 *
 * A TraceSession collects typed events — L2 misses, page faults, TLB
 * fills and flushes, DRAM transactions, context switches — stamped
 * with *simulated* time, buffered in a bounded ring, and written out
 * as Chrome trace-event JSON that Perfetto loads directly: one track
 * per component (l2 / tlb / pager / dram / sched), durations from the
 * model's own picosecond accounting.
 *
 * Components do not see the session type.  They emit through the
 * RAMPAGE_TRACE_EVENT macro, which loads a thread-local active-session
 * pointer and does nothing when no session is installed — one inline
 * TLS load and a predictable branch on the hot path (no call), and the
 * whole macro compiles away under -DRAMPAGE_NO_OBS.  The Simulator
 * installs the session for the duration of a run (ObsScope) and
 * advances its simulated clock, so emitters never need to know "now".
 * Thread-local installation is what makes tracing compose with --jobs:
 * concurrent sweep workers each trace into their own session and file.
 *
 * Timestamp convention: the Chrome JSON "ts"/"dur" fields carry
 * simulated *nanoseconds* (model picoseconds / 1000, fractional), and
 * the file sets displayTimeUnit "ns".  Tools that assume the Chrome
 * default of microseconds will simply show values 1000x larger — the
 * relative timeline, which is what matters here, is unaffected.
 *
 * The ring keeps the *newest* `capacity` events: once full, each new
 * event overwrites the oldest and increments the drop count, which the
 * Simulator surfaces as `sim.trace.dropped` so a truncated timeline is
 * always visible in the stats. Files are written to "<path>.tmp" and
 * renamed into place, so readers (and crashed --isolate children)
 * never observe a torn trace.
 */

#ifndef RAMPAGE_OBS_TRACE_SESSION_HH
#define RAMPAGE_OBS_TRACE_SESSION_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rampage
{

/** Typed events a component can put on the timeline. */
enum class TraceEventKind : std::uint8_t
{
    L2Miss,        ///< L2 lookup missed (arg: block address)
    PageFault,     ///< pager fault + fetch (arg: virtual page number)
    TlbFill,       ///< TLB insert after a walk (arg: virtual page)
    TlbFlush,      ///< TLB entry invalidated (arg: virtual page)
    ContextSwitch, ///< OS context-switch trace ran (arg: handler refs)
    DramTx,        ///< DRAM transaction (arg: bytes; pid: 1 = write)
    ProcessSwitch, ///< scheduler moved to another process (arg: new pid)
};

/** Number of TraceEventKind values (array sizing). */
constexpr std::size_t traceEventKindCount = 7;

/** Stable lower-case event name ("l2_miss", "page_fault", ...). */
const char *traceEventKindName(TraceEventKind kind);

/**
 * Component track an event renders under in the trace viewer
 * (Chrome "tid" + thread_name metadata).
 */
const char *traceEventTrack(TraceEventKind kind);

/** One timeline event (16-byte payload + timestamps). */
struct TraceEvent
{
    std::uint64_t tsPs = 0;  ///< simulated start time, picoseconds
    std::uint64_t durPs = 0; ///< simulated duration; 0 = instant
    std::uint64_t arg = 0;   ///< kind-specific argument (see enum)
    std::uint16_t pid = 0;   ///< process the event charges
    TraceEventKind kind = TraceEventKind::L2Miss;
};
static_assert(sizeof(TraceEvent) == 32,
              "three u64 fields, a u16 and a u8, padded to 32 bytes");

/**
 * A bounded ring of timeline events for one simulation run, plus the
 * Chrome-JSON writer.  Not thread-safe: one session belongs to one
 * simulating thread (the thread-local installation enforces this).
 */
class TraceSession
{
  public:
    explicit TraceSession(std::size_t capacity);

    /** Advance the simulated clock events are stamped with. */
    void setNow(std::uint64_t now_ps) { nowPs = now_ps; }

    /** Current simulated time (ps). */
    std::uint64_t now() const { return nowPs; }

    /** Record an event starting at the current simulated time. */
    void
    emit(TraceEventKind kind, std::uint64_t dur_ps, std::uint64_t arg,
         std::uint16_t pid)
    {
        TraceEvent event;
        event.tsPs = nowPs;
        event.durPs = dur_ps;
        event.arg = arg;
        event.pid = pid;
        event.kind = kind;
        push(event);
    }

    /** Events emitted over the session's lifetime (kept + dropped). */
    std::uint64_t emitted() const { return emittedCount; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return droppedCount; }

    /** Events currently held (<= capacity). */
    std::size_t size() const { return ring.size(); }

    /** Ring capacity in events. */
    std::size_t capacity() const { return cap; }

    /**
     * Write the retained events as Chrome trace-event JSON via
     * tmp-file + rename.  A filesystem failure is routed through
     * warnOnce naming the file (ErrorCategory::Io convention — the
     * run itself must not fail because telemetry could not land) and
     * reported by returning false.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    void push(const TraceEvent &event);

    std::vector<TraceEvent> ring;
    std::size_t cap;
    std::size_t head = 0; ///< next slot to overwrite once full
    std::uint64_t nowPs = 0;
    std::uint64_t emittedCount = 0;
    std::uint64_t droppedCount = 0;
};

namespace detail
{
/** The calling thread's installed session (see activeTraceSession). */
inline thread_local TraceSession *threadTraceSession = nullptr;
} // namespace detail

/** The calling thread's installed session; nullptr when tracing is off. */
inline TraceSession *
activeTraceSession()
{
    return detail::threadTraceSession;
}

/** Install (or clear, with nullptr) the calling thread's session. */
inline void
setActiveTraceSession(TraceSession *session)
{
    detail::threadTraceSession = session;
}

} // namespace rampage

/**
 * Hot-path emission seam.  Evaluates its arguments only when a session
 * is installed on this thread; compiles to nothing entirely under
 * -DRAMPAGE_NO_OBS.
 */
#ifdef RAMPAGE_NO_OBS
#define RAMPAGE_TRACE_EVENT(kind, dur_ps, arg, pid)                        \
    do {                                                                   \
    } while (0)
#else
#define RAMPAGE_TRACE_EVENT(kind, dur_ps, arg, pid)                        \
    do {                                                                   \
        ::rampage::TraceSession *session_ =                                \
            ::rampage::activeTraceSession();                               \
        if (session_) {                                                    \
            session_->emit(::rampage::TraceEventKind::kind, (dur_ps),      \
                           (arg), (pid));                                  \
        }                                                                  \
    } while (0)
#endif

#endif // RAMPAGE_OBS_TRACE_SESSION_HH
