#include "obs/trace_session.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "util/logging.hh"

namespace rampage
{

namespace
{

/**
 * Chrome "tid" for a track.  Stable small integers so event order in
 * the viewer matches the memory hierarchy top-down.
 */
unsigned
trackId(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::L2Miss:
        return 1;
      case TraceEventKind::TlbFill:
      case TraceEventKind::TlbFlush:
        return 2;
      case TraceEventKind::PageFault:
        return 3;
      case TraceEventKind::DramTx:
        return 4;
      case TraceEventKind::ContextSwitch:
      case TraceEventKind::ProcessSwitch:
        return 5;
    }
    return 0;
}

/**
 * Text bound for a FILE, gathered in an 8 KB buffer on the stack and
 * written a block at a time.  Numbers are formatted as integers,
 * never through printf.
 */
class BlockWriter
{
  public:
    explicit BlockWriter(std::FILE *file) : out(file) {}

    void put(const char *text) { append(text, std::strlen(text)); }

    void
    putUint(std::uint64_t value)
    {
        char digits[20];
        char *end = digits + sizeof(digits);
        char *p = end;
        do {
            *--p = static_cast<char>('0' + value % 10);
            value /= 10;
        } while (value != 0);
        append(p, static_cast<std::size_t>(end - p));
    }

    /**
     * Picoseconds as nanoseconds with three decimals: the text
     * `fprintf("%.3f", ps / 1000.0)` writes.  Below 2^52 ps the one
     * rounding of that division errs by under 0.0005, so the integer
     * quotient and three-digit remainder are exactly what printf
     * prints; at or above it snprintf formats the double.
     */
    void
    putNs(std::uint64_t ps)
    {
        if (ps >= (std::uint64_t{1} << 52)) {
            char text[32];
            std::snprintf(text, sizeof(text), "%.3f",
                          static_cast<double>(ps) / 1000.0);
            put(text);
            return;
        }
        putUint(ps / 1000);
        unsigned frac = static_cast<unsigned>(ps % 1000);
        char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                          static_cast<char>('0' + frac / 10 % 10),
                          static_cast<char>('0' + frac % 10)};
        append(digits, sizeof(digits));
    }

    void
    flush()
    {
        if (used != 0)
            std::fwrite(buf, 1, used, out);
        used = 0;
    }

  private:
    void
    append(const char *text, std::size_t len)
    {
        if (len > sizeof(buf) - used) {
            flush();
            if (len > sizeof(buf)) {
                std::fwrite(text, 1, len, out);
                return;
            }
        }
        std::memcpy(buf + used, text, len);
        used += len;
    }

    std::FILE *out;
    std::size_t used = 0;
    char buf[8192];
};

} // namespace

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::L2Miss:
        return "l2_miss";
      case TraceEventKind::PageFault:
        return "page_fault";
      case TraceEventKind::TlbFill:
        return "tlb_fill";
      case TraceEventKind::TlbFlush:
        return "tlb_flush";
      case TraceEventKind::ContextSwitch:
        return "context_switch";
      case TraceEventKind::DramTx:
        return "dram_tx";
      case TraceEventKind::ProcessSwitch:
        return "process_switch";
    }
    return "unknown";
}

const char *
traceEventTrack(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::L2Miss:
        return "l2";
      case TraceEventKind::TlbFill:
      case TraceEventKind::TlbFlush:
        return "tlb";
      case TraceEventKind::PageFault:
        return "pager";
      case TraceEventKind::DramTx:
        return "dram";
      case TraceEventKind::ContextSwitch:
      case TraceEventKind::ProcessSwitch:
        return "sched";
    }
    return "unknown";
}

TraceSession::TraceSession(std::size_t capacity)
    : cap(capacity ? capacity : 1)
{
}

void
TraceSession::push(const TraceEvent &event)
{
    ++emittedCount;
    if (ring.size() < cap) {
        ring.push_back(event);
        return;
    }
    // Full: overwrite the oldest so the tail of the run survives, and
    // account for the loss.
    ring[head] = event;
    head = (head + 1) % cap;
    ++droppedCount;
}

bool
TraceSession::writeChromeTrace(const std::string &path) const
{
    std::string tmp = path + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "w");
    if (!out) {
        warnOnce("trace: cannot open '%s': %s — timeline lost [io]",
                 tmp.c_str(), std::strerror(errno));
        return false;
    }

    BlockWriter text(out);
    text.put("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");

    // Metadata events name the process and the per-component tracks.
    text.put("{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
             "\"name\":\"process_name\","
             "\"args\":{\"name\":\"rampage-sim\"}}");
    const TraceEventKind track_kinds[] = {
        TraceEventKind::L2Miss, TraceEventKind::TlbFill,
        TraceEventKind::PageFault, TraceEventKind::DramTx,
        TraceEventKind::ProcessSwitch};
    for (TraceEventKind kind : track_kinds) {
        text.put(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
        text.putUint(trackId(kind));
        text.put(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        text.put(traceEventTrack(kind));
        text.put("\"}}");
    }

    // Ring order: oldest first.  Before wrap the ring is ring[0..n);
    // after wrap the oldest retained event sits at `head`.
    std::size_t n = ring.size();
    auto emitted_at = [&](std::size_t i) -> const TraceEvent & {
        return ring[(n == cap) ? (head + i) % cap : i];
    };
    // Several cores emit on their own clocks, so emission order can
    // step back in time; write those in stable timestamp order.  A
    // single-core ring is already ordered and is written as is.
    std::vector<std::size_t> order;
    for (std::size_t i = 1; i < n; ++i) {
        if (emitted_at(i).tsPs < emitted_at(i - 1).tsPs) {
            order.resize(n);
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t x, std::size_t y) {
                                 return emitted_at(x).tsPs <
                                        emitted_at(y).tsPs;
                             });
            break;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent &event =
            emitted_at(order.empty() ? i : order[i]);
        if (event.durPs > 0) {
            text.put(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":");
            text.putUint(trackId(event.kind));
            text.put(",\"ts\":");
            text.putNs(event.tsPs);
            text.put(",\"dur\":");
            text.putNs(event.durPs);
        } else {
            text.put(",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                     "\"tid\":");
            text.putUint(trackId(event.kind));
            text.put(",\"ts\":");
            text.putNs(event.tsPs);
        }
        text.put(",\"name\":\"");
        text.put(traceEventKindName(event.kind));
        text.put("\",\"cat\":\"");
        text.put(traceEventTrack(event.kind));
        text.put("\",\"args\":{\"proc\":");
        text.putUint(event.pid);
        text.put(",\"value\":");
        text.putUint(event.arg);
        text.put("}}");
    }

    text.put("\n],\"otherData\":{\"emitted\":");
    text.putUint(emittedCount);
    text.put(",\"dropped\":");
    text.putUint(droppedCount);
    text.put("}}\n");
    text.flush();

    bool write_failed = std::ferror(out) != 0;
    if (std::fclose(out) != 0)
        write_failed = true;
    if (write_failed) {
        warnOnce("trace: write to '%s' failed: %s — timeline lost [io]",
                 tmp.c_str(), std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warnOnce("trace: cannot rename '%s' into place: %s — timeline "
                 "lost [io]",
                 path.c_str(), std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace rampage
