#include "obs/trace_session.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "util/logging.hh"

namespace rampage
{

namespace
{

/**
 * Chrome "tid" for a track.  Stable small integers so event order in
 * the viewer matches the memory hierarchy top-down.
 */
int
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
    ring.reserve(cap < 4096 ? cap : 4096);
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

    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);

    // Metadata events name the process and the per-component tracks.
    std::fputs("{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"name\":\"process_name\","
               "\"args\":{\"name\":\"rampage-sim\"}}",
               out);
    const TraceEventKind track_kinds[] = {
        TraceEventKind::L2Miss, TraceEventKind::TlbFill,
        TraceEventKind::PageFault, TraceEventKind::DramTx,
        TraceEventKind::ProcessSwitch};
    for (TraceEventKind kind : track_kinds) {
        std::fprintf(out,
                     ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"%s\"}}",
                     trackId(kind), traceEventTrack(kind));
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
        double ts_ns = static_cast<double>(event.tsPs) / 1000.0;
        if (event.durPs > 0) {
            double dur_ns = static_cast<double>(event.durPs) / 1000.0;
            std::fprintf(out,
                         ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\","
                         "\"cat\":\"%s\",\"args\":{\"proc\":%u,"
                         "\"value\":%llu}}",
                         trackId(event.kind), ts_ns, dur_ns,
                         traceEventKindName(event.kind),
                         traceEventTrack(event.kind),
                         static_cast<unsigned>(event.pid),
                         static_cast<unsigned long long>(event.arg));
        } else {
            std::fprintf(out,
                         ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\","
                         "\"cat\":\"%s\",\"args\":{\"proc\":%u,"
                         "\"value\":%llu}}",
                         trackId(event.kind), ts_ns,
                         traceEventKindName(event.kind),
                         traceEventTrack(event.kind),
                         static_cast<unsigned>(event.pid),
                         static_cast<unsigned long long>(event.arg));
        }
    }

    std::fprintf(out,
                 "\n],\"otherData\":{\"emitted\":%llu,"
                 "\"dropped\":%llu}}\n",
                 static_cast<unsigned long long>(emittedCount),
                 static_cast<unsigned long long>(droppedCount));

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
