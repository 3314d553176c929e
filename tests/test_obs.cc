/**
 * @file
 * Tests for the timeline-observability layer: the trace-event ring
 * and its Chrome-trace JSON output, the glob matcher and stats
 * filtering behind --stats-filter, histogram percentile estimates,
 * and the codec fields that carry the timeline file names across the
 * --isolate fork boundary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/point_ipc.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/obs_config.hh"
#include "obs/trace_session.hh"
#include "stats/histogram.hh"
#include "stats/registry.hh"
#include "trace/synthetic.hh"
#include "util/error.hh"
#include "util/glob.hh"
#include "util/json.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

std::vector<std::unique_ptr<TraceSource>>
tinyWorkload(int programs = 3)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (int i = 0; i < programs; ++i) {
        ProgramProfile profile;
        profile.name = "tiny" + std::to_string(i);
        profile.seed = 100 + i;
        profile.heapBytes = 256 * kib;
        sources.push_back(std::make_unique<SyntheticProgram>(
            profile, static_cast<Pid>(i)));
    }
    return sources;
}

SimConfig
tinySim(std::uint64_t refs = 60'000, std::uint64_t quantum = 10'000)
{
    SimConfig sim;
    sim.maxRefs = refs;
    sim.quantumRefs = quantum;
    return sim;
}

std::string
tempPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "/rampage_obs_" + tag;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// --- glob ------------------------------------------------------------

TEST(Glob, MatchesLiteralAndWildcards)
{
    EXPECT_TRUE(globMatch("tlb.misses", "tlb.misses"));
    EXPECT_FALSE(globMatch("tlb.misses", "tlb.hits"));
    EXPECT_TRUE(globMatch("tlb.*", "tlb.misses"));
    EXPECT_FALSE(globMatch("tlb.*", "l2.misses"));
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
    EXPECT_TRUE(globMatch("l?.misses", "l2.misses"));
    EXPECT_FALSE(globMatch("l?.misses", "l2a.misses"));
    EXPECT_FALSE(globMatch("?", ""));
}

TEST(Glob, StarBacktracks)
{
    // The first '*' must be able to give characters back so the later
    // literal and '*' still match.
    EXPECT_TRUE(globMatch("a*b*c", "aXbXbXc"));
    EXPECT_TRUE(globMatch("*misses", "dram.tx.misses"));
    EXPECT_FALSE(globMatch("a*b*c", "aXbXbX"));
    EXPECT_TRUE(globMatch("a**b", "ab"));
}

TEST(StatsSnapshot, FilterKeepsMatchingEntriesInOrder)
{
    StatsSnapshot snap;
    snap.addCounter("tlb.misses", "", 7);
    snap.addCounter("l2.misses", "", 9);
    snap.addCounter("tlb.fills", "", 3);
    StatsSnapshot tlb = snap.filter("tlb.*");
    ASSERT_EQ(tlb.entries().size(), 2u);
    EXPECT_EQ(tlb.entries()[0].name, "tlb.misses");
    EXPECT_EQ(tlb.entries()[1].name, "tlb.fills");
    EXPECT_TRUE(snap.filter("nothing.*").empty());
}

// --- histogram percentiles ------------------------------------------

TEST(Histogram, Log2BucketPercentileUpperBounds)
{
    // 4 samples in bucket 1 (upper bound 3), 4 in bucket 3 (upper 15).
    std::vector<std::uint64_t> buckets{0, 4, 0, 4};
    EXPECT_EQ(log2BucketsPercentile(buckets, 0.50), 3u);
    EXPECT_EQ(log2BucketsPercentile(buckets, 0.95), 15u);
    EXPECT_EQ(log2BucketsPercentile(buckets, 0.99), 15u);
    EXPECT_EQ(log2BucketsPercentile({}, 0.5), 0u);
}

TEST(Histogram, JsonCarriesPercentilesAndCount)
{
    Log2Histogram hist;
    for (std::uint64_t v = 1; v <= 100; ++v)
        hist.add(v);
    StatsRegistry reg;
    reg.addHistogram("dram.tx_bytes", "test histogram", &hist);
    JsonValue doc = reg.snapshot().toJson();
    const JsonValue &entry = doc.at("dram.tx_bytes");
    ASSERT_TRUE(entry.isObject());
    EXPECT_EQ(entry.at("count").asInt(), 100);
    EXPECT_EQ(entry.at("samples").asInt(), 100);
    EXPECT_EQ(entry.at("sum").asInt(), 5050);
    EXPECT_DOUBLE_EQ(entry.at("mean").asDouble(), 50.5);
    // Percentile estimates are log2 bucket upper bounds, so they can
    // only round up relative to the exact value.
    EXPECT_GE(entry.at("p50").asInt(), 50);
    EXPECT_GE(entry.at("p95").asInt(), 95);
    EXPECT_GE(entry.at("p99").asInt(), 99);
    EXPECT_LE(entry.at("p99").asInt(), 127);
}

// --- trace ring ------------------------------------------------------

TEST(TraceSession, RingOverflowCountsDrops)
{
    TraceSession session(4);
    session.setNow(1000);
    for (std::uint64_t i = 0; i < 10; ++i)
        session.emit(TraceEventKind::L2Miss, 0, i, 0);
    EXPECT_EQ(session.emitted(), 10u);
    EXPECT_EQ(session.dropped(), 6u);
    EXPECT_EQ(session.size(), 4u);
    EXPECT_EQ(session.capacity(), 4u);
}

TEST(TraceSession, WritesWellFormedChromeTrace)
{
    TraceSession session(64);
    session.setNow(2'000'000); // 2 us simulated
    session.emit(TraceEventKind::L2Miss, 0, 0xdead, 1);
    session.emit(TraceEventKind::PageFault, 500'000, 42, 1);
    session.setNow(3'000'000);
    session.emit(TraceEventKind::DramTx, 0, 4096, 1);

    std::string path = tempPath("chrome.trace.json");
    ASSERT_TRUE(session.writeChromeTrace(path));

    JsonValue doc = JsonValue::parse(readFile(path));
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ns");
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // 6 metadata events (process name + 5 tracks) + 3 events.
    ASSERT_EQ(events.size(), 9u);
    std::size_t complete = 0, instant = 0, metadata = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::string &ph = events.at(i).at("ph").asString();
        if (ph == "M")
            ++metadata;
        else if (ph == "X")
            ++complete;
        else if (ph == "i")
            ++instant;
    }
    EXPECT_EQ(metadata, 6u);
    EXPECT_EQ(complete, 1u); // only the fault had a duration
    EXPECT_EQ(instant, 2u);
    EXPECT_EQ(doc.at("otherData").at("emitted").asInt(), 3);
    EXPECT_EQ(doc.at("otherData").at("dropped").asInt(), 0);
}

TEST(TraceSession, WritesEventsInStableTimestampOrder)
{
    // Cores emit on their own clocks; the file is time-ordered, with
    // emission order kept among equal timestamps — also after the
    // ring wrapped.
    TraceSession session(4);
    const std::uint64_t stamps[] = {9, 5, 7, 5, 3};
    for (std::size_t i = 0; i < std::size(stamps); ++i) {
        session.setNow(stamps[i] * 1000);
        session.emit(TraceEventKind::TlbFill, 0, i, 0);
    }
    std::string path = tempPath("ordered.trace.json");
    ASSERT_TRUE(session.writeChromeTrace(path));
    JsonValue doc = JsonValue::parse(readFile(path));
    const JsonValue &events = doc.at("traceEvents");
    std::vector<std::int64_t> values;
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events.at(i).at("ph").asString() != "M")
            values.push_back(
                events.at(i).at("args").at("value").asInt());
    // The first event was overwritten; 3 ns, then the two 5 ns events
    // in emission order, then 7 ns.
    EXPECT_EQ(values, (std::vector<std::int64_t>{4, 1, 3, 2}));
    std::remove(path.c_str());
}

// --- writer text against printf ---------------------------------------

/** The tid the writer gives a kind's track. */
int
referenceTid(TraceEventKind kind)
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
 * The file the writer must produce for `events` (already in file
 * order), every field formatted by printf with "%.3f" nanoseconds.
 */
std::string
printfChromeTrace(const std::vector<TraceEvent> &events,
                  std::uint64_t emitted, std::uint64_t dropped)
{
    std::string text = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
                       "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                       "\"name\":\"process_name\","
                       "\"args\":{\"name\":\"rampage-sim\"}}";
    char line[512];
    const TraceEventKind track_kinds[] = {
        TraceEventKind::L2Miss, TraceEventKind::TlbFill,
        TraceEventKind::PageFault, TraceEventKind::DramTx,
        TraceEventKind::ProcessSwitch};
    for (TraceEventKind kind : track_kinds) {
        std::snprintf(line, sizeof(line),
                      ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                      "\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"%s\"}}",
                      referenceTid(kind), traceEventTrack(kind));
        text += line;
    }
    for (const TraceEvent &event : events) {
        double ts_ns = static_cast<double>(event.tsPs) / 1000.0;
        if (event.durPs > 0) {
            double dur_ns = static_cast<double>(event.durPs) / 1000.0;
            std::snprintf(line, sizeof(line),
                          ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\","
                          "\"cat\":\"%s\",\"args\":{\"proc\":%u,"
                          "\"value\":%llu}}",
                          referenceTid(event.kind), ts_ns, dur_ns,
                          traceEventKindName(event.kind),
                          traceEventTrack(event.kind),
                          static_cast<unsigned>(event.pid),
                          static_cast<unsigned long long>(event.arg));
        } else {
            std::snprintf(line, sizeof(line),
                          ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                          "\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\","
                          "\"cat\":\"%s\",\"args\":{\"proc\":%u,"
                          "\"value\":%llu}}",
                          referenceTid(event.kind), ts_ns,
                          traceEventKindName(event.kind),
                          traceEventTrack(event.kind),
                          static_cast<unsigned>(event.pid),
                          static_cast<unsigned long long>(event.arg));
        }
        text += line;
    }
    std::snprintf(line, sizeof(line),
                  "\n],\"otherData\":{\"emitted\":%llu,"
                  "\"dropped\":%llu}}\n",
                  static_cast<unsigned long long>(emitted),
                  static_cast<unsigned long long>(dropped));
    return text + line;
}

/** Picosecond values at the edges of the integer formatter. */
const std::uint64_t writerEdgePs[] = {0,
                                      1,
                                      999,
                                      1000,
                                      123456789,
                                      (std::uint64_t{1} << 52) - 1,
                                      std::uint64_t{1} << 52,
                                      ~std::uint64_t{0}};

TEST(TraceSession, WriterMatchesPrintfAtEveryEdge)
{
    // Every ts with every dur: dur 0 is an instant ("i") event, the
    // rest are complete ("X") events.  Timestamps never step back, so
    // the ring is written in emission order.
    TraceSession session(256);
    std::vector<TraceEvent> events;
    std::uint64_t arg = 0;
    for (std::uint64_t ts : writerEdgePs) {
        for (std::uint64_t dur : writerEdgePs) {
            auto kind = static_cast<TraceEventKind>(
                arg % traceEventKindCount);
            auto pid = static_cast<std::uint16_t>(arg * 4099);
            session.setNow(ts);
            session.emit(kind, dur, ~arg, pid);
            events.push_back({ts, dur, ~arg, pid, kind});
            ++arg;
        }
    }
    std::string path = tempPath("edges.trace.json");
    ASSERT_TRUE(session.writeChromeTrace(path));
    EXPECT_EQ(readFile(path), printfChromeTrace(events, 64, 0));
    std::remove(path.c_str());
}

TEST(TraceSession, WriterMatchesPrintfOnAWrappedMulticoreRing)
{
    // Four cores' clocks interleave, so emission order steps back in
    // time and the writer takes its stable-sort path; the ring also
    // wraps, dropping the oldest events.
    TraceSession session(40);
    std::vector<TraceEvent> emitted;
    for (std::size_t i = 0; i < 64; ++i) {
        std::uint64_t ts = writerEdgePs[(i * 5) % 8] ^ (i % 4);
        std::uint64_t dur = writerEdgePs[(i * 3) % 8];
        auto kind = static_cast<TraceEventKind>(i % traceEventKindCount);
        auto pid = static_cast<std::uint16_t>(i % 4);
        session.setNow(ts);
        session.emit(kind, dur, i, pid);
        emitted.push_back({ts, dur, i, pid, kind});
    }
    std::vector<TraceEvent> kept(emitted.end() - 40, emitted.end());
    std::stable_sort(kept.begin(), kept.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tsPs < b.tsPs;
                     });
    std::string path = tempPath("wrapped.trace.json");
    ASSERT_TRUE(session.writeChromeTrace(path));
    EXPECT_EQ(readFile(path), printfChromeTrace(kept, 64, 24));
    std::remove(path.c_str());
}

TEST(TraceSession, WriterMatchesPrintfAcrossBlockBoundaries)
{
    // Enough events to fill the writer's buffer several times over,
    // at timestamps spread over the whole integer-formatted range.
    TraceSession session(8192);
    std::vector<TraceEvent> events;
    std::uint64_t ps = 0;
    for (std::uint64_t i = 0; i < 8192; ++i) {
        ps += 1 + (i * 2654435761ull) % (std::uint64_t{1} << 40);
        std::uint64_t dur = i % 3 == 0 ? 0 : (i * 40503) % 100003;
        auto kind = static_cast<TraceEventKind>(i % traceEventKindCount);
        session.setNow(ps);
        session.emit(kind, dur, i, 0);
        events.push_back({ps, dur, i, 0, kind});
    }
    std::string path = tempPath("blocks.trace.json");
    ASSERT_TRUE(session.writeChromeTrace(path));
    EXPECT_EQ(readFile(path), printfChromeTrace(events, 8192, 0));
    std::remove(path.c_str());
}

TEST(TraceSession, WriteFailureReturnsFalse)
{
    TraceSession session(4);
    session.setNow(1);
    session.emit(TraceEventKind::TlbFill, 0, 1, 0);
    EXPECT_FALSE(session.writeChromeTrace(
        std::string(::testing::TempDir()) +
        "/no_such_dir_rampage/trace.json"));
}

// --- per-run file naming --------------------------------------------

TEST(ObsConfig, RunFilePathUsesSanitizedThreadLabel)
{
    ObsPointLabelScope label("rampage/4KB");
    EXPECT_EQ(obsRunFilePath("out/fig", obsRunLabel(), ".trace.json"),
              "out/fig.rampage_4KB.trace.json");
}

TEST(ObsConfig, RunFilePathFallsBackToSequenceNumber)
{
    std::string a = obsRunFilePath("base", obsRunLabel(), ".x");
    std::string b = obsRunFilePath("base", obsRunLabel(), ".x");
    EXPECT_NE(a, b);
    EXPECT_EQ(a.find("base.run"), 0u);
}

TEST(ObsConfig, UnlabelledRunFilesShareOneStem)
{
    // One sequence number per run: the trace and interval files of an
    // unlabelled run differ only in their suffix.
    auto hier = makeHierarchy(rampageConfig(oneGhz, 4 * kib));
    SimConfig sim = tinySim();
    sim.traceOutBase = tempPath("stem");
    sim.statsIntervalRefs = 7'000;
    sim.intervalOutBase = sim.traceOutBase;
    SimResult result = Simulator(*hier, tinyWorkload(), sim).run();
    const std::string trace_suffix = ".trace.json";
    const std::string interval_suffix = ".intervals.jsonl";
    ASSERT_GT(result.traceFile.size(), trace_suffix.size());
    ASSERT_GT(result.intervalFile.size(), interval_suffix.size());
    EXPECT_EQ(result.traceFile.substr(0, result.traceFile.size() -
                                             trace_suffix.size()),
              result.intervalFile.substr(0, result.intervalFile.size() -
                                                interval_suffix.size()));
    std::remove(result.traceFile.c_str());
    std::remove(result.intervalFile.c_str());
}

TEST(ObsConfig, StrictIntervalParsing)
{
    EXPECT_EQ(parseStatsInterval("50000"), 50'000u);
    EXPECT_THROW(parseStatsInterval("0"), ConfigError);
    EXPECT_THROW(parseStatsInterval("-3"), ConfigError);
    EXPECT_THROW(parseStatsInterval("12junk"), ConfigError);
    EXPECT_THROW(parseStatsInterval(""), ConfigError);
    EXPECT_THROW(parseTraceRingCapacity("0"), ConfigError);
}

// --- simulation integration -----------------------------------------

TEST(ObsSimulation, TracedRunReportsEventsAndDrops)
{
    auto hier = makeHierarchy(rampageConfig(oneGhz, 4 * kib));
    SimConfig sim = tinySim();
    sim.traceOutBase = tempPath("dropped");
    sim.traceRingCapacity = 16; // force overwrites
    Simulator simulator(*hier, tinyWorkload(), sim);
    SimResult result = simulator.run();

    const StatsSnapshot::Entry *events =
        result.stats.find("sim.trace.events");
    const StatsSnapshot::Entry *dropped =
        result.stats.find("sim.trace.dropped");
    ASSERT_NE(events, nullptr);
    ASSERT_NE(dropped, nullptr);
    EXPECT_GT(events->counter, 16u);
    EXPECT_GT(dropped->counter, 0u);

    ASSERT_FALSE(result.traceFile.empty());
    JsonValue doc = JsonValue::parse(readFile(result.traceFile));
    EXPECT_EQ(static_cast<std::uint64_t>(
                  doc.at("otherData").at("dropped").asInt()),
              dropped->counter);
    std::remove(result.traceFile.c_str());
}

TEST(ObsSimulation, TracingDoesNotPerturbTheModel)
{
    auto baseline = [](SimConfig sim) {
        auto hier = makeHierarchy(rampageConfig(oneGhz, 4 * kib));
        Simulator simulator(*hier, tinyWorkload(), sim);
        return simulator.run();
    };
    SimResult plain = baseline(tinySim());

    SimConfig traced_cfg = tinySim();
    traced_cfg.traceOutBase = tempPath("identity");
    traced_cfg.statsIntervalRefs = 7'000;
    SimResult traced = baseline(traced_cfg);

    EXPECT_EQ(plain.elapsedPs, traced.elapsedPs);
    EXPECT_EQ(plain.counts.dramReads, traced.counts.dramReads);
    EXPECT_EQ(plain.counts.tlbMisses, traced.counts.tlbMisses);

    // Every model stat must be identical; only the sim.trace.* /
    // sim.interval.* bookkeeping entries may be new.
    for (const StatsSnapshot::Entry &entry : plain.stats.entries()) {
        const StatsSnapshot::Entry *other =
            traced.stats.find(entry.name);
        ASSERT_NE(other, nullptr) << entry.name;
        EXPECT_EQ(entry.counter, other->counter) << entry.name;
        EXPECT_EQ(entry.value, other->value) << entry.name;
        EXPECT_EQ(entry.buckets, other->buckets) << entry.name;
    }
    for (const StatsSnapshot::Entry &entry : traced.stats.entries()) {
        if (!plain.stats.find(entry.name)) {
            EXPECT_TRUE(entry.name.rfind("sim.trace.", 0) == 0 ||
                        entry.name.rfind("sim.interval.", 0) == 0)
                << entry.name;
        }
    }
    std::remove(traced.traceFile.c_str());
    std::remove(traced.intervalFile.c_str());
}

TEST(ObsSimulation, ThrownRunClearsTheHierarchySession)
{
    // An injected fault caught by a paranoid audit throws out of a
    // traced run; the session it leaves behind is freed, so the
    // hierarchy must not keep pointing at it.
    auto hier = makeHierarchy(rampageConfig(oneGhz, 4 * kib));
    SimConfig sim = tinySim();
    sim.traceOutBase = tempPath("thrown");
    sim.auditLevel = AuditLevel::Paranoid;
    sim.faultPlan = "ipt-unlink";
    Simulator simulator(*hier, tinyWorkload(), sim);
    EXPECT_THROW(simulator.run(), AuditError);
    EXPECT_EQ(hier->trace, nullptr);
}

// --- fork-boundary codec --------------------------------------------

TEST(PointIpc, RoundTripsTimelineFiles)
{
    PointOutcome outcome;
    outcome.id = "rampage/4KB";
    outcome.status = PointStatus::Ok;
    outcome.wallSeconds = 1.5;
    outcome.haveResult = true;
    outcome.result.systemName = "RAMpage";
    outcome.result.issueHz = oneGhz;
    outcome.result.elapsedPs = 123'456'789;
    outcome.result.traceFile = "out/fig.rampage_4KB.trace.json";
    outcome.result.intervalFile = "out/fig.rampage_4KB.intervals.jsonl";

    PointOutcome back =
        decodePointOutcome(encodePointOutcome(outcome));
    EXPECT_EQ(back.id, outcome.id);
    EXPECT_EQ(back.result.traceFile, outcome.result.traceFile);
    EXPECT_EQ(back.result.intervalFile, outcome.result.intervalFile);
    EXPECT_EQ(back.result.elapsedPs, outcome.result.elapsedPs);
    EXPECT_DOUBLE_EQ(back.wallSeconds, outcome.wallSeconds);
}

} // namespace
} // namespace rampage
