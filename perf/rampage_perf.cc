/**
 * @file
 * Host-performance benchmark of the simulator: how many benchmark
 * references per host second Simulator::run() sustains on four
 * workloads chosen to stress different layers, how long set-up takes,
 * how much memory a run needs, and — in a separate traced run — where
 * the host time goes.
 *
 * Usage (perf/run.sh builds this binary and passes the paths):
 *
 *   rampage_perf --workload <name> [--seed <n>] [--seconds <s>]
 *                [--trace 0|1] [--refs <n>] [--expected <file>]
 *                [--out-dir <dir>] [--report <file>] [--commit <sha>]
 *   rampage_perf --self-check [--workload <name>] [--refs <n>] ...
 *   rampage_perf --list
 *
 * Every invocation is one closed loop on one thread: an untimed
 * warm-up rep, then reps back to back until `--seconds` of measuring
 * have passed, each after ten set-ups without a run.  A set-up is
 * makeHierarchy, makeWorkload and the Simulator constructor; the
 * warm-up's is the cold one.  A rep sets up and runs from empty
 * caches, so the reported statistics include the modelled warm-up.
 * The seed salts the synthetic workload; the program sees only the
 * references it generates.
 *
 * Every rep is checked: it must not throw, it must conserve references
 * (and, for single-core blocking runs, simulated time), and the crc32
 * of its full stats dump must match every other rep and, when
 * `--expected` lists one for this workload, seed and length, the
 * committed value.
 *
 * With `--trace 1` the reps after the untraced ones wrap every trace
 * source in a TimedSource, which records `trace.fill` spans around each
 * fill() and `core.interval` spans between fills carrying the event
 * count deltas read at each boundary.  A non-negative least-squares fit
 * of interval self time on those deltas splits the simulate time into
 * per-event costs.  The first traced rep's spans are written as Chrome
 * trace-event JSON to `<out-dir>/<workload>.spans.json` at the end.
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics with
 * `--trace 0`, the per-layer metrics with `--trace 1`.
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "core/cost_model.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/obs_config.hh"
#include "trace/benchmarks.hh"
#include "util/crc32.hh"
#include "util/error.hh"
#include "util/json.hh"

using namespace rampage;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Issue rate of every workload: the paper's 1 GHz design point. */
constexpr std::uint64_t issueHz = 1'000'000'000;

/** The default scale of the paper benches (§4.2 scaled down). */
constexpr std::uint64_t defaultRefs = 24'000'000;
constexpr std::uint64_t quantumRefs = 120'000;

/** Interval-stats epoch length of the observed workload. */
constexpr std::uint64_t observedIntervalRefs = 1'000'000;

/**
 * Set-ups without a run before each untraced rep.  A set-up takes tens
 * of microseconds, so these cost almost nothing and give the set-up
 * median hundreds of samples.
 */
constexpr int setupsPerRep = 10;

struct Workload
{
    const char *name;
    HierarchyConfig config;
    /** Timeline tracing and interval stats on: the per-reference loop. */
    bool observed = false;
};

/**
 * The four workloads.  Why each was chosen:
 *  - baseline-1KB: the hot path.  About half the wall is trace
 *    generation, the rest is the L1 probe and translation cache; TLB
 *    misses are rare and paging never runs.
 *  - rampage-128B: the miss path.  The TLB reaches only 8 KB, so one
 *    reference in ~40 takes a TLB miss with its IPT walk and handler
 *    trace, and page faults, replacement and DRAM pricing all run.
 *  - rampage-1KB-som-4core: the multicore driver, per-core schedulers,
 *    the shared-bus clock and core activation, with thousands of
 *    switch-on-miss context switches.
 *  - rampage-1KB-observed: the same engine through the per-reference
 *    loop that timeline tracing and interval stats force, so a gain on
 *    the batched loop that costs this path shows.
 */
std::vector<Workload>
workloads()
{
    HierarchyConfig som = rampageConfig(issueHz, 1024, true);
    som.common().cores = 4;
    return {
        {"baseline-1KB", baselineConfig(issueHz, 1024), false},
        {"rampage-128B", rampageConfig(issueHz, 128, false), false},
        {"rampage-1KB-som-4core", som, false},
        {"rampage-1KB-observed", rampageConfig(issueHz, 1024, false),
         true},
    };
}

/** The driver configuration, every field set explicitly. */
SimConfig
simConfigFor(const Workload &w, std::uint64_t refs,
             const std::string &out_dir)
{
    SimConfig sim;
    sim.maxRefs = refs;
    sim.quantumRefs = quantumRefs;
    sim.insertSwitchTrace = true;
    sim.switchOnMiss = w.config.family == HierarchyConfig::Family::Paged &&
                       w.config.paged.switchOnMiss;
    sim.watchdogRefBudget = refs * 8 + 1'000'000;
    sim.auditLevel = AuditLevel::Off;
    sim.faultPlan = "";
    const std::string obs_base = out_dir + "/" + w.name;
    sim.traceOutBase = w.observed ? obs_base : "";
    sim.statsIntervalRefs = w.observed ? observedIntervalRefs : 0;
    sim.intervalOutBase = w.observed ? obs_base : "";
    sim.traceRingCapacity = defaultTraceRingCapacity;
    sim.genericDispatch = false;
    sim.cores = 0; // the hierarchy config carries the core count
    sim.forceMulticoreDriver = false;
    return sim;
}

/** crc32 of the run's full stats dump, as "0x%08x". */
std::string
statsCrc(const SimResult &result)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x",
                  crc32(result.stats.toText()));
    return buf;
}

// ------------------------------------------------------------- tracing

/** Event counts the interval split is fitted on, in column order. */
constexpr std::size_t nEvents = 5;
const std::array<const char *, nEvents> eventNames = {
    "common", "l1_miss", "tlb_miss", "l2_miss", "switch"};

std::array<double, nEvents>
eventVector(const EventCounts &c)
{
    return {static_cast<double>(c.traceRefs),
            static_cast<double>(c.l1iMisses + c.l1dMisses),
            static_cast<double>(c.tlbMisses),
            static_cast<double>(c.l2Misses),
            static_cast<double>(c.contextSwitches)};
}

/**
 * Spans of one traced rep, recorded from outside the simulator at the
 * trace-source boundary.  Intervals tile the run: every instant of
 * Simulator::run() is in a trace.fill span, a core.interval, or the
 * finish (last boundary to return).
 */
class SpanRecorder
{
  public:
    struct Span
    {
        double startS = 0; ///< relative to the rep's run start
        double endS = 0;
    };
    struct Interval
    {
        Span span;
        double coreS = 0;  ///< span minus trace time inside it
        double traceS = 0; ///< estimated trace time (per-ref path)
        std::array<double, nEvents> deltas{};
    };

    /** Per-reference path: time one next() in this many, scaled up. */
    static constexpr std::uint64_t sampleEvery = 64;
    /** Per-reference path: close an interval every this many next(). */
    static constexpr std::uint64_t intervalCalls = 4096;

    void
    beginRun(const Hierarchy &hierarchy)
    {
        hier = &hierarchy;
        fills.clear();
        intervals.clear();
        traceS = finishS = pendingTraceS = 0;
        calls = 0;
        clockS = clockPairSeconds();
        last = eventVector(hier->counts());
        runStart = mark = Clock::now();
    }

    /** Fast path: a fill() starts; close the interval before it. */
    Clock::time_point
    fillStart()
    {
        Clock::time_point t = Clock::now();
        closeInterval(t, 0);
        return t;
    }

    /** Fast path: the fill() that began at `start` returned. */
    void
    fillEnd(Clock::time_point start)
    {
        mark = Clock::now();
        fills.push_back({rel(start), rel(mark)});
        traceS += secondsBetween(start, mark);
    }

    /**
     * Per-reference path: one next() call through `inner`.  A sampled
     * call costs little more than the clock reads around it, so their
     * cost is measured once and subtracted.
     */
    bool
    next(TraceSource &inner, MemRef &ref)
    {
        bool ok;
        if (++calls % sampleEvery == 0) {
            Clock::time_point t0 = Clock::now();
            ok = inner.next(ref);
            double took = secondsBetween(t0, Clock::now()) - clockS;
            pendingTraceS +=
                std::max(0.0, took) * static_cast<double>(sampleEvery);
        } else {
            ok = inner.next(ref);
        }
        if (calls % intervalCalls == 0) {
            closeInterval(Clock::now(), pendingTraceS);
            pendingTraceS = 0;
        }
        return ok;
    }

    /** Simulator::run() returned; the rest since the mark is finish. */
    void
    endRun()
    {
        Clock::time_point t = Clock::now();
        finishS = secondsBetween(mark, t) - pendingTraceS;
        traceS += pendingTraceS;
        pendingTraceS = 0;
        wallS = secondsBetween(runStart, t);
    }

    double wallS = 0;   ///< Simulator::run() wall
    double traceS = 0;  ///< trace generation (measured or estimated)
    double finishS = 0; ///< last boundary to return
    std::vector<Span> fills;
    std::vector<Interval> intervals;

  private:
    double rel(Clock::time_point t) const
    {
        return secondsBetween(runStart, t);
    }

    /** Median time between two back-to-back clock reads. */
    static double
    clockPairSeconds()
    {
        std::vector<double> pairs(10001);
        for (double &p : pairs) {
            Clock::time_point t0 = Clock::now();
            p = secondsBetween(t0, Clock::now());
        }
        std::nth_element(pairs.begin(), pairs.begin() + 5000, pairs.end());
        return pairs[5000];
    }

    void
    closeInterval(Clock::time_point t, double trace_s)
    {
        Interval iv;
        iv.span = {rel(mark), rel(t)};
        iv.traceS = trace_s;
        iv.coreS = secondsBetween(mark, t) - trace_s;
        traceS += trace_s;
        std::array<double, nEvents> now = eventVector(hier->counts());
        for (std::size_t k = 0; k < nEvents; ++k)
            iv.deltas[k] = now[k] - last[k];
        intervals.push_back(iv);
        last = now;
        mark = t;
    }

    const Hierarchy *hier = nullptr;
    Clock::time_point runStart;
    Clock::time_point mark; ///< end of the last boundary
    std::array<double, nEvents> last{};
    double pendingTraceS = 0;
    double clockS = 0; ///< cost of a clock-read pair
    std::uint64_t calls = 0;
};

/** Decorator that reports each source's calls to a SpanRecorder. */
class TimedSource final : public TraceSource
{
  public:
    TimedSource(std::unique_ptr<TraceSource> source, SpanRecorder &rec)
        : inner(std::move(source)), recorder(rec)
    {
    }

    bool next(MemRef &ref) override { return recorder.next(*inner, ref); }

    std::size_t
    fill(MemRef *buf, std::size_t n) override
    {
        Clock::time_point start = recorder.fillStart();
        std::size_t got = inner->fill(buf, n);
        recorder.fillEnd(start);
        return got;
    }

    void reset() override { inner->reset(); }
    std::string name() const override { return inner->name(); }
    Pid pid() const override { return inner->pid(); }

  private:
    std::unique_ptr<TraceSource> inner;
    SpanRecorder &recorder;
};

/**
 * Non-negative least squares without intercept, by active set: solve
 * the normal equations on the columns still active, drop the most
 * negative coefficient, repeat.  Columns are scaled to unit norm first
 * so counts of very different magnitude stay well conditioned.
 */
std::array<double, nEvents>
fitNonNegative(const std::vector<SpanRecorder::Interval> &rows)
{
    std::array<double, nEvents> norm{};
    for (const auto &r : rows)
        for (std::size_t k = 0; k < nEvents; ++k)
            norm[k] += r.deltas[k] * r.deltas[k];
    std::array<bool, nEvents> active{};
    for (std::size_t k = 0; k < nEvents; ++k) {
        norm[k] = std::sqrt(norm[k]);
        active[k] = norm[k] > 0;
    }

    std::array<double, nEvents> coef{};
    for (;;) {
        std::vector<std::size_t> cols;
        for (std::size_t k = 0; k < nEvents; ++k)
            if (active[k])
                cols.push_back(k);
        const std::size_t m = cols.size();
        coef.fill(0);
        if (m == 0)
            return coef;
        // Augmented normal equations [A^T A | A^T y] on scaled columns.
        std::vector<std::vector<double>> a(m, std::vector<double>(m + 1));
        for (const auto &r : rows)
            for (std::size_t i = 0; i < m; ++i) {
                double xi = r.deltas[cols[i]] / norm[cols[i]];
                for (std::size_t j = 0; j < m; ++j)
                    a[i][j] += xi * r.deltas[cols[j]] / norm[cols[j]];
                a[i][m] += xi * r.coreS;
            }
        // Gaussian elimination with partial pivoting.
        bool singular = false;
        for (std::size_t c = 0; c < m && !singular; ++c) {
            std::size_t p = c;
            for (std::size_t i = c + 1; i < m; ++i)
                if (std::fabs(a[i][c]) > std::fabs(a[p][c]))
                    p = i;
            std::swap(a[c], a[p]);
            if (std::fabs(a[c][c]) < 1e-12) {
                singular = true;
                active[cols[c]] = false;
                break;
            }
            for (std::size_t i = 0; i < m; ++i) {
                if (i == c)
                    continue;
                double f = a[i][c] / a[c][c];
                for (std::size_t j = c; j <= m; ++j)
                    a[i][j] -= f * a[c][j];
            }
        }
        if (singular)
            continue;
        std::size_t worst = m;
        for (std::size_t i = 0; i < m; ++i) {
            coef[cols[i]] = a[i][m] / a[i][i] / norm[cols[i]];
            if (coef[cols[i]] < 0 &&
                (worst == m || coef[cols[i]] < coef[cols[worst]]))
                worst = i;
        }
        if (worst == m)
            return coef;
        active[cols[worst]] = false;
    }
}

// ------------------------------------------------------------ statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** First and third quartile, as Python's statistics.quantiles(n=4). */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2) {
        double x = v.empty() ? 0 : v[0];
        return {x, x};
    }
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    auto at = [&](long i) {
        long m = n + 1;
        long j = std::clamp(i * m / 4, 1L, n - 1);
        long delta = i * m - j * 4;
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
    };
    return {at(1), at(3)};
}

// ----------------------------------------------------------------- reps

/** One built-and-run system. */
struct Rep
{
    double hierarchyS = 0;
    double workloadS = 0;
    double simulatorS = 0;
    double runS = 0;
    double cpuS = 0;
    std::string crc;
    std::string failure; ///< empty when every check passed
    SimResult result;

    double setupS() const { return hierarchyS + workloadS + simulatorS; }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20;
    bool trace = false;
    bool selfCheck = false;
    bool list = false;
    std::uint64_t refs = defaultRefs;
    std::string expectedPath;
    std::string outDir = ".bench_build/perf-out";
    std::string reportPath;
    std::string commit = "unknown";
};

/**
 * Build the system and, when `run` is set, simulate it.  With a
 * recorder the trace sources are wrapped and the run is traced.
 */
Rep
buildAndRun(const Workload &w, const Options &opt, bool run,
            SpanRecorder *recorder)
{
    Rep rep;
    const SimConfig sim = simConfigFor(w, opt.refs, opt.outDir);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Hierarchy> hier = makeHierarchy(w.config);
    Clock::time_point t1 = Clock::now();
    std::vector<std::unique_ptr<TraceSource>> sources =
        makeWorkload(opt.seed);
    Clock::time_point t2 = Clock::now();
    if (recorder)
        for (auto &source : sources)
            source = std::make_unique<TimedSource>(std::move(source),
                                                   *recorder);
    Simulator simulator(*hier, std::move(sources), sim);
    Clock::time_point t3 = Clock::now();
    rep.hierarchyS = secondsBetween(t0, t1);
    rep.workloadS = secondsBetween(t1, t2);
    rep.simulatorS = secondsBetween(t2, t3);
    if (!run)
        return rep;

    // A fixed label makes every rep overwrite the same observability
    // files instead of numbering new ones.
    ObsPointLabelScope label("perf");
    if (recorder)
        recorder->beginRun(*hier);
    double c0 = cpuSeconds();
    Clock::time_point r0 = Clock::now();
    rep.result = simulator.run();
    Clock::time_point r1 = Clock::now();
    if (recorder)
        recorder->endRun();
    rep.cpuS = cpuSeconds() - c0;
    rep.runS = secondsBetween(r0, r1);
    rep.crc = statsCrc(rep.result);

    const EventCounts &c = rep.result.counts;
    if (c.traceRefs != opt.refs)
        rep.failure = "benchmark references not conserved";
    else if (c.refs != c.traceRefs + c.overheadRefs)
        rep.failure = "hierarchy references not conserved";
    else if (!sim.switchOnMiss && hier->coreCount() == 1 &&
             rep.result.elapsedPs != totalTimePs(c, issueHz))
        rep.failure = "simulated time not conserved";
    return rep;
}

/** Run one rep, turning an escaping error into a failed rep. */
Rep
attemptRep(const Workload &w, const Options &opt, SpanRecorder *recorder)
{
    try {
        return buildAndRun(w, opt, true, recorder);
    } catch (const std::exception &e) {
        Rep rep;
        rep.failure = std::string("threw: ") + e.what();
        return rep;
    }
}

/** crc for (workload, refs, seed) from the expected-crc file, or "". */
std::string
expectedCrc(const Options &opt)
{
    if (opt.expectedPath.empty())
        return "";
    std::ifstream in(opt.expectedPath);
    if (!in)
        throw IoError("cannot read expected crcs from '" +
                      opt.expectedPath + "'");
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc = JsonValue::parse(text.str());
    const JsonValue *by_refs = doc.find(opt.workload);
    const JsonValue *by_seed =
        by_refs ? by_refs->find(std::to_string(opt.refs)) : nullptr;
    const JsonValue *crc =
        by_seed ? by_seed->find(std::to_string(opt.seed)) : nullptr;
    return crc && crc->isString() ? crc->asString() : "";
}

// ----------------------------------------------------------------- host

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    return "unknown";
}

/**
 * This process's peak resident set (VmHWM) in MB.  Unlike ru_maxrss it
 * is reset by exec, so the shell that started the binary is not in it.
 */
double
peakResidentMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024;
    return 0;
}

JsonValue
loadAverage()
{
    double load[3] = {0, 0, 0};
    JsonValue arr = JsonValue::array();
    if (getloadavg(load, 3) == 3)
        for (double l : load)
            arr.push(JsonValue::number(l));
    return arr;
}

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value = 0;
    const char *unit = "";
    std::vector<double> samples; ///< empty for single values
};

void
printMetric(const Metric &m)
{
    std::printf("  %-26s %18.9g %-6s", m.name.c_str(), m.value, m.unit);
    if (m.samples.size() > 1) {
        auto [q1, q3] = quartiles(m.samples);
        std::printf("  q1 %.6g  q3 %.6g  n=%zu", q1, q3,
                    m.samples.size());
    }
    std::printf("\n");
}

JsonValue
metricJson(const Metric &m, bool detail)
{
    JsonValue obj = JsonValue::object();
    obj.set("value",
            JsonValue::number(std::isfinite(m.value) ? m.value : 0));
    obj.set("unit", JsonValue::str(m.unit));
    if (detail && !m.samples.empty()) {
        auto [q1, q3] = quartiles(m.samples);
        obj.set("q1", JsonValue::number(q1));
        obj.set("q3", JsonValue::number(q3));
        obj.set("n", JsonValue::integer(
                         static_cast<std::uint64_t>(m.samples.size())));
    }
    return obj;
}

/** One traced rep's spans as Chrome trace-event JSON (Perfetto). */
void
writeSpans(const std::string &path, const SpanRecorder &rec)
{
    JsonValue events = JsonValue::array();
    auto span = [&](const char *name, const SpanRecorder::Span &s,
                    JsonValue args) {
        JsonValue e = JsonValue::object();
        e.set("name", JsonValue::str(name));
        e.set("ph", JsonValue::str("X"));
        e.set("ts", JsonValue::number(s.startS * 1e6));
        e.set("dur", JsonValue::number((s.endS - s.startS) * 1e6));
        e.set("pid", JsonValue::integer(std::uint64_t{0}));
        e.set("tid", JsonValue::integer(std::uint64_t{0}));
        e.set("args", std::move(args));
        events.push(std::move(e));
    };
    for (const auto &f : rec.fills)
        span("trace.fill", f, JsonValue::object());
    for (const auto &iv : rec.intervals) {
        JsonValue args = JsonValue::object();
        for (std::size_t k = 0; k < nEvents; ++k)
            args.set(eventNames[k], JsonValue::number(iv.deltas[k]));
        args.set("trace_s", JsonValue::number(iv.traceS));
        span("core.interval", iv.span, std::move(args));
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump(0) << "\n";
    if (!out)
        std::fprintf(stderr, "rampage_perf: cannot write '%s'\n",
                     path.c_str());
}

/** Per-layer metrics of the traced reps (see perf/README.md). */
std::vector<Metric>
layerMetrics(const Options &opt, const std::vector<Rep> &setups,
             const Rep &warm_up, const std::vector<Rep> &untraced,
             const std::vector<Rep> &tracedReps,
             const std::vector<SpanRecorder> &traced)
{
    std::vector<Metric> out;
    auto add = [&](const std::string &name, double value,
                   const char *unit) {
        out.push_back({name, value, unit, {}});
    };

    std::vector<double> hier_s, work_s;
    for (const Rep &r : setups) {
        hier_s.push_back(r.hierarchyS);
        work_s.push_back(r.workloadS);
    }
    add("setup.hierarchy_s", median(hier_s), "s");
    add("setup.workload_s", median(work_s), "s");
    add("setup.cold_s", warm_up.setupS(), "s");

    const double n = static_cast<double>(traced.size());
    double wall = 0, trace = 0, finish = 0, cpu = 0;
    std::vector<SpanRecorder::Interval> rows;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        wall += traced[i].wallS;
        trace += traced[i].traceS;
        finish += traced[i].finishS;
        cpu += tracedReps[i].cpuS;
        rows.insert(rows.end(), traced[i].intervals.begin(),
                    traced[i].intervals.end());
    }
    const double refs = static_cast<double>(opt.refs);
    const EventCounts &c = tracedReps.front().result.counts;
    const double self = (wall - trace) / n;
    add("trace.fill_s", trace / n, "s");
    add("trace.ns_per_ref", trace / n / refs * 1e9, "ns");
    add("trace.share", trace / wall, "ratio");
    add("core.self_s", self, "s");
    add("core.ns_per_ref", self / refs * 1e9, "ns");
    add("core.ns_per_hier_ref", self / static_cast<double>(c.refs) * 1e9,
        "ns");
    add("core.finish_s", finish / n, "s");

    std::array<double, nEvents> coef = fitNonNegative(rows);
    std::array<double, nEvents> total{};
    double y_mean = 0;
    for (const auto &r : rows) {
        y_mean += r.coreS;
        for (std::size_t k = 0; k < nEvents; ++k)
            total[k] += r.deltas[k];
    }
    y_mean /= std::max<double>(1, static_cast<double>(rows.size()));
    double sse = 0, sst = 0;
    for (const auto &r : rows) {
        double fit = 0;
        for (std::size_t k = 0; k < nEvents; ++k)
            fit += coef[k] * r.deltas[k];
        sse += (r.coreS - fit) * (r.coreS - fit);
        sst += (r.coreS - y_mean) * (r.coreS - y_mean);
    }
    double split = 0;
    for (std::size_t k = 0; k < nEvents; ++k) {
        add(std::string("core.") + eventNames[k] + "_ns", coef[k] * 1e9,
            "ns");
        add(std::string("core.") + eventNames[k] + "_s",
            coef[k] * total[k] / n, "s");
        split += coef[k] * total[k] / n;
    }
    add("core.fit_r2", sst > 0 ? 1 - sse / sst : 0, "ratio");
    add("core.intervals", static_cast<double>(rows.size()) / n, "count");
    add("core.unattributed_s", self - finish / n - split, "s");

    std::vector<double> traced_walls, untraced_walls;
    for (const Rep &r : tracedReps)
        traced_walls.push_back(r.runS);
    for (const Rep &r : untraced)
        untraced_walls.push_back(r.runS);
    add("host.cpu_s", cpu / n, "s");
    add("host.traced_overhead",
        median(traced_walls) / median(untraced_walls) - 1, "ratio");

    const SimResult &res = tracedReps.front().result;
    auto stat = [&](const char *name) {
        const StatsSnapshot::Entry *e = res.stats.find(name);
        return e ? static_cast<double>(e->counter) : 0.0;
    };
    const double data_refs = static_cast<double>(c.refs - c.instrFetches);
    add("model.sim_seconds", res.seconds(), "s");
    add("model.hier_refs", static_cast<double>(c.refs), "count");
    add("model.overhead_ratio", c.overheadRatio(), "ratio");
    add("model.l1i_miss_ratio",
        static_cast<double>(c.l1iMisses) /
            std::max(1.0, static_cast<double>(c.instrFetches)),
        "ratio");
    add("model.l1d_miss_ratio",
        static_cast<double>(c.l1dMisses) / std::max(1.0, data_refs),
        "ratio");
    add("model.tlb_miss_ratio",
        static_cast<double>(c.tlbMisses) / static_cast<double>(c.traceRefs),
        "ratio");
    add("model.l2_misses", static_cast<double>(c.l2Misses), "count");
    add("model.dram_tx", static_cast<double>(c.dramReads + c.dramWrites),
        "count");
    add("model.ctx_switches", static_cast<double>(c.contextSwitches),
        "count");
    add("model.stall_ps", static_cast<double>(res.stallPs), "ps");
    add("obs.trace_events", stat("sim.trace.events"), "count");
    add("obs.trace_dropped", stat("sim.trace.dropped"), "count");
    add("obs.interval_epochs", stat("sim.interval.epochs"), "count");
    return out;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "rampage_perf: %s\n"
                 "usage: rampage_perf --workload <name> [--seed <n>] "
                 "[--seconds <s>] [--trace 0|1] [--refs <n>]\n"
                 "                    [--expected <file>] [--out-dir <dir>] "
                 "[--report <file>] [--commit <sha>]\n"
                 "       rampage_perf --self-check [--workload <name>] "
                 "[--refs <n>] [--out-dir <dir>]\n"
                 "       rampage_perf --list\n"
                 "workloads:",
                 msg);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

/**
 * Parse the command line into `opt`; returns an error message, or ""
 * when the options are complete and valid.
 */
std::string
parseArgs(int argc, char **argv, Options &opt)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--self-check") {
            opt.selfCheck = true;
            continue;
        }
        if (flag == "--list") {
            opt.list = true;
            continue;
        }
        if (i + 1 >= argc)
            return "missing value after " + flag;
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, opt.seed))
                return "bad --seed";
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n > 3600)
                return "bad --seconds (whole seconds, at most 3600)";
            opt.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (std::string(value) != "0" && std::string(value) != "1")
                return "bad --trace (0 or 1)";
            opt.trace = value[0] == '1';
        } else if (flag == "--refs") {
            if (!parseUnsigned(value, opt.refs) || opt.refs < quantumRefs)
                return "bad --refs (at least one quantum, 120000)";
        } else if (flag == "--expected") {
            opt.expectedPath = value;
        } else if (flag == "--out-dir") {
            opt.outDir = value;
        } else if (flag == "--report") {
            opt.reportPath = value;
        } else if (flag == "--commit") {
            opt.commit = value;
        } else {
            return "unknown option " + flag;
        }
    }
    if (!have_workload && !opt.selfCheck && !opt.list)
        return "--workload is required";
    if (have_workload) {
        bool known = false;
        for (const Workload &w : workloads())
            known = known || opt.workload == w.name;
        if (!known)
            return "unknown workload '" + opt.workload + "'";
    }
    return "";
}

/**
 * --self-check: at seed 0 the benchmark's driver path, the path every
 * paper bench takes (simulateSystem) and the traced path must produce
 * the same stats dump.
 */
int
selfCheck(Options opt)
{
    opt.seed = 0;
    bool ok = true;
    for (const Workload &w : workloads()) {
        if (!opt.workload.empty() && opt.workload != w.name)
            continue;
        Rep plain = attemptRep(w, opt, nullptr);
        SpanRecorder recorder;
        Rep traced = attemptRep(w, opt, &recorder);
        std::string bench_crc;
        try {
            ObsPointLabelScope label("perf");
            bench_crc = statsCrc(simulateSystem(
                w.config, simConfigFor(w, opt.refs, opt.outDir)));
        } catch (const std::exception &e) {
            bench_crc = std::string("threw: ") + e.what();
        }
        bool same = plain.failure.empty() && traced.failure.empty() &&
                    plain.crc == bench_crc && plain.crc == traced.crc;
        std::printf("self-check %-22s driver %s  simulateSystem %s  "
                    "traced %s  %s\n",
                    w.name, plain.failure.empty() ? plain.crc.c_str()
                                                  : plain.failure.c_str(),
                    bench_crc.c_str(),
                    traced.failure.empty() ? traced.crc.c_str()
                                           : traced.failure.c_str(),
                    same ? "ok" : "MISMATCH");
        ok = ok && same;
    }
    return ok ? 0 : 1;
}

int
benchmark(const Options &opt)
{
    Workload w{};
    for (const Workload &cand : workloads())
        if (opt.workload == cand.name)
            w = cand;
    const JsonValue load_start = loadAverage();
    const std::string expected = expectedCrc(opt);

    int attempted = 0;
    int failed = 0;
    std::string reference_crc;
    std::vector<std::string> failures;
    // Check a finished rep against the invocation's other reps and the
    // committed crc; count it.
    auto tally = [&](Rep &rep) {
        ++attempted;
        if (rep.failure.empty()) {
            if (reference_crc.empty())
                reference_crc = rep.crc;
            if (rep.crc != reference_crc)
                rep.failure = "stats_crc " + rep.crc + " differs from " +
                              reference_crc;
            else if (!expected.empty() && rep.crc != expected)
                rep.failure = "stats_crc " + rep.crc +
                              " differs from expected " + expected;
        }
        if (!rep.failure.empty()) {
            ++failed;
            failures.push_back(rep.failure);
        }
        return rep.failure.empty();
    };

    // The warm-up rep's set-up is the first in the process: the cold one.
    Rep warm_up = attemptRep(w, opt, nullptr);
    tally(warm_up);
    const double peak_rss_mb = peakResidentMb();

    // Warm set-ups are spread over the measuring time, a few before each
    // untraced rep, so their median sees the same host the reps see.
    // Each starts from a trimmed heap and so pays for the memory it
    // touches; otherwise whether a freed run's memory is still resident
    // splits the set-ups of one workload into a fast and a slow mode.
    const Clock::time_point start = Clock::now();
    const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    std::vector<Rep> setups;
    std::vector<Rep> untraced;
    do {
        for (int i = 0; i < setupsPerRep; ++i) {
            malloc_trim(0);
            try {
                setups.push_back(buildAndRun(w, opt, false, nullptr));
            } catch (const std::exception &) {
                // The rep below sets up the same way and counts the error.
            }
        }
        Rep rep = attemptRep(w, opt, nullptr);
        if (tally(rep))
            untraced.push_back(std::move(rep));
    } while (secondsBetween(start, Clock::now()) < untraced_budget);

    std::vector<Rep> traced_reps;
    std::vector<SpanRecorder> traced;
    if (opt.trace) {
        do {
            SpanRecorder recorder;
            Rep rep = attemptRep(w, opt, &recorder);
            if (tally(rep)) {
                traced_reps.push_back(std::move(rep));
                traced.push_back(std::move(recorder));
            }
        } while (secondsBetween(start, Clock::now()) < opt.seconds);
    }

    const bool correct = failed == 0 && !untraced.empty() &&
                         (!opt.trace || !traced.empty());

    std::vector<Metric> metrics;
    if (!opt.trace) {
        std::vector<double> rates, setup_s;
        for (const Rep &r : untraced)
            rates.push_back(static_cast<double>(opt.refs) / r.runS);
        for (const Rep &r : setups)
            setup_s.push_back(r.setupS());
        metrics.push_back({"refs_per_s", median(rates), "1/s", rates});
        metrics.push_back({"setup_s", median(setup_s), "s", setup_s});
        metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB", {}});
    } else if (correct) {
        metrics = layerMetrics(opt, setups, warm_up, untraced, traced_reps,
                               traced);
        writeSpans(opt.outDir + "/" + opt.workload + ".spans.json",
                   traced.front());
    }

    const JsonValue load_end = loadAverage();
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    const std::string cpu = cpuModel();

    std::printf("rampage_perf: workload %s seed %llu refs %llu trace %d: "
                "%zu untraced + %zu traced reps after a warm-up\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.refs), opt.trace ? 1 : 0,
                untraced.size(), traced.size());
    std::printf("host: commit %s, nproc %ld, cpu %s, compiler %s, "
                "build %s, load %s -> %s\n",
                opt.commit.c_str(), nproc, cpu.c_str(),
                RAMPAGE_PERF_COMPILER, RAMPAGE_PERF_BUILD_TYPE,
                load_start.dump(0).c_str(), load_end.dump(0).c_str());
    std::printf("stats_crc %s (expected %s)\n", reference_crc.c_str(),
                expected.empty() ? "none listed" : expected.c_str());
    for (const std::string &f : failures)
        std::printf("FAILED rep: %s\n", f.c_str());
    for (const Metric &m : metrics)
        printMetric(m);

    JsonValue result = JsonValue::object();
    result.set("correct", JsonValue::boolean(correct));
    result.set("attempted",
               JsonValue::integer(static_cast<std::uint64_t>(attempted)));
    result.set("failed",
               JsonValue::integer(static_cast<std::uint64_t>(failed)));
    JsonValue summary = JsonValue::object();
    JsonValue detail = JsonValue::object();
    for (const Metric &m : metrics) {
        summary.set(m.name, metricJson(m, false));
        detail.set(m.name, metricJson(m, true));
    }
    result.set("metrics", std::move(summary));

    if (!opt.reportPath.empty()) {
        JsonValue host = JsonValue::object();
        host.set("commit", JsonValue::str(opt.commit));
        host.set("nproc",
                 JsonValue::integer(static_cast<std::int64_t>(nproc)));
        host.set("cpu_model", JsonValue::str(cpu));
        host.set("compiler", JsonValue::str(RAMPAGE_PERF_COMPILER));
        host.set("build_type", JsonValue::str(RAMPAGE_PERF_BUILD_TYPE));
        host.set("load_start", load_start);
        host.set("load_end", load_end);
        JsonValue report = JsonValue::object();
        report.set("workload", JsonValue::str(opt.workload));
        report.set("seed", JsonValue::integer(opt.seed));
        report.set("refs", JsonValue::integer(opt.refs));
        report.set("trace", JsonValue::boolean(opt.trace));
        report.set("seconds", JsonValue::number(opt.seconds));
        report.set("stats_crc", JsonValue::str(reference_crc));
        report.set("expected_crc", JsonValue::str(expected));
        report.set("correct", JsonValue::boolean(correct));
        report.set("attempted", JsonValue::integer(
                                    static_cast<std::uint64_t>(attempted)));
        report.set("failed", JsonValue::integer(
                                 static_cast<std::uint64_t>(failed)));
        report.set("host", std::move(host));
        report.set("metrics", std::move(detail));
        std::ofstream out(opt.reportPath);
        out << report.dump(2) << "\n";
        if (!out)
            std::fprintf(stderr, "rampage_perf: cannot write '%s'\n",
                         opt.reportPath.c_str());
    }

    std::printf("%s\n", result.dump(0).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string error = parseArgs(argc, argv, opt);
    if (!error.empty())
        return usage(error.c_str());
    if (opt.list) {
        for (const Workload &w : workloads())
            std::printf("%s\n", w.name);
        return 0;
    }
    try {
        std::filesystem::create_directories(opt.outDir);
        return opt.selfCheck ? selfCheck(opt) : benchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rampage_perf: %s\n", e.what());
        return 1;
    }
}
