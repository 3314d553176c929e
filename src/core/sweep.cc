#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/audit.hh"
#include "core/deadline.hh"
#include "core/factory.hh"
#include "core/fault_injection.hh"
#include "core/hierarchy.hh"
#include "core/point_ipc.hh"
#include "obs/obs_config.hh"
#include "trace/benchmarks.hh"
#include "util/error.hh"
#include "util/knob.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{

namespace
{

/** A 0/1 switch knob: unset or "0" is off, "1" is on, else ConfigError. */
bool
switchKnob(const char *name)
{
    const char *text = knob(name);
    if (!text || std::strcmp(text, "0") == 0)
        return false;
    if (std::strcmp(text, "1") == 0)
        return true;
    throw ConfigError("%s: expected 0 or 1, got '%s'", name, text);
}

} // namespace

ExperimentScale
experimentScale()
{
    ExperimentScale scale;
    if (switchKnob("RAMPAGE_FULL")) {
        // Paper scale (§4.2): 1.1 G references, 500 K-reference slices.
        scale.refs = 1'100'000'000;
        scale.quantumRefs = 500'000;
    }
    if (const char *refs = knob("RAMPAGE_REFS")) {
        scale.refs = parseCount(refs, "RAMPAGE_REFS");
        if (scale.refs == 0)
            throw ConfigError("RAMPAGE_REFS must be positive");
    }
    if (const char *quantum = knob("RAMPAGE_QUANTUM")) {
        scale.quantumRefs = parseCount(quantum, "RAMPAGE_QUANTUM");
        if (scale.quantumRefs == 0)
            throw ConfigError("RAMPAGE_QUANTUM must be positive");
    }
    return scale;
}

unsigned
parseJobs(const std::string &text, const char *origin)
{
    std::uint64_t jobs = parseCount(text, origin);
    if (jobs == 0 || jobs > maxSweepJobs)
        throw ConfigError("%s: worker count must be in [1, %u], got '%s'",
                          origin, maxSweepJobs, text.c_str());
    return static_cast<unsigned>(jobs);
}

unsigned
resolveJobs()
{
    const char *text = knob("RAMPAGE_JOBS");
    return text ? parseJobs(text, "RAMPAGE_JOBS") : 1;
}

unsigned
parseCores(const std::string &text, const char *origin)
{
    std::uint64_t cores = parseCount(text, origin);
    if (cores == 0 || cores > maxCores)
        throw ConfigError("%s: core count must be in [1, %u], got '%s'",
                          origin, maxCores, text.c_str());
    return static_cast<unsigned>(cores);
}

unsigned
resolveCores()
{
    const char *text = knob("RAMPAGE_CORES");
    return text ? parseCores(text, "RAMPAGE_CORES") : 0;
}

double
parsePointDeadline(const std::string &text, const char *origin)
{
    const char *cstr = text.c_str();
    if (text.empty() ||
        !(std::isdigit(static_cast<unsigned char>(cstr[0])) ||
          cstr[0] == '.'))
        throw ConfigError(
            "%s: expected a positive number of seconds, got '%s'",
            origin, cstr);
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(cstr, &end);
    if (end == cstr || *end != '\0')
        throw ConfigError(
            "%s: trailing junk after the number in '%s'", origin, cstr);
    if (errno == ERANGE || !std::isfinite(value) || value <= 0)
        throw ConfigError(
            "%s: deadline must be a positive finite number of "
            "seconds, got '%s'",
            origin, cstr);
    return value;
}

double
resolvePointDeadline()
{
    const char *text = knob("RAMPAGE_DEADLINE");
    return text ? parsePointDeadline(text, "RAMPAGE_DEADLINE") : 0;
}

bool
resolveIsolate()
{
    return switchKnob("RAMPAGE_ISOLATE");
}

std::vector<std::uint64_t>
issueRates()
{
    if (const char *env = knob("RAMPAGE_RATES")) {
        std::vector<std::uint64_t> rates;
        std::string text(env);
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t comma = text.find(',', pos);
            if (comma == std::string::npos)
                comma = text.size();
            try {
                rates.push_back(
                    parseFrequency(text.substr(pos, comma - pos)));
            } catch (const ConfigError &e) {
                throw ConfigError("RAMPAGE_RATES: %s", e.what());
            }
            pos = comma + 1;
        }
        if (rates.empty())
            throw ConfigError("RAMPAGE_RATES is empty");
        return rates;
    }
    // The paper sweeps 200 MHz to 4 GHz (§4.3).
    return {200'000'000ull, 500'000'000ull, 1'000'000'000ull,
            2'000'000'000ull, 4'000'000'000ull};
}

std::vector<std::uint64_t>
blockSizeSweep()
{
    return {128, 256, 512, 1024, 2048, 4096};
}

CommonConfig
defaultCommon(std::uint64_t issue_hz)
{
    CommonConfig common;
    common.issueHz = issue_hz;
    return common;
}

ConventionalConfig
baselineConfig(std::uint64_t issue_hz, std::uint64_t l2_block_bytes)
{
    ConventionalConfig config;
    config.common = defaultCommon(issue_hz);
    config.l2BlockBytes = l2_block_bytes;
    config.l2Assoc = 1;
    return config;
}

ConventionalConfig
twoWayConfig(std::uint64_t issue_hz, std::uint64_t l2_block_bytes)
{
    ConventionalConfig config = baselineConfig(issue_hz, l2_block_bytes);
    config.l2Assoc = 2;
    config.l2Repl = ReplPolicy::Random;
    return config;
}

RampageConfig
rampageConfig(std::uint64_t issue_hz, std::uint64_t page_bytes,
              bool switch_on_miss)
{
    RampageConfig config;
    config.common = defaultCommon(issue_hz);
    config.pager.pageBytes = page_bytes;
    config.switchOnMiss = switch_on_miss;
    return config;
}

SimConfig
defaultSimConfig(bool switch_on_miss)
{
    ExperimentScale scale = experimentScale();
    SimConfig sim = armedSimConfig(scale.refs, scale.quantumRefs);
    sim.switchOnMiss = switch_on_miss;
    return sim;
}

SimConfig
armedSimConfig(std::uint64_t refs, std::uint64_t quantum_refs)
{
    SimConfig sim;
    sim.maxRefs = refs;
    sim.quantumRefs = quantum_refs;
    // Handler overhead is tens of percent at worst (Fig 4), so a
    // budget of 8x the benchmark references can only trip on a
    // genuine runaway point.
    sim.watchdogRefBudget = refs * 8 + 1'000'000;
    sim.auditLevel = resolveAuditLevel();
    sim.faultPlan = resolveFaultPlanSpec();
    sim.cores = resolveCores();
    ObsSettings obs = resolveObsSettings();
    sim.traceOutBase = obs.traceOutBase;
    sim.statsIntervalRefs = obs.statsIntervalRefs;
    sim.intervalOutBase = obs.intervalOutBase;
    sim.traceRingCapacity = obs.traceRingCapacity;
    return sim;
}

SimResult
simulateSystem(const HierarchyConfig &config, const SimConfig &sim)
{
    // SimConfig::cores is a factory-level knob: apply it to the
    // hierarchy description before construction (0 leaves the
    // config's own core count alone).
    HierarchyConfig built = config;
    if (sim.cores > 0)
        built.common().cores = sim.cores;
    std::unique_ptr<Hierarchy> hierarchy = makeHierarchy(built);
    SimConfig effective = sim;
    if (config.family == HierarchyConfig::Family::Paged)
        effective.switchOnMiss = config.paged.switchOnMiss;
    return Simulator(*hierarchy, makeWorkload(), effective).run();
}

// ------------------------------------------------------------ SweepRunner

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok:
        return "ok";
      case PointStatus::Failed:
        return "failed";
      case PointStatus::AuditFailed:
        return "audit-failed";
      case PointStatus::TimedOut:
        return "timed-out";
      case PointStatus::Crashed:
        return "crashed";
    }
    return "unknown";
}

std::size_t
SweepReport::count(PointStatus status) const
{
    std::size_t n = 0;
    for (const PointOutcome &outcome : outcomes)
        if (outcome.status == status)
            ++n;
    return n;
}

void
SweepRunner::add(const std::string &id, std::function<SimResult()> body)
{
    for (const Point &point : points)
        if (point.id == id)
            throw ConfigError("duplicate sweep point id '%s'",
                              id.c_str());
    points.push_back(Point{id, std::move(body)});
}

namespace
{

/** Disarms the per-point deadline on every exit path of an attempt. */
struct DeadlineGuard
{
    explicit DeadlineGuard(double seconds)
    {
        if (seconds > 0)
            armPointDeadline(seconds);
    }
    ~DeadlineGuard() { disarmPointDeadline(); }
};

/**
 * Write all of `bytes` to `fd`.  A failed write stops early; the
 * reader then sees a truncated outcome, which the decoder rejects.
 */
void
writeAll(int fd, const std::string &bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        done += static_cast<std::size_t>(n);
    }
}

/**
 * A sanitizer runtime catches SIGSEGV and friends itself and exits
 * with status 1; an isolated child restores the default actions so
 * the parent observes the true termination signal (a Crashed point).
 */
void
restoreDefaultFatalSignals()
{
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        ::signal(sig, SIG_DFL);
}

} // namespace

PointOutcome
SweepRunner::runLocalAttempt(const Point &point) const
{
    PointOutcome outcome;
    outcome.id = point.id;

    // Trace/interval file naming is thread-local: label this
    // thread's simulation runs with the point id so per-point files
    // compose with --jobs and --isolate.
    ObsPointLabelScope obs_label(point.id);
    auto started = std::chrono::steady_clock::now();
    try {
        DeadlineGuard deadline(opts.pointDeadlineSeconds);
        if (faultPlan.kind == SweepFault::Crash &&
            faultPlan.matches(point.id))
            ::raise(SIGSEGV);
        if (faultPlan.kind == SweepFault::Hang &&
            faultPlan.matches(point.id)) {
            // A point that never finishes but does reach the watchdog
            // seam: sleeps in small slices, polling the deadline the
            // way Simulator::checkWatchdog does.  Without a deadline
            // this hangs for real — which is the point.
            for (;;) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                pollPointDeadline(0);
            }
        }
        outcome.result = point.body();
        outcome.haveResult = true;
        outcome.status = PointStatus::Ok;
    } catch (const TimeoutError &e) {
        outcome.status = PointStatus::TimedOut;
        outcome.errorCategory = e.category();
        outcome.error = e.what();
        outcome.refsAtCancel = e.refsExecuted();
        outcome.exception = std::current_exception();
    } catch (const AuditError &e) {
        outcome.status = PointStatus::AuditFailed;
        outcome.errorCategory = e.category();
        outcome.error = e.what();
        outcome.auditInvariant = e.firstInvariant();
        outcome.auditScope = e.scope();
        outcome.auditViolations = e.violations();
        outcome.exception = std::current_exception();
    } catch (const SimError &e) {
        outcome.status = PointStatus::Failed;
        outcome.errorCategory = e.category();
        outcome.error = e.what();
        outcome.exception = std::current_exception();
    } catch (const std::exception &e) {
        outcome.status = PointStatus::Failed;
        outcome.errorCategory = ErrorCategory::Internal;
        outcome.error = e.what();
        outcome.exception = std::current_exception();
    }
    outcome.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    return outcome;
}

PointOutcome
SweepRunner::runIsolatedAttempt(const Point &point) const
{
    int fds[2];
    if (::pipe(fds) != 0) {
        warnRateLimited("sweep: pipe failed (%s); running '%s' "
                        "in-process",
                        std::strerror(errno), point.id.c_str());
        return runLocalAttempt(point);
    }
    auto started = std::chrono::steady_clock::now();
    pid_t pid = ::fork();
    if (pid < 0) {
        warnRateLimited("sweep: fork failed (%s); running '%s' "
                        "in-process",
                        std::strerror(errno), point.id.c_str());
        ::close(fds[0]);
        ::close(fds[1]);
        return runLocalAttempt(point);
    }
    if (pid == 0) {
        // Child: run the attempt exactly as in-process would, write
        // the outcome bit-exactly as the pipe's only content, and die
        // with _exit so inherited stdio buffers are not flushed twice.
        ::close(fds[0]);
        restoreDefaultFatalSignals();
        keepRunsSingleThreaded();
        PointOutcome outcome = runLocalAttempt(point);
        outcome.exception = nullptr; // rebuilt from fields by parent
        writeAll(fds[1], encodePointOutcome(outcome));
        ::_exit(0);
    }

    // Parent: drain the pipe until EOF.  The hard-kill backstop fires
    // when a child blows through its deadline *without* reaching the
    // cooperative cancellation seam (a real hang, not a slow point):
    // deadline plus a grace period, then SIGKILL.
    ::close(fds[1]);
    const double deadline = opts.pointDeadlineSeconds;
    double kill_after = 0;
    if (deadline > 0)
        kill_after = deadline + std::max(1.0, deadline);
    bool hard_killed = false;
    std::string stream;
    for (;;) {
        int timeout_ms = -1;
        if (kill_after > 0 && !hard_killed) {
            double left = kill_after -
                          std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
            timeout_ms =
                left <= 0 ? 0
                          : static_cast<int>(left * 1000.0) + 1;
        }
        struct pollfd waiter;
        waiter.fd = fds[0];
        waiter.events = POLLIN;
        waiter.revents = 0;
        int ready = ::poll(&waiter, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0) {
            ::kill(pid, SIGKILL);
            hard_killed = true;
            continue; // drain whatever the child managed to write
        }
        char buf[4096];
        ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        stream.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
        continue;
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        try {
            PointOutcome outcome = decodePointOutcome(stream);
            outcome.exception = rebuildPointException(outcome);
            return outcome;
        } catch (const InternalError &e) {
            warnRateLimited("sweep: '%s': %s", point.id.c_str(),
                            e.what());
        }
    }

    PointOutcome outcome;
    outcome.id = point.id;
    outcome.wallSeconds = wall;
    if (hard_killed) {
        outcome.status = PointStatus::TimedOut;
        outcome.errorCategory = ErrorCategory::Timeout;
        outcome.error = formatErrorMessage(
            "point exceeded its %g s deadline without reaching the "
            "cancellation seam; killed after %g s",
            deadline, kill_after);
    } else if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        outcome.status = PointStatus::Crashed;
        outcome.errorCategory = ErrorCategory::Internal;
        outcome.signalNumber = sig;
        outcome.error = formatErrorMessage(
            "isolated point killed by signal %d (%s)", sig,
            ::strsignal(sig));
    } else {
        outcome.status = PointStatus::Failed;
        outcome.errorCategory = ErrorCategory::Internal;
        outcome.error = formatErrorMessage(
            "isolated point exited with status %d without reporting "
            "an outcome",
            WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    }
    outcome.exception = rebuildPointException(outcome);
    return outcome;
}

void
SweepRunner::reportOutcome(const PointOutcome &outcome) const
{
    switch (outcome.status) {
      case PointStatus::Ok:
        inform("sweep: '%s' ok (%.2f s)", outcome.id.c_str(),
               outcome.wallSeconds);
        return;
      case PointStatus::TimedOut:
        warn("sweep: '%s' timed out after %.2f s (%llu refs "
             "executed): %s",
             outcome.id.c_str(), outcome.wallSeconds,
             static_cast<unsigned long long>(outcome.refsAtCancel),
             outcome.error.c_str());
        break;
      case PointStatus::Crashed:
        warn("sweep: '%s' crashed (signal %d): %s",
             outcome.id.c_str(), outcome.signalNumber,
             outcome.error.c_str());
        break;
      case PointStatus::Failed:
      case PointStatus::AuditFailed:
        warn("sweep: '%s' failed (%s error): %s", outcome.id.c_str(),
             errorCategoryName(outcome.errorCategory),
             outcome.error.c_str());
        break;
    }
    printAuditViolations(stderr, outcome.auditScope,
                         outcome.auditViolations);
}

SweepReport
SweepRunner::run()
{
    // Everything that can reject the campaign's settings throws here,
    // on the calling thread, before any worker or child exists.
    faultPlan = parseSweepFaultPlan(resolveSweepFaultSpec());
    SweepReport report;
    report.outcomes.resize(points.size());
    std::vector<char> ready(points.size(), 0);

    std::mutex mtx; // guards report.outcomes and ready
    std::condition_variable point_done;
    std::atomic<std::size_t> next_work{0};

    auto worker = [&]() {
        for (;;) {
            std::size_t index = next_work.fetch_add(1);
            if (index >= points.size())
                return;
            PointOutcome outcome = opts.isolate
                                       ? runIsolatedAttempt(points[index])
                                       : runLocalAttempt(points[index]);
            {
                std::lock_guard<std::mutex> lock(mtx);
                report.outcomes[index] = std::move(outcome);
                ready[index] = 1;
            }
            point_done.notify_all();
        }
    };

    std::size_t worker_count =
        std::min<std::size_t>(std::max(opts.jobs, 1u), points.size());
    std::vector<std::thread> pool;
    pool.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i)
        pool.emplace_back(worker);

    // The main thread is the reporter: it emits every per-point
    // status line in add() order regardless of completion order, so
    // the campaign's output is identical for any jobs value.
    {
        std::unique_lock<std::mutex> lock(mtx);
        for (std::size_t next = 0; next < report.outcomes.size(); ++next) {
            point_done.wait(lock, [&] { return ready[next] != 0; });
            reportOutcome(report.outcomes[next]);
        }
    }
    for (std::thread &thread : pool)
        thread.join();
    return report;
}

} // namespace rampage
