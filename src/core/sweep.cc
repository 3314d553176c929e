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
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
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
#include "util/crc32.hh"
#include "util/debug.hh"
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
      case PointStatus::Skipped:
        return "skipped";
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

/*
 * Checkpoint manifest format (one line per finished point, appended
 * with a single write(2) and fsync'd as each point finishes):
 *
 *   # rampage-sweep-checkpoint v2
 *   crc=<crc32 hex8> ok wall=<s> elapsed_ps=<ticks> id=<id>
 *   crc=<crc32 hex8> audit wall=<s> invariant=<name> id=<id>
 *
 * The crc field protects the rest of the line (everything after the
 * "crc=XXXXXXXX " prefix), so a line that was torn mid-append — the
 * signature of a SIGKILL or power loss between write() and the page
 * hitting disk — is detected rather than half-parsed.  Only "ok"
 * lines mark a point done; "audit" lines are forensic — they record
 * *which* model invariant an audit found violated, so a resumed
 * campaign (which will re-run the point) carries the trail of why the
 * previous attempt was rejected.
 *
 * Recovery policy, from most to least specific:
 *  - a manifest declaring a version newer than this build throws
 *    ConfigError naming the version (guessing at an unknown format
 *    could silently skip points);
 *  - a truncated *final* line (no trailing newline, or a CRC that
 *    does not cover a complete line) is the torn-append case: it is
 *    repaired by truncating the file back to the last good line, and
 *    costs exactly one re-simulated point;
 *  - any other damaged line (a CRC mismatch, or no crc field at
 *    all) is warned about and skipped — a corrupt checkpoint
 *    degrades to re-simulation, never to an error;
 *  - a duplicate id (two runs raced on one manifest) is warned about
 *    and collapsed to a single completion.
 */
namespace
{

constexpr unsigned manifestVersion = 2;
constexpr char manifestHeaderPrefix[] = "# rampage-sweep-checkpoint v";
/** "crc=XXXXXXXX " — 4 + 8 + 1 bytes before the protected body. */
constexpr std::size_t manifestCrcPrefixBytes = 13;

/** Parse one manifest body ("ok wall=... id=..."); "" if not done. */
std::string
parseManifestBody(const std::string &body, double &wall)
{
    if (body.rfind("audit ", 0) == 0)
        return ""; // forensic record only; the point is not done
    if (body.rfind("ok ", 0) != 0)
        return "";
    std::size_t id_at = body.find(" id=");
    if (id_at == std::string::npos)
        return "";
    std::size_t wall_at = body.find("wall=");
    if (wall_at != std::string::npos)
        wall = std::strtod(body.c_str() + wall_at + 5, nullptr);
    return body.substr(id_at + 4);
}

/** Whether a line's CRC prefix matches its body. */
bool
manifestLineIntact(const std::string &line, std::string &body)
{
    if (line.size() < manifestCrcPrefixBytes ||
        line.compare(0, 4, "crc=") != 0 ||
        line[manifestCrcPrefixBytes - 1] != ' ')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long stored =
        std::strtoul(line.c_str() + 4, &end, 16);
    if (errno == ERANGE ||
        end != line.c_str() + manifestCrcPrefixBytes - 1)
        return false;
    body = line.substr(manifestCrcPrefixBytes);
    return crc32(body) == static_cast<std::uint32_t>(stored);
}

} // namespace

std::map<std::string, double>
SweepRunner::loadManifest() const
{
    std::map<std::string, double> done;
    if (opts.checkpointPath.empty())
        return done;
    std::ifstream in(opts.checkpointPath, std::ios::binary);
    if (!in.is_open())
        return done; // first run: nothing checkpointed yet
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();

    std::size_t pos = 0;
    std::uint64_t line_no = 0;
    while (pos < text.size()) {
        std::size_t line_start = pos;
        std::size_t nl = text.find('\n', pos);
        bool complete = nl != std::string::npos;
        std::string line =
            text.substr(pos, (complete ? nl : text.size()) - pos);
        pos = complete ? nl + 1 : text.size();
        ++line_no;
        bool last = pos >= text.size();

        if (line.empty())
            continue;
        if (line[0] == '#') {
            // Refuse manifests from a newer build: an unknown format
            // could mark points done that are not.
            if (line.rfind(manifestHeaderPrefix, 0) == 0) {
                unsigned long version = std::strtoul(
                    line.c_str() + sizeof(manifestHeaderPrefix) - 1,
                    nullptr, 10);
                if (version > manifestVersion)
                    throw ConfigError(
                        "checkpoint '%s' is a v%lu manifest; this "
                        "build reads up to v%u — resume with a newer "
                        "build or remove the file",
                        opts.checkpointPath.c_str(), version,
                        manifestVersion);
            }
            continue;
        }

        double wall = 0;
        std::string id;
        std::string body;
        if (manifestLineIntact(line, body)) {
            id = parseManifestBody(body, wall);
            if (id.empty())
                continue; // intact forensic line
        }

        if (id.empty()) {
            if (last && !complete) {
                // Torn final append: repair by truncation so the next
                // append starts on a clean line, and re-simulate
                // exactly this point.
                warnRateLimited(
                    "checkpoint '%s': repairing torn final manifest "
                    "line; that point will be re-simulated",
                    opts.checkpointPath.c_str());
                if (::truncate(opts.checkpointPath.c_str(),
                               static_cast<off_t>(line_start)) != 0)
                    RAMPAGE_DPRINTF(
                        Trace, "checkpoint '%s': truncate failed: %s",
                        opts.checkpointPath.c_str(),
                        std::strerror(errno));
                continue;
            }
            // Interior damage (bit rot, CRC mismatch, hand edits): a
            // torn manifest can hurt many lines at once; cap the
            // noise and keep only the count.
            warnRateLimited(
                "checkpoint: ignoring damaged manifest line");
            RAMPAGE_DPRINTF(Trace,
                            "checkpoint '%s': damaged line %llu",
                            opts.checkpointPath.c_str(),
                            static_cast<unsigned long long>(line_no));
            continue;
        }
        if (done.count(id))
            warnRateLimited(
                "checkpoint '%s': duplicate manifest entry for point "
                "'%s' (two runs raced on one manifest?)",
                opts.checkpointPath.c_str(), id.c_str());
        done[id] = wall;
    }
    return done;
}

void
SweepRunner::appendManifest(const PointOutcome &outcome) const
{
    if (opts.checkpointPath.empty())
        return;
    int fd = ::open(opts.checkpointPath.c_str(),
                    O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        int err = errno;
        if (err == ENOSPC || err == EIO)
            warnOnce("checkpoint '%s': %s (host I/O failure, category "
                     "%s); completions will not be recorded",
                     opts.checkpointPath.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("cannot append to checkpoint '%s' (%s); point '%s' "
                 "will be re-simulated on resume",
                 opts.checkpointPath.c_str(), std::strerror(err),
                 outcome.id.c_str());
        return;
    }

    // Build the whole append — header if the file is fresh, a healing
    // newline if a previous append was torn, then the CRC-protected
    // line — in memory, and emit it with ONE write(2).  A crash can
    // then only ever leave a *prefix* of one line behind, which the
    // loader detects by CRC and repairs by truncation; it can never
    // interleave with another worker's append or split the header.
    std::string data;
    struct stat st;
    if (::fstat(fd, &st) == 0) {
        if (st.st_size == 0) {
            data += manifestHeaderPrefix;
            data += std::to_string(manifestVersion);
            data += '\n';
        } else {
            char lastByte = '\n';
            if (::pread(fd, &lastByte, 1, st.st_size - 1) == 1 &&
                lastByte != '\n')
                data += '\n';
        }
    }

    std::string body;
    if (outcome.status == PointStatus::AuditFailed)
        body = formatErrorMessage(
            "audit wall=%.6f invariant=%s id=%s", outcome.wallSeconds,
            outcome.auditInvariant.empty()
                ? "unknown"
                : outcome.auditInvariant.c_str(),
            outcome.id.c_str());
    else
        body = formatErrorMessage(
            "ok wall=%.6f elapsed_ps=%llu id=%s", outcome.wallSeconds,
            static_cast<unsigned long long>(outcome.result.elapsedPs),
            outcome.id.c_str());
    data += formatErrorMessage("crc=%08x ", crc32(body));
    data += body;
    data += '\n';

    // Fault injection: tear this point's append mid-line, exactly as
    // a SIGKILL between write() and completion would.
    if (faultPlan.kind == SweepFault::TornManifestLine &&
        faultPlan.matches(outcome.id))
        data.resize(data.size() - body.size() / 2 - 1);

    ssize_t written = ::write(fd, data.data(), data.size());
    if (written != static_cast<ssize_t>(data.size())) {
        int err = errno;
        if (written < 0 && (err == ENOSPC || err == EIO))
            warnOnce("checkpoint '%s': %s (host I/O failure, category "
                     "%s); completions will not be recorded",
                     opts.checkpointPath.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("short write to checkpoint '%s'; point '%s' will be "
                 "re-simulated on resume",
                 opts.checkpointPath.c_str(), outcome.id.c_str());
    }
    ::fsync(fd);
    ::close(fd);
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
 * The child side of --isolate relays its post-mortem ring up the
 * outcome pipe from a fatal-signal handler before dying of the
 * original signal, so even a SIGSEGV ships its last debug events.
 */
int childRelayFd = -1;

extern "C" void
relayFatalSignal(int sig)
{
    if (childRelayFd >= 0)
        debugRingWriteFramed(childRelayFd, pointIpcRingTag);
    // SA_RESETHAND restored the default action; re-raise so the
    // parent observes the true termination signal.
    ::raise(sig);
}

void
installFatalSignalRelay()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = relayFatalSignal;
    action.sa_flags = SA_RESETHAND;
    sigemptyset(&action.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        ::sigaction(sig, &action, nullptr);
}

} // namespace

PointOutcome
SweepRunner::runLocalAttempt(const Point &point) const
{
    PointOutcome outcome;
    outcome.id = point.id;

    // Each point starts with a clean ring so a failure's tail holds
    // only its own events.  The ring is thread-local, so concurrent
    // points cannot pollute each other's post-mortems.
    clearDebugRing();
    // Trace/interval file naming is also thread-local: label this
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
                checkPointDeadlineNow(0);
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

    if (outcome.status != PointStatus::Ok)
        outcome.debugTail = debugRingTail(16);
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
        // Child: run the attempt exactly as in-process would, encode
        // the outcome bit-exactly, and die with _exit so inherited
        // stdio buffers are not flushed twice.
        ::close(fds[0]);
        childRelayFd = fds[1];
        installFatalSignalRelay();
        PointOutcome outcome = runLocalAttempt(point);
        outcome.exception = nullptr; // rebuilt from fields by parent
        writeFramedRecord(fds[1], pointIpcOutcomeTag,
                          encodePointOutcome(outcome));
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

    bool torn = false;
    std::vector<FramedRecord> records = parseFramedRecords(stream, torn);
    PointOutcome outcome;
    bool have_outcome = false;
    std::vector<std::string> relayed_ring;
    for (const FramedRecord &record : records) {
        if (record.tag == pointIpcRingTag) {
            relayed_ring.push_back(record.payload);
        } else if (record.tag == pointIpcOutcomeTag) {
            try {
                outcome = decodePointOutcome(record.payload);
                have_outcome = true;
            } catch (const InternalError &e) {
                warnRateLimited("sweep: '%s': %s", point.id.c_str(),
                                e.what());
            }
        }
    }
    // Keep at most the tail the in-process path would keep.
    if (relayed_ring.size() > 16)
        relayed_ring.erase(relayed_ring.begin(),
                           relayed_ring.end() - 16);

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && have_outcome) {
        outcome.exception = rebuildPointException(outcome);
        return outcome;
    }

    outcome = PointOutcome();
    outcome.id = point.id;
    outcome.wallSeconds = wall;
    outcome.debugTail = std::move(relayed_ring);
    if (hard_killed) {
        outcome.status = PointStatus::TimedOut;
        outcome.errorCategory = ErrorCategory::Timeout;
        outcome.error = formatErrorMessage(
            "point exceeded its %.3f s deadline without reaching the "
            "cancellation seam; killed after %.3f s",
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

PointOutcome
SweepRunner::executePoint(const Point &point) const
{
    PointOutcome outcome = opts.isolate ? runIsolatedAttempt(point)
                                        : runLocalAttempt(point);

    // Checkpoint as soon as the point finishes (not when it is
    // reported) so a crash costs at most the points still in flight.
    // An audit rejection is also checkpointed, as a non-completing
    // forensic line naming the invariant.
    if (outcome.status == PointStatus::Ok ||
        outcome.status == PointStatus::AuditFailed) {
        std::lock_guard<std::mutex> lock(manifestMutex);
        appendManifest(outcome);
    }
    return outcome;
}

void
SweepRunner::reportOutcome(const PointOutcome &outcome) const
{
    switch (outcome.status) {
      case PointStatus::Skipped:
        inform("sweep: '%s' already checkpointed, skipping",
               outcome.id.c_str());
        return;
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
    if (!outcome.debugTail.empty()) {
        std::fprintf(stderr, "---- debug ring tail for '%s' ----\n",
                     outcome.id.c_str());
        for (const std::string &event : outcome.debugTail)
            std::fprintf(stderr, "  %s\n", event.c_str());
        std::fprintf(stderr, "----\n");
    }
}

SweepReport
SweepRunner::run()
{
    // Everything that can reject the campaign's settings throws here,
    // on the calling thread, before any worker or child exists.
    faultPlan = parseSweepFaultPlan(resolveSweepFaultSpec());
    std::map<std::string, double> done = loadManifest();
    SweepReport report;
    report.outcomes.resize(points.size());

    // Points the manifest marks complete are resolved up front; the
    // rest form the work queue the pool drains.
    std::vector<std::size_t> pending;
    std::vector<char> ready(points.size(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointOutcome &outcome = report.outcomes[i];
        outcome.id = points[i].id;
        auto checkpointed = done.find(points[i].id);
        if (checkpointed != done.end()) {
            outcome.status = PointStatus::Skipped;
            outcome.wallSeconds = checkpointed->second;
            ready[i] = 1;
        } else {
            pending.push_back(i);
        }
    }

    std::mutex mtx; // guards report.outcomes and ready
    std::condition_variable point_done;
    std::atomic<std::size_t> next_work{0};

    auto worker = [&]() {
        for (;;) {
            std::size_t slot = next_work.fetch_add(1);
            if (slot >= pending.size())
                return;
            std::size_t index = pending[slot];
            PointOutcome outcome = executePoint(points[index]);
            {
                std::lock_guard<std::mutex> lock(mtx);
                report.outcomes[index] = std::move(outcome);
                ready[index] = 1;
            }
            point_done.notify_all();
        }
    };

    std::size_t worker_count =
        std::min<std::size_t>(std::max(opts.jobs, 1u), pending.size());
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
