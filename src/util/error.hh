/**
 * @file
 * Recoverable error taxonomy.
 *
 * Library code never terminates the process: unusable input raises a
 * typed exception so callers — above all the fault-tolerant
 * `SweepRunner` — can fail one experiment point in isolation, record
 * the category, and keep the campaign going.
 *
 *  - ConfigError:   a user-supplied configuration is unusable
 *                   (geometry, units, environment variables);
 *  - TraceError:    a trace file or stream is missing, malformed or
 *                   truncated;
 *  - InternalError: a simulator invariant broke — a bug in this code
 *                   base (also raised by RAMPAGE_ASSERT and the
 *                   runaway-point watchdog);
 *  - AuditError:    a runtime model-integrity audit found live
 *                   component state violating a cross-component
 *                   invariant (see src/core/audit.hh);
 *  - IoError:       the host filesystem failed underneath us
 *                   (ENOSPC/EIO on a telemetry or report write, or a
 *                   fuzz directory that cannot be created);
 *  - TimeoutError:  a sweep point exceeded its configured deadline
 *                   and was cancelled cooperatively at the watchdog
 *                   seam; carries the references executed at cancel.
 *
 * The legacy fatal()/panic() reporters (util/logging.hh) survive only
 * as *top-level CLI handlers*: a bench or example wraps its body in
 * cliMain(), which maps ConfigError/TraceError to the historical
 * "fatal: ... exit(1)" behaviour, AuditError to "audit: ...
 * exit(auditExitStatus)" and InternalError to "panic: ... abort()".
 */

#ifndef RAMPAGE_UTIL_ERROR_HH
#define RAMPAGE_UTIL_ERROR_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace rampage
{

/** Which kind of failure a SimError reports. */
enum class ErrorCategory { Config, Trace, Internal, Audit, Io, Timeout };

/** Stable lower-case name for a category ("config", "trace", ...). */
const char *errorCategoryName(ErrorCategory category);

/** printf-style formatting into a std::string. */
std::string formatErrorMessage(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** va_list flavour of formatErrorMessage(). */
std::string vformatErrorMessage(const char *fmt, va_list args);

/** Base of the taxonomy; catch this to handle any simulator error. */
class SimError : public std::runtime_error
{
  public:
    ErrorCategory category() const { return cat; }

    const char *what() const noexcept override { return msg.c_str(); }

  protected:
    SimError(ErrorCategory category, std::string message)
        : std::runtime_error(message), cat(category),
          msg(std::move(message))
    {
    }

    /** Used by the printf-style derived constructors. */
    void setMessage(std::string message) { msg = std::move(message); }

  private:
    ErrorCategory cat;
    std::string msg;
};

/** A user-supplied configuration is unusable. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &message)
        : SimError(ErrorCategory::Config, message)
    {
    }

    ConfigError(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));
};

/** A trace file or stream is missing, malformed or truncated. */
class TraceError : public SimError
{
  public:
    explicit TraceError(const std::string &message)
        : SimError(ErrorCategory::Trace, message)
    {
    }

    TraceError(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
};

/** A simulator invariant broke — a bug in this code base. */
class InternalError : public SimError
{
  public:
    explicit InternalError(const std::string &message)
        : SimError(ErrorCategory::Internal, message)
    {
    }

    InternalError(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));
};

/**
 * The host filesystem failed underneath the simulator (a telemetry or
 * report write hit ENOSPC/EIO).  Recoverable: the telemetry and
 * report writers degrade to warnOnce() naming the path rather than
 * failing the run.
 */
class IoError : public SimError
{
  public:
    explicit IoError(const std::string &message)
        : SimError(ErrorCategory::Io, message)
    {
    }

    IoError(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
};

/**
 * A sweep point exceeded its configured wall-clock deadline
 * (`--point-deadline` / `RAMPAGE_DEADLINE`) and was cancelled
 * cooperatively at the reference-count watchdog seam.  Carries the
 * number of hierarchy references the point had executed when the
 * cancellation fired, which SweepRunner records in the outcome.
 */
class TimeoutError : public SimError
{
  public:
    TimeoutError(std::uint64_t refs_executed, const std::string &message)
        : SimError(ErrorCategory::Timeout, message), refs(refs_executed)
    {
    }

    TimeoutError(std::uint64_t refs_executed, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

    /** Hierarchy references executed when the cancel fired. */
    std::uint64_t refsExecuted() const { return refs; }

  private:
    std::uint64_t refs = 0;
};

/** One invariant the Auditor found violated in live model state. */
struct AuditViolation
{
    /** Stable invariant name ("inclusion.l1", "time.conservation"). */
    std::string invariant;
    /** Formatted description of the violating state. */
    std::string detail;
};

/**
 * A runtime model-integrity audit failed.  Carries the structured
 * violation report so SweepRunner can record *which* invariant broke
 * and the CLI handler can print every violation, not just the first.
 */
class AuditError : public SimError
{
  public:
    AuditError(std::string scope, std::vector<AuditViolation> violations);

    const std::vector<AuditViolation> &violations() const
    {
        return viol;
    }

    /** First violated invariant's stable name ("inclusion.l1"). */
    const std::string &firstInvariant() const;

    /** Where the audit ran ("quantum boundary (ref 40000)", ...). */
    const std::string &scope() const { return where; }

  private:
    std::string where;
    std::vector<AuditViolation> viol;
};

/**
 * Print each violation as "  audit: violated <invariant> at <scope>:
 * <detail>", one line apiece: the post-mortem of a failed audit, which
 * lists every recorded violation where what() lists only the first few.
 */
void printAuditViolations(std::FILE *out, const std::string &scope,
                          const std::vector<AuditViolation> &violations);

/** Process exit status cliMain() uses for an escaped AuditError. */
constexpr int auditExitStatus = 2;

/**
 * Top-level CLI handler for benches and examples: run `body` and map
 * escaped errors to the historical process-exit behaviour — user /
 * trace errors print "fatal: ..." and exit(1), audit failures print
 * "audit: ..." and exit(auditExitStatus), internal errors print
 * "panic: ..." and abort so a core dump stays useful.
 */
int cliMain(const std::function<int()> &body);

} // namespace rampage

/**
 * Check a simulator invariant; throws InternalError with location info
 * on failure.  Unlike assert() this is active in release builds — the
 * simulator is always expected to self-check its core invariants.
 * Throwing (rather than aborting) lets a sweep campaign record the bug
 * and move to the next point; a standalone CLI still aborts via
 * cliMain().
 */
#define RAMPAGE_ASSERT(cond, msg)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            throw ::rampage::InternalError(                                \
                "assertion '%s' failed at %s:%d: %s", #cond, __FILE__,     \
                __LINE__, msg);                                            \
        }                                                                  \
    } while (0)

#endif // RAMPAGE_UTIL_ERROR_HH
