#include "util/error.hh"

#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace rampage
{

const char *
errorCategoryName(ErrorCategory category)
{
    switch (category) {
      case ErrorCategory::Config:
        return "config";
      case ErrorCategory::Trace:
        return "trace";
      case ErrorCategory::Internal:
        return "internal";
      case ErrorCategory::Audit:
        return "audit";
      case ErrorCategory::Io:
        return "io";
      case ErrorCategory::Timeout:
        return "timeout";
    }
    return "unknown";
}

namespace
{

std::string
formatAuditMessage(const std::string &scope,
                   const std::vector<AuditViolation> &violations)
{
    std::string msg = formatErrorMessage(
        "model-integrity audit failed at %s: %zu violation%s",
        scope.c_str(), violations.size(),
        violations.size() == 1 ? "" : "s");
    // Keep the what() line bounded; the full list stays available
    // through violations().
    constexpr std::size_t maxListed = 4;
    for (std::size_t i = 0; i < violations.size() && i < maxListed; ++i) {
        msg += i == 0 ? ": " : "; ";
        msg += "[" + violations[i].invariant + "] " +
               violations[i].detail;
    }
    if (violations.size() > maxListed)
        msg += formatErrorMessage(" (+%zu more)",
                                  violations.size() - maxListed);
    return msg;
}

} // namespace

AuditError::AuditError(std::string scope,
                       std::vector<AuditViolation> violations)
    : SimError(ErrorCategory::Audit,
               formatAuditMessage(scope, violations)),
      where(std::move(scope)), viol(std::move(violations))
{
}

const std::string &
AuditError::firstInvariant() const
{
    static const std::string none = "none";
    return viol.empty() ? none : viol.front().invariant;
}

void
printAuditViolations(std::FILE *out, const std::string &scope,
                     const std::vector<AuditViolation> &violations)
{
    for (const AuditViolation &v : violations)
        std::fprintf(out, "  audit: violated %s at %s: %s\n",
                     v.invariant.c_str(), scope.c_str(), v.detail.c_str());
}

std::string
vformatErrorMessage(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0)
        return fmt; // formatting itself failed; keep the raw template

    std::string message(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(message.data(), message.size() + 1, fmt, args);
    return message;
}

std::string
formatErrorMessage(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string message = vformatErrorMessage(fmt, args);
    va_end(args);
    return message;
}

ConfigError::ConfigError(const char *fmt, ...)
    : SimError(ErrorCategory::Config, std::string())
{
    va_list args;
    va_start(args, fmt);
    setMessage(vformatErrorMessage(fmt, args));
    va_end(args);
}

TraceError::TraceError(const char *fmt, ...)
    : SimError(ErrorCategory::Trace, std::string())
{
    va_list args;
    va_start(args, fmt);
    setMessage(vformatErrorMessage(fmt, args));
    va_end(args);
}

InternalError::InternalError(const char *fmt, ...)
    : SimError(ErrorCategory::Internal, std::string())
{
    va_list args;
    va_start(args, fmt);
    setMessage(vformatErrorMessage(fmt, args));
    va_end(args);
}

IoError::IoError(const char *fmt, ...)
    : SimError(ErrorCategory::Io, std::string())
{
    va_list args;
    va_start(args, fmt);
    setMessage(vformatErrorMessage(fmt, args));
    va_end(args);
}

TimeoutError::TimeoutError(std::uint64_t refs_executed, const char *fmt,
                           ...)
    : SimError(ErrorCategory::Timeout, std::string()),
      refs(refs_executed)
{
    va_list args;
    va_start(args, fmt);
    setMessage(vformatErrorMessage(fmt, args));
    va_end(args);
}

int
cliMain(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const AuditError &e) {
        // The model's live state failed an integrity audit: print
        // every recorded violation (what() lists only the first few)
        // and exit with the distinct audit status so CI can tell a
        // caught model corruption from an ordinary fatal error.
        printAuditViolations(stderr, e.scope(), e.violations());
        std::fprintf(stderr, "audit: %s\n", e.what());
        std::exit(auditExitStatus);
    } catch (const InternalError &e) {
        panic("%s", e.what());
    } catch (const SimError &e) {
        fatal("%s", e.what());
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
}

} // namespace rampage
