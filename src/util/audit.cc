#include "util/audit.hh"

#include <cstdarg>

namespace rampage
{

namespace
{

/**
 * A single corrupted structure can violate one invariant thousands of
 * times (every L1 block of a leaked page, say); keep the report and
 * the what() line bounded while still counting everything.
 */
constexpr std::size_t maxRecordedViolations = 16;

} // namespace

AuditContext::AuditContext(std::string scope)
    : scopeName(std::move(scope))
{
}

bool
AuditContext::check(bool ok, const char *invariant, const char *fmt, ...)
{
    ++nChecks;
    if (ok)
        return true;

    ++nViolations;
    va_list args;
    va_start(args, fmt);
    std::string detail = vformatErrorMessage(fmt, args);
    va_end(args);

    if (viol.size() < maxRecordedViolations)
        viol.push_back(AuditViolation{invariant, std::move(detail)});
    return false;
}

void
AuditContext::raiseIfViolated()
{
    if (viol.empty())
        return;
    if (nViolations > viol.size())
        viol.push_back(AuditViolation{
            "audit.truncated",
            formatErrorMessage(
                "%llu further violations not recorded",
                static_cast<unsigned long long>(nViolations -
                                                viol.size()))});
    throw AuditError(scopeName, std::move(viol));
}

} // namespace rampage
