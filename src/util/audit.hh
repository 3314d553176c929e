/**
 * @file
 * Violation collector for runtime model-integrity audits.
 *
 * Every auditable component (cache, tlb, pager, var_pager,
 * inverted_page_table, dram_directory, scheduler, the hierarchies)
 * exposes an `auditState(AuditContext &)` member that walks its live
 * state and calls check() per invariant.  AuditContext records each
 * failed check as a structured AuditViolation — a bounded list that
 * the AuditError carries into the CLI's and the sweep's post-mortems
 * — and counts every check so clean audits are visible in the stats
 * snapshot.  The Auditor (src/core/audit.hh) drives the
 * walk and raises AuditError from the collected report.
 *
 * AuditContext lives in util — below every audited component — so the
 * component libraries need no dependency on src/core.
 */

#ifndef RAMPAGE_UTIL_AUDIT_HH
#define RAMPAGE_UTIL_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hh"

namespace rampage
{

/** Collects invariant checks and violations during one audit run. */
class AuditContext
{
  public:
    /** @param scope where the audit runs ("quantum boundary ..."). */
    explicit AuditContext(std::string scope);

    /**
     * Check one invariant.  `invariant` is its stable dotted name
     * ("inclusion.l1", "time.conservation", ...); the printf-style
     * detail is only formatted on failure, so paranoid-level audits
     * stay cheap on the (overwhelmingly common) clean path.
     * @return `ok`, so callers can gate dependent checks.
     */
    bool check(bool ok, const char *invariant, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));

    /** Checks performed so far (clean or not). */
    std::uint64_t checksRun() const { return nChecks; }

    /** True when every check so far passed. */
    bool clean() const { return viol.empty(); }

    const std::string &scope() const { return scopeName; }
    const std::vector<AuditViolation> &violations() const
    {
        return viol;
    }

    /** Throw AuditError carrying the report; no-op when clean. */
    void raiseIfViolated();

  private:
    std::string scopeName;
    std::vector<AuditViolation> viol;
    std::uint64_t nChecks = 0;
    std::uint64_t nViolations = 0; ///< including ones past the cap
};

} // namespace rampage

#endif // RAMPAGE_UTIL_AUDIT_HH
