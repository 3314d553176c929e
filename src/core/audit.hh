/**
 * @file
 * Runtime model-integrity audits.
 *
 * A long behavioural run is only as trustworthy as the state it
 * accumulates: a latent bug that corrupts a cache tag, leaks an SRAM
 * frame or skews a cycle accumulator produces *plausible* numbers,
 * not a crash.  The Auditor walks live component state and verifies
 * the cross-component invariants the RAMpage model is built on —
 * L1 inclusion in the level below, IPT <-> DRAM-directory
 * consistency, no double-mapped or leaked SRAM pages, TLB entries
 * backed by valid mappings, scheduler queue sanity under
 * switch-on-miss, and conservation of the event/time accounting.
 *
 * The Simulator audits at quantum boundaries and at end-of-run
 * (AuditLevel::Boundaries), or additionally after every miss that
 * reached the SRAM/L2 level (AuditLevel::Paranoid).  Audits are
 * side-effect-free: a run with audits enabled produces byte-identical
 * simulation output.  Violations raise AuditError (util/error.hh)
 * carrying a structured report; fault_injection.hh provides the
 * matching deterministic corruptions that prove each checker fires.
 */

#ifndef RAMPAGE_CORE_AUDIT_HH
#define RAMPAGE_CORE_AUDIT_HH

#include <cstdint>
#include <string>

#include "util/audit.hh"
#include "util/types.hh"

namespace rampage
{

class Hierarchy;
class Scheduler;

/** How aggressively the Simulator audits model state. */
enum class AuditLevel
{
    Off,        ///< no audits (production default)
    Boundaries, ///< quantum boundaries and end-of-run
    Paranoid,   ///< boundaries plus after every L2/SRAM-level miss
};

/** Stable lower-case name ("off", "boundaries", "paranoid"). */
const char *auditLevelName(AuditLevel level);

/** Parse a level name; throws ConfigError on anything else. */
AuditLevel parseAuditLevel(const std::string &spec);

/**
 * The level runs should audit at: the RAMPAGE_AUDIT knob (util/knob.hh;
 * the benches' --audit flag), else Off.  Lenient: an unknown value
 * warns and audits at Boundaries rather than silently disabling.  A
 * flag value was already validated, so only the environment can
 * reach that fallback.
 */
AuditLevel resolveAuditLevel();

/**
 * Drives model-integrity audits over a hierarchy (and, for
 * switch-on-miss runs, the scheduler).  Owned by the Simulator; one
 * Auditor per run accumulates run-level audit counters.
 */
class Auditor
{
  public:
    explicit Auditor(AuditLevel level) : lvl(level) {}

    bool enabled() const { return lvl != AuditLevel::Off; }
    bool paranoid() const { return lvl == AuditLevel::Paranoid; }
    AuditLevel level() const { return lvl; }

    /**
     * Audit structural state only: caches, TLB, pager/page tables,
     * DRAM directory, event-count cross-checks.  Used mid-run, where
     * elapsed time is not yet final.  Throws AuditError.
     */
    void auditHierarchy(const Hierarchy &hier, const std::string &scope);

    /**
     * Structural audit plus time conservation for a *blocking* run:
     * all elapsed time accrues through the event counts, so
     * elapsed == totalTimePs(counts, issueHz) holds exactly — the
     * re-pricing identity the paper's frequency sweep relies on.
     */
    void auditBlocking(const Hierarchy &hier, Tick elapsed_ps,
                       const std::string &scope);

    /**
     * Structural audit plus scheduler queue checks for a
     * switch-on-miss run (whose transfer overlap makes the blocking
     * conservation identity inapplicable).
     */
    void auditSwitchOnMiss(const Hierarchy &hier, const Scheduler &sched,
                           Tick now, const std::string &scope);

    /** Completed audit passes (each may run hundreds of checks). */
    std::uint64_t auditsRun() const { return nRuns; }
    /** Individual invariant checks across all passes. */
    std::uint64_t checksRun() const { return nChecks; }

  private:
    /** Run the shared hierarchy walk into `ctx`. */
    void walkHierarchy(const Hierarchy &hier, AuditContext &ctx);

    AuditLevel lvl;
    std::uint64_t nRuns = 0;
    std::uint64_t nChecks = 0;
};

} // namespace rampage

#endif // RAMPAGE_CORE_AUDIT_HH
