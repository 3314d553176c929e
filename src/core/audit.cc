#include "core/audit.hh"

#include "core/cost_model.hh"
#include "core/hierarchy.hh"
#include "os/scheduler.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/knob.hh"
#include "util/logging.hh"

namespace rampage
{

const char *
auditLevelName(AuditLevel level)
{
    switch (level) {
      case AuditLevel::Off:
        return "off";
      case AuditLevel::Boundaries:
        return "boundaries";
      case AuditLevel::Paranoid:
        return "paranoid";
    }
    return "unknown";
}

AuditLevel
parseAuditLevel(const std::string &spec)
{
    if (spec == "off")
        return AuditLevel::Off;
    if (spec == "boundaries")
        return AuditLevel::Boundaries;
    if (spec == "paranoid")
        return AuditLevel::Paranoid;
    throw ConfigError(
        "unknown audit level '%s' (known: off, boundaries, paranoid)",
        spec.c_str());
}

AuditLevel
resolveAuditLevel()
{
    const char *text = knob("RAMPAGE_AUDIT");
    if (!text)
        return AuditLevel::Off;
    try {
        return parseAuditLevel(text);
    } catch (const ConfigError &) {
        // The variable was set to request auditing; honouring the
        // intent beats silently running unaudited.
        warnOnce("RAMPAGE_AUDIT: unknown level '%s', auditing at "
                 "'boundaries' (known: off, boundaries, paranoid)",
                 text);
        return AuditLevel::Boundaries;
    }
}

void
Auditor::walkHierarchy(const Hierarchy &hier, AuditContext &ctx)
{
    hier.auditState(ctx);
}

void
Auditor::auditHierarchy(const Hierarchy &hier, const std::string &scope)
{
    if (!enabled())
        return;
    AuditContext ctx(scope);
    walkHierarchy(hier, ctx);
    ++nRuns;
    nChecks += ctx.checksRun();
    ctx.raiseIfViolated();
}

void
Auditor::auditBlocking(const Hierarchy &hier, Tick elapsed_ps,
                       const std::string &scope)
{
    if (!enabled())
        return;
    AuditContext ctx(scope);
    walkHierarchy(hier, ctx);

    // Blocking runs accrue every picosecond through the event counts,
    // so pricing them back at the run's own issue rate must reproduce
    // the elapsed time exactly.  This is the identity that lets one
    // behavioural run be re-priced across the paper's 200 MHz - 4 GHz
    // sweep; a skewed cycle accumulator breaks it immediately.
    Tick priced = totalTimePs(hier.counts(),
                              hier.commonConfig().issueHz);
    ctx.check(priced == elapsed_ps, "time.conservation",
              "elapsed %llu ps but events re-price to %llu ps at "
              "%llu Hz (drift %lld ps)",
              static_cast<unsigned long long>(elapsed_ps),
              static_cast<unsigned long long>(priced),
              static_cast<unsigned long long>(
                  hier.commonConfig().issueHz),
              static_cast<long long>(priced) -
                  static_cast<long long>(elapsed_ps));

    ++nRuns;
    nChecks += ctx.checksRun();
    ctx.raiseIfViolated();
}

void
Auditor::auditSwitchOnMiss(const Hierarchy &hier, const Scheduler &sched,
                           Tick now, const std::string &scope)
{
    if (!enabled())
        return;
    AuditContext ctx(scope);
    walkHierarchy(hier, ctx);
    sched.auditState(ctx, now);
    ++nRuns;
    nChecks += ctx.checksRun();
    ctx.raiseIfViolated();
}

} // namespace rampage
