/**
 * @file
 * Tests for the experiment scaffolding: knob-driven scale and run
 * settings, issue-rate lists and the canonical §4 configurations.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

#include "core/audit.hh"
#include "core/fault_injection.hh"
#include "core/sweep.hh"
#include "obs/obs_config.hh"
#include "util/error.hh"
#include "util/knob.hh"

namespace rampage
{
namespace
{

/** RAII environment-variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : varName(name)
    {
        const char *old = std::getenv(name);
        hadOld = old != nullptr;
        if (hadOld)
            oldValue = old;
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(varName.c_str(), oldValue.c_str(), 1);
        else
            ::unsetenv(varName.c_str());
    }

  private:
    std::string varName;
    std::string oldValue;
    bool hadOld;
};

TEST(Sweep, DefaultScale)
{
    ::unsetenv("RAMPAGE_REFS");
    ::unsetenv("RAMPAGE_QUANTUM");
    ::unsetenv("RAMPAGE_FULL");
    ExperimentScale scale = experimentScale();
    EXPECT_EQ(scale.refs, 24'000'000u);
    EXPECT_EQ(scale.quantumRefs, 120'000u);
}

TEST(Sweep, EnvOverridesScale)
{
    ScopedEnv refs("RAMPAGE_REFS", "5000000");
    ScopedEnv quantum("RAMPAGE_QUANTUM", "50000");
    ExperimentScale scale = experimentScale();
    EXPECT_EQ(scale.refs, 5'000'000u);
    EXPECT_EQ(scale.quantumRefs, 50'000u);
}

TEST(Sweep, FullScaleIsPaperScale)
{
    ScopedEnv full("RAMPAGE_FULL", "1");
    ::unsetenv("RAMPAGE_REFS");
    ::unsetenv("RAMPAGE_QUANTUM");
    ExperimentScale scale = experimentScale();
    EXPECT_EQ(scale.refs, 1'100'000'000u); // §4.2
    EXPECT_EQ(scale.quantumRefs, 500'000u);
}

// RAMPAGE_FULL is a strict 0/1 switch, like RAMPAGE_ISOLATE: "0" is
// the default scale, not "set, so paper scale".
TEST(Sweep, FullScaleSwitchIsStrict)
{
    ::unsetenv("RAMPAGE_REFS");
    ::unsetenv("RAMPAGE_QUANTUM");
    {
        ScopedEnv full("RAMPAGE_FULL", "0");
        EXPECT_EQ(experimentScale().refs, 24'000'000u);
        EXPECT_EQ(experimentScale().quantumRefs, 120'000u);
    }
    {
        ScopedEnv full("RAMPAGE_FULL", "1");
        EXPECT_EQ(experimentScale().refs, 1'100'000'000u);
    }
    ScopedEnv full("RAMPAGE_FULL", "yes");
    try {
        experimentScale();
        ADD_FAILURE() << "RAMPAGE_FULL=yes was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("RAMPAGE_FULL"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sweep, ExplicitRefsBeatFullScale)
{
    ScopedEnv full("RAMPAGE_FULL", "1");
    ScopedEnv refs("RAMPAGE_REFS", "7");
    EXPECT_EQ(experimentScale().refs, 7u);
}

TEST(Sweep, DefaultRatesSpanPaperSweep)
{
    ::unsetenv("RAMPAGE_RATES");
    auto rates = issueRates();
    ASSERT_GE(rates.size(), 3u);
    EXPECT_EQ(rates.front(), 200'000'000u);  // §4.3 low end
    EXPECT_EQ(rates.back(), 4'000'000'000u); // §4.3 high end
    for (std::size_t i = 1; i < rates.size(); ++i)
        EXPECT_GT(rates[i], rates[i - 1]);
}

TEST(Sweep, RatesFromEnv)
{
    ScopedEnv env("RAMPAGE_RATES", "250MHz,1GHz");
    auto rates = issueRates();
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_EQ(rates[0], 250'000'000u);
    EXPECT_EQ(rates[1], 1'000'000'000u);
}

/** The ConfigError must name the variable and echo the bad text. */
void
expectScaleRejects(const char *var, const char *value)
{
    ScopedEnv env(var, value);
    try {
        experimentScale();
        FAIL() << var << "=" << value << " was accepted";
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find(var), std::string::npos) << what;
        EXPECT_NE(what.find(value), std::string::npos) << what;
    }
}

TEST(Sweep, RejectsNonNumericScale)
{
    // strtoull alone parses "abc" as 0 without setting errno; the
    // validated parser must refuse it instead.
    expectScaleRejects("RAMPAGE_REFS", "abc");
    expectScaleRejects("RAMPAGE_QUANTUM", "abc");
}

TEST(Sweep, RejectsTrailingJunkInScale)
{
    // "24x" silently truncates to 24 under bare strtoull.
    expectScaleRejects("RAMPAGE_REFS", "24x");
    expectScaleRejects("RAMPAGE_QUANTUM", "24x");
}

TEST(Sweep, RejectsSignedScale)
{
    // "-5" wraps to a huge unsigned value under bare strtoull.
    expectScaleRejects("RAMPAGE_REFS", "-5");
    expectScaleRejects("RAMPAGE_QUANTUM", "-5");
}

TEST(Sweep, RejectsOutOfRangeScale)
{
    expectScaleRejects("RAMPAGE_REFS", "99999999999999999999999999");
}

TEST(Sweep, RejectsZeroScale)
{
    ScopedEnv refs("RAMPAGE_REFS", "0");
    EXPECT_THROW(experimentScale(), ConfigError);
}

TEST(Sweep, RatesErrorNamesVariable)
{
    ScopedEnv env("RAMPAGE_RATES", "1GHz,garbage");
    try {
        issueRates();
        FAIL() << "RAMPAGE_RATES=1GHz,garbage was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("RAMPAGE_RATES"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Sweep, ParseJobsValidates)
{
    EXPECT_EQ(parseJobs("1"), 1u);
    EXPECT_EQ(parseJobs("4"), 4u);
    EXPECT_EQ(parseJobs("256"), maxSweepJobs);
    EXPECT_THROW(parseJobs("abc"), ConfigError);
    EXPECT_THROW(parseJobs("4x"), ConfigError);
    EXPECT_THROW(parseJobs("-2"), ConfigError);
    EXPECT_THROW(parseJobs("0"), ConfigError);
    EXPECT_THROW(parseJobs("257"), ConfigError);
    EXPECT_THROW(parseJobs(""), ConfigError);
    try {
        parseJobs("lots", "RAMPAGE_JOBS");
        FAIL() << "parseJobs accepted 'lots'";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("RAMPAGE_JOBS"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Knob, FlagWinsAndEmptyMeansUnset)
{
    ScopedEnv env("RAMPAGE_KNOB_PROBE", "");
    EXPECT_EQ(knob("RAMPAGE_KNOB_PROBE"), nullptr); // empty is unset
    ::setenv("RAMPAGE_KNOB_PROBE", "env", 1);
    EXPECT_STREQ(knob("RAMPAGE_KNOB_PROBE"), "env");
    setKnob("RAMPAGE_KNOB_PROBE", "flag");
    EXPECT_STREQ(knob("RAMPAGE_KNOB_PROBE"), "flag");
    setKnob("RAMPAGE_KNOB_PROBE", "");
    EXPECT_STREQ(knob("RAMPAGE_KNOB_PROBE"), "env");
}

/** Print a resolved knob value for comparison ("1.25", "paranoid"). */
template <typename T>
std::string
shown(const T &value)
{
    std::ostringstream out;
    out << value;
    return out.str();
}

/** One flag-backed knob, as a bench flag and its variable set it. */
struct KnobCase
{
    const char *variable;
    std::function<std::string()> resolve;
    std::string unset;    ///< resolved value with neither source set
    const char *envText;  ///< a valid variable value ...
    std::string envValue; ///< ... and what it resolves to
    const char *flagText; ///< a different valid flag value ...
    std::string flagValue;
    /** Bad variable text that must throw naming the variable; null
     *  when the resolver does not validate (see the rows). */
    const char *badText;
};

TEST(Sweep, FlagKnobPrecedence)
{
    const KnobCase cases[] = {
        {"RAMPAGE_JOBS", [] { return shown(resolveJobs()); }, "1", "3",
         "3", "8", "8", "4x"},
        {"RAMPAGE_CORES", [] { return shown(resolveCores()); }, "0", "2",
         "2", "4", "4", "0"},
        {"RAMPAGE_DEADLINE", [] { return shown(resolvePointDeadline()); },
         "0", "1.25", "1.25", "2.5", "2.5", "soon"},
        // --isolate stores "1"; setKnob("0") shows the flag side wins.
        {"RAMPAGE_ISOLATE", [] { return shown(resolveIsolate()); }, "0",
         "1", "1", "0", "0", "yes"},
        // A bad RAMPAGE_AUDIT warns and audits at boundaries instead
        // of throwing (its own row below).
        {"RAMPAGE_AUDIT",
         [] { return shown(auditLevelName(resolveAuditLevel())); },
         "off", "paranoid", "paranoid", "boundaries", "boundaries",
         nullptr},
        // The fault spec is parsed when the run starts, not here.
        {"RAMPAGE_INJECT_FAULT", [] { return resolveFaultPlanSpec(); },
         "", "l1-tag-flip", "l1-tag-flip", "dir-alias:7", "dir-alias:7",
         nullptr},
        // Any text is a path.
        {"RAMPAGE_TRACE_OUT",
         [] { return resolveObsSettings().traceOutBase; }, "", "env",
         "env", "flag", "flag", nullptr},
        {"RAMPAGE_STATS_INTERVAL",
         [] { return shown(resolveObsSettings().statsIntervalRefs); },
         "0", "4000", "4000", "3001", "3001", "-1"},
    };
    for (const KnobCase &c : cases) {
        SCOPED_TRACE(c.variable);
        // CI runs the suite with some knobs set; park each during its
        // checks (empty means unset) and let ScopedEnv restore it.
        ScopedEnv park(c.variable, "");
        setKnob(c.variable, "");
        EXPECT_EQ(c.resolve(), c.unset);
        {
            ScopedEnv env(c.variable, c.envText);
            EXPECT_EQ(c.resolve(), c.envValue);
            setKnob(c.variable, c.flagText);
            EXPECT_EQ(c.resolve(), c.flagValue);
            setKnob(c.variable, "");
            EXPECT_EQ(c.resolve(), c.envValue);
        }
        EXPECT_EQ(c.resolve(), c.unset);
        if (!c.badText)
            continue;
        ScopedEnv bad(c.variable, c.badText);
        try {
            c.resolve();
            ADD_FAILURE() << c.variable << "=" << c.badText
                          << " was accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(c.variable),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Sweep, BadAuditVariableFallsBackToBoundaries)
{
    ScopedEnv env("RAMPAGE_AUDIT", "loud");
    setKnob("RAMPAGE_AUDIT", "");
    EXPECT_EQ(resolveAuditLevel(), AuditLevel::Boundaries);
}

TEST(Sweep, BlockSizeSweepIsPapers)
{
    auto sizes = blockSizeSweep();
    ASSERT_EQ(sizes.size(), 6u);
    EXPECT_EQ(sizes.front(), 128u);
    EXPECT_EQ(sizes.back(), 4096u);
}

TEST(Sweep, BaselineConfigMatchesPaper)
{
    ConventionalConfig cfg = baselineConfig(200'000'000ull, 128);
    EXPECT_EQ(cfg.l2SizeBytes, 4 * mib);
    EXPECT_EQ(cfg.l2Assoc, 1u);
    EXPECT_EQ(cfg.common.l1SizeBytes, 16 * kib);
    EXPECT_EQ(cfg.common.l1BlockBytes, 32u);
    EXPECT_EQ(cfg.common.tlb.entries, 64u);
    EXPECT_EQ(cfg.common.tlb.assoc, 0u); // fully associative
    EXPECT_EQ(cfg.common.l2HitCycles, 12u);
    EXPECT_EQ(cfg.common.l1WritebackCycles, 12u);
    EXPECT_EQ(cfg.common.l1WritebackCyclesRampage, 9u);
    EXPECT_EQ(cfg.common.rambus.accessLatencyPs, 50'000u);
    EXPECT_EQ(cfg.common.rambus.bytesPerBeat, 2u);
    EXPECT_EQ(cfg.common.dramPageBytes, 4096u);
}

TEST(Sweep, TwoWayConfigMatchesPaper)
{
    ConventionalConfig cfg = twoWayConfig(1'000'000'000ull, 2048);
    EXPECT_EQ(cfg.l2Assoc, 2u);
    EXPECT_EQ(cfg.l2Repl, ReplPolicy::Random); // §4.7
    EXPECT_EQ(cfg.l2BlockBytes, 2048u);
}

TEST(Sweep, RampageConfigMatchesPaper)
{
    RampageConfig cfg = rampageConfig(1'000'000'000ull, 128, true);
    EXPECT_EQ(cfg.pager.pageBytes, 128u);
    EXPECT_EQ(cfg.pager.baseSramBytes, 4 * mib);
    EXPECT_EQ(cfg.pager.tagBytesPerBlock, 4u);
    EXPECT_EQ(cfg.pager.repl, PageReplKind::Clock);
    EXPECT_TRUE(cfg.switchOnMiss);
}

} // namespace
} // namespace rampage
