#include "obs/obs_config.hh"

#include <atomic>
#include <cctype>

#include "util/error.hh"
#include "util/knob.hh"
#include "util/units.hh"

namespace rampage
{

namespace
{

std::string fileBaseOverride;

thread_local std::string threadPointLabel;

/** Sequence for runs outside a labeled sweep point. */
std::atomic<std::uint64_t> runSequence{0};

} // namespace

std::uint64_t
parseStatsInterval(const std::string &text, const char *origin)
{
    std::uint64_t refs = parseCount(text, origin);
    if (refs == 0)
        throw ConfigError("%s: interval must be a positive number of "
                          "references, got '%s'",
                          origin, text.c_str());
    return refs;
}

std::size_t
parseTraceRingCapacity(const std::string &text, const char *origin)
{
    std::uint64_t events = parseCount(text, origin);
    if (events == 0)
        throw ConfigError(
            "%s: ring capacity must be positive, got '%s'", origin,
            text.c_str());
    return static_cast<std::size_t>(events);
}

ObsSettings
resolveObsSettings()
{
    ObsSettings obs;
    if (const char *text = knob("RAMPAGE_TRACE_OUT"))
        obs.traceOutBase = text;

    if (const char *text = knob("RAMPAGE_STATS_INTERVAL"))
        obs.statsIntervalRefs =
            parseStatsInterval(text, "RAMPAGE_STATS_INTERVAL");

    if (!obs.traceOutBase.empty())
        obs.intervalOutBase = obs.traceOutBase;
    else if (!fileBaseOverride.empty())
        obs.intervalOutBase = fileBaseOverride;
    else
        obs.intervalOutBase = "rampage";

    if (const char *text = knob("RAMPAGE_TRACE_RING"))
        obs.traceRingCapacity =
            parseTraceRingCapacity(text, "RAMPAGE_TRACE_RING");
    return obs;
}

void
setObsFileBaseOverride(const std::string &base)
{
    fileBaseOverride = base;
}

void
setObsPointLabel(const std::string &label)
{
    threadPointLabel = label;
}

const std::string &
obsPointLabel()
{
    return threadPointLabel;
}

std::string
obsRunLabel()
{
    std::string label = threadPointLabel;
    if (label.empty())
        label = "run" + std::to_string(
                            runSequence.fetch_add(1,
                                                  std::memory_order_relaxed));
    for (char &c : label) {
        bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '.' || c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    return label;
}

std::string
obsRunFilePath(const std::string &base, const std::string &label,
               const char *suffix)
{
    return base + "." + label + suffix;
}

} // namespace rampage
