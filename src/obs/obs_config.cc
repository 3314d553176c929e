#include "obs/obs_config.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/error.hh"

namespace rampage
{

namespace
{

const char *
envOrNull(const char *name)
{
    const char *value = std::getenv(name);
    return (value && *value) ? value : nullptr;
}

/** Strict unsigned parse (mirrors the sweep knobs'). */
std::uint64_t
parseObsCount(const char *origin, const char *text)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        throw ConfigError("%s: expected an unsigned integer, got '%s'",
                          origin, text);
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno == ERANGE)
        throw ConfigError("%s: value '%s' is out of range", origin,
                          text);
    if (end == text || *end != '\0')
        throw ConfigError(
            "%s: trailing junk after the number in '%s'", origin, text);
    return value;
}

std::string traceOutOverride;
std::uint64_t statsIntervalOverride = 0;
std::string fileBaseOverride;

thread_local std::string threadPointLabel;

/** Sequence for runs outside a labeled sweep point. */
std::atomic<std::uint64_t> runSequence{0};

} // namespace

std::uint64_t
parseStatsInterval(const std::string &text, const char *origin)
{
    std::uint64_t refs = parseObsCount(origin, text.c_str());
    if (refs == 0)
        throw ConfigError("%s: interval must be a positive number of "
                          "references, got '%s'",
                          origin, text.c_str());
    return refs;
}

std::size_t
parseTraceRingCapacity(const std::string &text, const char *origin)
{
    std::uint64_t events = parseObsCount(origin, text.c_str());
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
    if (!traceOutOverride.empty())
        obs.traceOutBase = traceOutOverride;
    else if (const char *env = envOrNull("RAMPAGE_TRACE_OUT"))
        obs.traceOutBase = env;

    if (statsIntervalOverride > 0)
        obs.statsIntervalRefs = statsIntervalOverride;
    else if (const char *env = envOrNull("RAMPAGE_STATS_INTERVAL"))
        obs.statsIntervalRefs =
            parseStatsInterval(env, "RAMPAGE_STATS_INTERVAL");

    if (!obs.traceOutBase.empty())
        obs.intervalOutBase = obs.traceOutBase;
    else if (!fileBaseOverride.empty())
        obs.intervalOutBase = fileBaseOverride;
    else
        obs.intervalOutBase = "rampage";

    if (const char *env = envOrNull("RAMPAGE_TRACE_RING"))
        obs.traceRingCapacity =
            parseTraceRingCapacity(env, "RAMPAGE_TRACE_RING");
    return obs;
}

void
setTraceOutOverride(const std::string &base)
{
    traceOutOverride = base;
}

void
setStatsIntervalOverride(std::uint64_t refs)
{
    statsIntervalOverride = refs;
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
