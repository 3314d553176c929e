#include "util/units.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

namespace
{

/**
 * Split "<number><suffix>" into its numeric value and lower-cased
 * suffix; throws ConfigError on an empty or non-numeric prefix.
 */
void
splitNumberSuffix(const std::string &text, double &number,
                  std::string &suffix)
{
    std::size_t pos = 0;
    try {
        number = std::stod(text, &pos);
    } catch (...) {
        throw ConfigError("cannot parse quantity '%s'", text.c_str());
    }
    if (pos == 0)
        throw ConfigError("cannot parse quantity '%s'", text.c_str());
    suffix.clear();
    for (std::size_t i = pos; i < text.size(); ++i) {
        if (!std::isspace(static_cast<unsigned char>(text[i])))
            suffix.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(text[i]))));
    }
}

} // namespace

std::uint64_t
parseCount(const std::string &text, const char *origin)
{
    const char *cstr = text.c_str();
    if (!std::isdigit(static_cast<unsigned char>(cstr[0])))
        throw ConfigError("%s: expected an unsigned integer, got '%s'",
                          origin, cstr);
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(cstr, &end, 10);
    if (errno == ERANGE)
        throw ConfigError("%s: value '%s' is out of range", origin,
                          cstr);
    if (*end != '\0')
        throw ConfigError(
            "%s: trailing junk after the number in '%s'", origin, cstr);
    return value;
}

std::uint64_t
parseByteSize(const std::string &text)
{
    double number = 0.0;
    std::string suffix;
    splitNumberSuffix(text, number, suffix);

    double scale = 1.0;
    if (suffix.empty() || suffix == "b") {
        scale = 1.0;
    } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
        scale = static_cast<double>(kib);
    } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
        scale = static_cast<double>(mib);
    } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
        scale = static_cast<double>(gib);
    } else {
        throw ConfigError("unknown byte-size suffix in '%s'", text.c_str());
    }
    double bytes = number * scale;
    if (bytes < 0 || bytes != std::floor(bytes))
        throw ConfigError("byte size '%s' is not a whole number of bytes",
                          text.c_str());
    return static_cast<std::uint64_t>(bytes);
}

std::uint64_t
parseFrequency(const std::string &text)
{
    double number = 0.0;
    std::string suffix;
    splitNumberSuffix(text, number, suffix);

    double scale = 1.0;
    if (suffix.empty() || suffix == "hz") {
        scale = 1.0;
    } else if (suffix == "khz") {
        scale = 1e3;
    } else if (suffix == "mhz") {
        scale = 1e6;
    } else if (suffix == "ghz") {
        scale = 1e9;
    } else {
        throw ConfigError("unknown frequency suffix in '%s'", text.c_str());
    }
    double hz = number * scale;
    if (hz <= 0)
        throw ConfigError("frequency '%s' must be positive", text.c_str());
    return static_cast<std::uint64_t>(hz + 0.5);
}

std::string
formatByteSize(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= gib && bytes % gib == 0)
        std::snprintf(buf, sizeof(buf), "%lluGB",
                      static_cast<unsigned long long>(bytes / gib));
    else if (bytes >= mib && bytes % mib == 0)
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(bytes / mib));
    else if (bytes >= kib && bytes % kib == 0)
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(bytes / kib));
    else
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

std::string
formatFrequency(std::uint64_t hz)
{
    char buf[32];
    if (hz >= 1000000000ull && hz % 1000000000ull == 0)
        std::snprintf(buf, sizeof(buf), "%lluGHz",
                      static_cast<unsigned long long>(hz / 1000000000ull));
    else if (hz >= 1000000ull && hz % 1000000ull == 0)
        std::snprintf(buf, sizeof(buf), "%lluMHz",
                      static_cast<unsigned long long>(hz / 1000000ull));
    else if (hz >= 1000ull && hz % 1000ull == 0)
        std::snprintf(buf, sizeof(buf), "%llukHz",
                      static_cast<unsigned long long>(hz / 1000ull));
    else
        std::snprintf(buf, sizeof(buf), "%lluHz",
                      static_cast<unsigned long long>(hz));
    return buf;
}

std::string
formatSeconds(Tick ps, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f",
                  precision, static_cast<double>(ps) / psPerSec);
    return buf;
}

Tick
cycleTimePs(std::uint64_t hz)
{
    RAMPAGE_ASSERT(hz > 0, "issue rate must be positive");
    // Round to nearest picosecond; all paper rates divide 1e12 evenly.
    return (psPerSec + hz / 2) / hz;
}

} // namespace rampage
