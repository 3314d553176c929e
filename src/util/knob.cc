#include "util/knob.hh"

#include <cstdlib>
#include <map>

namespace rampage
{

namespace
{

std::map<std::string, std::string> &
cliKnobs()
{
    static std::map<std::string, std::string> values;
    return values;
}

} // namespace

const char *
knob(const char *name)
{
    const auto &values = cliKnobs();
    auto it = values.find(name);
    if (it != values.end())
        return it->second.c_str();
    const char *env = std::getenv(name);
    return (env && *env) ? env : nullptr;
}

void
setKnob(const char *name, const std::string &text)
{
    if (text.empty())
        cliKnobs().erase(name);
    else
        cliKnobs()[name] = text;
}

} // namespace rampage
