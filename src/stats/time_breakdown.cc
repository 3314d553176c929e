#include "stats/time_breakdown.hh"

#include <cstdio>

namespace rampage
{

Tick
TimeBreakdown::total() const
{
    Tick sum = 0;
    for (Tick t : ticks)
        sum += t;
    return sum;
}

double
TimeBreakdown::fraction(TimeLevel level) const
{
    Tick sum = total();
    if (sum == 0)
        return 0.0;
    return static_cast<double>(at(level)) / static_cast<double>(sum);
}

std::string
TimeBreakdown::render(const std::string &l2_name) const
{
    std::string out;
    char buf[64];
    for (std::size_t i = 0; i < numTimeLevels; ++i) {
        auto level = static_cast<TimeLevel>(i);
        std::snprintf(buf, sizeof(buf), "%s=%.1f%% ",
                      timeLevelName(level, l2_name).c_str(),
                      100.0 * fraction(level));
        out += buf;
    }
    return out;
}

void
TimeBreakdown::reset()
{
    ticks.fill(0);
}

std::string
timeLevelName(TimeLevel level, const std::string &l2_name)
{
    switch (level) {
      case TimeLevel::L1I:
        return "L1i";
      case TimeLevel::L1D:
        return "L1d";
      case TimeLevel::L2:
        return l2_name;
      case TimeLevel::Dram:
        return "DRAM";
    }
    return "?";
}

} // namespace rampage
