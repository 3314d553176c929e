#include "core/deadline.hh"

#include <chrono>

#include "util/error.hh"

namespace rampage
{

namespace
{

using Clock = std::chrono::steady_clock;

struct DeadlineState
{
    bool armed = false;
    Clock::time_point limit;
    double seconds = 0; ///< the configured budget, for messages
};

DeadlineState &
state()
{
    thread_local DeadlineState instance;
    return instance;
}

} // namespace

void
armPointDeadline(double seconds)
{
    if (seconds <= 0)
        throw ConfigError(
            "point deadline must be positive, got %f s", seconds);
    DeadlineState &d = state();
    d.armed = true;
    d.seconds = seconds;
    d.limit = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
}

void
disarmPointDeadline()
{
    state().armed = false;
}

bool
pointDeadlineArmed()
{
    return state().armed;
}

void
pollPointDeadline(std::uint64_t refs_executed)
{
    DeadlineState &d = state();
    if (!d.armed || Clock::now() < d.limit)
        return;
    d.armed = false; // the unwind must not re-trip the cancel
    throw TimeoutError(
        refs_executed,
        "point deadline of %g s exceeded after %llu hierarchy "
        "references; cancelling cooperatively",
        d.seconds, static_cast<unsigned long long>(refs_executed));
}

} // namespace rampage
