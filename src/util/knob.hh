/**
 * @file
 * The one lookup for run-time settings ("knobs").  A knob is named by
 * its environment variable (RAMPAGE_JOBS, RAMPAGE_AUDIT, ...).  A
 * bench's command-line flag is another spelling of the same knob:
 * benchMain validates the flag's text and stores it with setKnob(),
 * so the flag wins over the variable.  An empty value means unset on
 * either side.  Every resolveX() reads through knob(), so this is the
 * only place that precedence rule lives.
 */

#ifndef RAMPAGE_UTIL_KNOB_HH
#define RAMPAGE_UTIL_KNOB_HH

#include <string>

namespace rampage
{

/**
 * The text of knob `name`: the value stored by setKnob(), else the
 * non-empty environment variable `name`, else null.  The pointer
 * stays valid until the next setKnob() for the same name.
 */
const char *knob(const char *name);

/**
 * Store a command-line value for knob `name`; "" clears it, so the
 * environment applies again.  Not thread-safe: set knobs before any
 * worker starts (benchMain parses its flags first).
 */
void setKnob(const char *name, const std::string &text);

} // namespace rampage

#endif // RAMPAGE_UTIL_KNOB_HH
