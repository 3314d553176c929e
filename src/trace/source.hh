/**
 * @file
 * Abstract source of memory references.  Concrete sources are the
 * synthetic program models (src/trace/synthetic.hh) and trace files
 * (src/trace/file_format.hh).  Multiprogramming is the simulator's
 * job: its Scheduler (src/os/scheduler.hh) slices the sources.
 */

#ifndef RAMPAGE_TRACE_SOURCE_HH
#define RAMPAGE_TRACE_SOURCE_HH

#include <cstddef>
#include <string>

#include "trace/record.hh"

namespace rampage
{

/**
 * A stream of memory references.  Sources may be finite (trace files)
 * or endless (synthetic programs); a finite source stops short at
 * end-of-stream and may be rewound with reset().
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce up to `n` references into `buf`: the one way a source
     * yields references.  The stream does not depend on how it is
     * chunked, so the simulator's hot loop fills a contiguous buffer
     * through one virtual call instead of one per reference.
     * @return references produced; < n only at end-of-stream.
     */
    virtual std::size_t fill(MemRef *buf, std::size_t n) = 0;

    /**
     * Produce the next reference: fill() one at a time.  Virtual only
     * so the benchmark's timing decorator (perf/rampage_perf.cc) can
     * sample single references; sources implement fill() alone.
     * @retval false the stream is exhausted.
     */
    virtual bool next(MemRef &ref) { return fill(&ref, 1) == 1; }

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;

    /** Human-readable stream name (benchmark or file name). */
    virtual std::string name() const = 0;

    /** Address-space id carried by this source's references. */
    virtual Pid pid() const = 0;

    /**
     * True when fill() and reset() touch only this object's state: no
     * I/O, no logging, no other object.  The simulator may then call
     * them on a helper thread that fills the next chunk while the
     * current one is simulated (src/core/simulator.cc).  Off by
     * default, so a decorator that reads simulator state inside fill()
     * keeps the synchronous path.
     */
    virtual bool selfContained() const { return false; }
};

} // namespace rampage

#endif // RAMPAGE_TRACE_SOURCE_HH
