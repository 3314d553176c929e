/**
 * @file
 * Trace file input/output.
 *
 * Two formats are supported so real traces (captured with Pin,
 * Valgrind/lackey, etc.) can replace the synthetic workload:
 *
 *  - the native binary format ("RPTRACE1"): a small header followed
 *    by packed {vaddr, pid, kind} records — compact and fast;
 *  - the classic Dinero "din" text format: one "<label> <hex-addr>"
 *    pair per line with label 0 = read, 1 = write, 2 = ifetch, the
 *    format of the NMSU Tracebase traces the paper used.
 *
 * Ingestion is hardened against real-world trace damage: the header
 * magic and version are validated, a payload that is not a whole
 * number of records is detected as a truncated tail, and malformed
 * records/lines are either rejected (strict mode) or skipped with a
 * warning up to a capped budget (lenient mode, the default — matching
 * how the classic din readers tolerated comment lines).  All failures
 * throw TraceError so a sweep campaign survives a bad trace file.
 */

#ifndef RAMPAGE_TRACE_FILE_FORMAT_HH
#define RAMPAGE_TRACE_FILE_FORMAT_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/source.hh"

namespace rampage
{

/** Magic bytes opening a native binary trace; the '1' is the version. */
constexpr char traceMagic[8] = {'R', 'P', 'T', 'R', 'A', 'C', 'E', '1'};

/** How forgiving trace ingestion is about damaged input. */
struct TraceReadOptions
{
    /**
     * Strict: any malformed record, din line or truncated tail throws
     * TraceError.  Lenient (default): skip-and-warn, bounded by
     * `malformedBudget`.
     */
    bool strict = false;

    /**
     * Lenient mode only: maximum malformed records/lines skipped per
     * pass before the file is rejected as unusable.
     */
    std::uint64_t malformedBudget = 1000;
};

/**
 * Write references to a trace file.  The format is chosen by the
 * `din` flag; the native format records pids, din does not.
 */
class TraceWriter
{
  public:
    /**
     * Open `path` for writing; throws TraceError if the file cannot
     * be created.
     * @param din write Dinero text instead of native binary.
     */
    TraceWriter(const std::string &path, bool din = false);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one reference. */
    void write(const MemRef &ref);

    /** Flush and close; implied by destruction. */
    void close();

    /** References written so far. */
    std::uint64_t count() const { return written; }

  private:
    std::FILE *file = nullptr;
    bool dinFormat;
    std::uint64_t written = 0;
    std::string filePath;
};

/**
 * Replayable trace-file source.  Auto-detects the format from the
 * file's first bytes.  din traces carry no pid, so one is assigned
 * at construction.
 */
class FileTraceSource final : public TraceSource
{
  public:
    /**
     * Open `path`; throws TraceError when missing, truncated at the
     * header, or carrying an unsupported version.
     * @param fallback_pid pid for din records (native records carry
     *        their own).
     * @param options strict/lenient handling of damaged content.
     */
    explicit FileTraceSource(const std::string &path, Pid fallback_pid = 0,
                             const TraceReadOptions &options = {});
    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    std::size_t fill(MemRef *buf, std::size_t n) override;
    void reset() override;
    std::string name() const override { return filePath; }
    Pid pid() const override { return filePid; }

    /** True when the file was recognized as native binary. */
    bool isNative() const { return native; }

    /** Whole records in a native file (0 for din). */
    std::uint64_t recordCount() const { return nRecords; }

    /** Malformed records/lines skipped so far this pass (lenient). */
    std::uint64_t malformedSkipped() const { return malformed; }

  private:
    bool nextNative(MemRef &ref);
    bool nextDin(MemRef &ref);

    /** Strict: throw; lenient: count, warn and enforce the budget. */
    void reportMalformed(const std::string &what);

    std::FILE *file = nullptr;
    std::string filePath;
    Pid filePid;
    TraceReadOptions opts;
    bool native = false;
    long dataStart = 0;
    std::uint64_t nRecords = 0;    ///< native: whole records on disk
    std::uint64_t recordIndex = 0; ///< native: next record to read
    std::uint64_t lineNo = 0;      ///< din: current line number
    std::uint64_t malformed = 0;   ///< skipped this pass (lenient)
};

/** Convenience: read an entire trace file into memory. */
std::vector<MemRef> readTraceFile(const std::string &path,
                                  Pid fallback_pid = 0,
                                  const TraceReadOptions &options = {});

} // namespace rampage

#endif // RAMPAGE_TRACE_FILE_FORMAT_HH
