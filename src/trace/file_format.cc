#include "trace/file_format.hh"

#include <algorithm>
#include <cinttypes>
#include <cstring>

#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

namespace
{

/** On-disk record layout for the native format (little-endian). */
struct PackedRef
{
    std::uint64_t vaddr;
    std::uint16_t pid;
    std::uint8_t kind;
} __attribute__((packed));

static_assert(sizeof(PackedRef) == 11, "packed trace record size");

} // namespace

TraceWriter::TraceWriter(const std::string &path, bool din)
    : dinFormat(din), filePath(path)
{
    file = std::fopen(path.c_str(), din ? "w" : "wb");
    if (!file)
        throw TraceError("cannot create trace file '%s'", path.c_str());
    if (!dinFormat) {
        if (std::fwrite(traceMagic, 1, sizeof(traceMagic), file) !=
            sizeof(traceMagic))
            throw TraceError("cannot write trace header to '%s'",
                             path.c_str());
    }
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::write(const MemRef &ref)
{
    RAMPAGE_ASSERT(file != nullptr, "write to closed trace file");
    if (dinFormat) {
        int label = ref.kind == RefKind::IFetch ? 2
                    : ref.kind == RefKind::Store ? 1
                                                 : 0;
        std::fprintf(file, "%d %" PRIx64 "\n", label, ref.vaddr);
    } else {
        PackedRef packed;
        packed.vaddr = ref.vaddr;
        packed.pid = ref.pid;
        packed.kind = static_cast<std::uint8_t>(ref.kind);
        if (std::fwrite(&packed, sizeof(packed), 1, file) != 1)
            throw TraceError("short write to trace file '%s'",
                             filePath.c_str());
    }
    ++written;
}

void
TraceWriter::close()
{
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
}

FileTraceSource::FileTraceSource(const std::string &path, Pid fallback_pid,
                                 const TraceReadOptions &options)
    : filePath(path), filePid(fallback_pid), opts(options)
{
    file = std::fopen(path.c_str(), "rb");
    if (!file)
        throw TraceError("cannot open trace file '%s'", path.c_str());

    std::fseek(file, 0, SEEK_END);
    long file_bytes = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);

    char magic[sizeof(traceMagic)] = {};
    std::size_t got = std::fread(magic, 1, sizeof(magic), file);

    // A file opening with at least half the magic is a native trace
    // (no din line starts with 'RPTR'); anything shorter or different
    // is handed to the din reader, whose lenient mode copes.
    bool magic_prefix =
        got >= 4 &&
        std::memcmp(magic, traceMagic, std::min(got, sizeof(magic))) == 0;
    if (magic_prefix && got < sizeof(magic)) {
        std::fclose(file);
        file = nullptr;
        throw TraceError("truncated native trace header in '%s' "
                         "(%ld bytes, need %zu)",
                         path.c_str(), file_bytes, sizeof(traceMagic));
    }
    if (got == sizeof(magic) &&
        std::memcmp(magic, traceMagic, sizeof(magic) - 1) == 0 &&
        magic[sizeof(magic) - 1] != traceMagic[sizeof(magic) - 1]) {
        char version = magic[sizeof(magic) - 1];
        std::fclose(file);
        file = nullptr;
        throw TraceError("unsupported native trace version '%c' in '%s' "
                         "(expected '%c')",
                         version, path.c_str(),
                         traceMagic[sizeof(traceMagic) - 1]);
    }

    if (got == sizeof(magic) &&
        std::memcmp(magic, traceMagic, sizeof(magic)) == 0) {
        native = true;
        dataStart = static_cast<long>(sizeof(magic));

        std::uint64_t payload =
            static_cast<std::uint64_t>(file_bytes) - sizeof(magic);
        nRecords = payload / sizeof(PackedRef);
        std::uint64_t tail = payload % sizeof(PackedRef);
        if (tail != 0) {
            if (opts.strict) {
                std::fclose(file);
                file = nullptr;
                throw TraceError(
                    "truncated record tail in '%s': %llu trailing bytes "
                    "after %llu whole records",
                    path.c_str(), static_cast<unsigned long long>(tail),
                    static_cast<unsigned long long>(nRecords));
            }
            warn("trace '%s': ignoring %llu-byte truncated tail after "
                 "%llu whole records",
                 path.c_str(), static_cast<unsigned long long>(tail),
                 static_cast<unsigned long long>(nRecords));
        }
    } else {
        native = false;
        dataStart = 0;
        std::fseek(file, 0, SEEK_SET);
    }
}

FileTraceSource::~FileTraceSource()
{
    if (file)
        std::fclose(file);
}

void
FileTraceSource::reportMalformed(const std::string &what)
{
    if (opts.strict)
        throw TraceError("%s", what.c_str());
    ++malformed;
    // Rate-limited: a rotten multi-million-line trace would otherwise
    // emit one warning per record.
    warnRateLimited("malformed trace record (skipped): %s",
                    what.c_str());
    if (malformed > opts.malformedBudget)
        throw TraceError("trace '%s': more than %llu malformed "
                         "records/lines; refusing to continue",
                         filePath.c_str(),
                         static_cast<unsigned long long>(
                             opts.malformedBudget));
}

bool
FileTraceSource::nextNative(MemRef &ref)
{
    while (recordIndex < nRecords) {
        PackedRef packed;
        if (std::fread(&packed, sizeof(packed), 1, file) != 1)
            return false; // I/O error mid-file; end the pass
        ++recordIndex;
        if (packed.kind > static_cast<std::uint8_t>(RefKind::Store)) {
            reportMalformed(formatErrorMessage(
                "corrupt record kind %u at record %llu of '%s'",
                packed.kind,
                static_cast<unsigned long long>(recordIndex - 1),
                filePath.c_str()));
            continue;
        }
        ref.vaddr = packed.vaddr;
        ref.pid = packed.pid;
        ref.kind = static_cast<RefKind>(packed.kind);
        return true;
    }
    return false;
}

bool
FileTraceSource::nextDin(MemRef &ref)
{
    char line[256];
    while (std::fgets(line, sizeof(line), file)) {
        ++lineNo;
        std::size_t len = std::strlen(line);
        if (len + 1 == sizeof(line) && line[len - 1] != '\n') {
            // Overlong line: drop the remainder so the next read
            // starts on a fresh line.
            int ch;
            while ((ch = std::fgetc(file)) != EOF && ch != '\n') {
            }
        }

        // Whitespace-only lines are silently ignored (trailing
        // newlines are common in concatenated traces).
        std::size_t at = 0;
        while (at < len && (line[at] == ' ' || line[at] == '\t' ||
                            line[at] == '\r' || line[at] == '\n'))
            ++at;
        if (at == len)
            continue;

        int label = 0;
        std::uint64_t addr = 0;
        if (std::sscanf(line, "%d %" SCNx64, &label, &addr) != 2) {
            reportMalformed(formatErrorMessage(
                "malformed din line %llu in '%s'",
                static_cast<unsigned long long>(lineNo),
                filePath.c_str()));
            continue;
        }

        ref.vaddr = addr;
        ref.pid = filePid;
        switch (label) {
          case 0:
            ref.kind = RefKind::Load;
            break;
          case 1:
            ref.kind = RefKind::Store;
            break;
          case 2:
            ref.kind = RefKind::IFetch;
            break;
          default:
            // Dinero defines other labels (escapes); treat them as
            // loads.
            ref.kind = RefKind::Load;
            break;
        }
        return true;
    }
    return false;
}

std::size_t
FileTraceSource::fill(MemRef *buf, std::size_t n)
{
    // One format branch for the whole buffer; stops short at
    // end-of-stream.
    std::size_t got = 0;
    if (native) {
        while (got < n && nextNative(buf[got]))
            ++got;
    } else {
        while (got < n && nextDin(buf[got]))
            ++got;
    }
    return got;
}

void
FileTraceSource::reset()
{
    std::fseek(file, dataStart, SEEK_SET);
    recordIndex = 0;
    lineNo = 0;
    malformed = 0; // the budget is per pass
}

std::vector<MemRef>
readTraceFile(const std::string &path, Pid fallback_pid,
              const TraceReadOptions &options)
{
    FileTraceSource source(path, fallback_pid, options);
    std::vector<MemRef> refs;
    MemRef ref;
    while (source.next(ref))
        refs.push_back(ref);
    return refs;
}

} // namespace rampage
