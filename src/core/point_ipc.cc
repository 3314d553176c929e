#include "core/point_ipc.hh"

#include <cstring>

#include "core/sweep.hh"
#include "util/error.hh"

namespace rampage
{

namespace
{

/**
 * Bumped whenever the encoding below changes shape.  Parent and child
 * are always the same binary, so a mismatch means pipe corruption —
 * the decoder treats it as an InternalError, never a compat path.
 */
constexpr std::uint8_t codecVersion = 6;

// ------------------------------------------------------------- writer

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    // Bit pattern, not text: the decoded double must compare (and
    // print) identically, including -0.0 and subnormals.
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

void
putString(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

// ------------------------------------------------------------- reader

struct Reader
{
    const std::string &buf;
    std::size_t pos = 0;

    explicit Reader(const std::string &bytes) : buf(bytes) {}

    void
    need(std::size_t n) const
    {
        if (pos + n > buf.size())
            throw InternalError(
                "isolated-point outcome truncated at byte %zu "
                "(need %zu more, have %zu)",
                pos, n, buf.size() - pos);
    }

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(buf[pos++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int shift = 0; shift < 32; shift += 8)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf[pos++]))
                 << shift;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 8)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf[pos++]))
                 << shift;
        return v;
    }

    double
    dbl()
    {
        std::uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint32_t n = u32();
        need(n);
        std::string s = buf.substr(pos, n);
        pos += n;
        return s;
    }

    /**
     * Read a u32 element count and bound it against the bytes left:
     * every element needs at least `minElemBytes` more input, so a
     * larger declared count is corruption.  Rejecting it here —
     * *before* the caller reserves storage for it — keeps a flipped
     * length byte from turning into a multi-gigabyte allocation.
     */
    std::uint32_t
    count(std::size_t minElemBytes)
    {
        std::uint32_t n = u32();
        if (static_cast<std::uint64_t>(n) * minElemBytes >
            buf.size() - pos)
            throw InternalError(
                "isolated-point outcome declares %u elements "
                "(>= %zu bytes each) but only %zu bytes remain",
                n, minElemBytes, buf.size() - pos);
        return n;
    }
};

// --------------------------------------------------- nested structures

void
putEventCounts(std::string &out, const EventCounts &e)
{
    putU64(out, e.l1iCycles);
    putU64(out, e.l1dCycles);
    putU64(out, e.l2Cycles);
    putU64(out, e.dramPs);
    putU64(out, e.refs);
    putU64(out, e.traceRefs);
    putU64(out, e.overheadRefs);
    putU64(out, e.instrFetches);
    putU64(out, e.l1iMisses);
    putU64(out, e.l1dMisses);
    putU64(out, e.l1Writebacks);
    putU64(out, e.l2Accesses);
    putU64(out, e.l2Misses);
    putU64(out, e.dramReads);
    putU64(out, e.dramWrites);
    putU64(out, e.tlbMisses);
    putU64(out, e.tlbMissOverheadRefs);
    putU64(out, e.faultOverheadRefs);
    putU64(out, e.inclusionProbes);
    putU64(out, e.inclusionWritebacks);
    putU64(out, e.contextSwitches);
    putU64(out, e.victimCacheHits);
}

EventCounts
getEventCounts(Reader &in)
{
    EventCounts e;
    e.l1iCycles = in.u64();
    e.l1dCycles = in.u64();
    e.l2Cycles = in.u64();
    e.dramPs = in.u64();
    e.refs = in.u64();
    e.traceRefs = in.u64();
    e.overheadRefs = in.u64();
    e.instrFetches = in.u64();
    e.l1iMisses = in.u64();
    e.l1dMisses = in.u64();
    e.l1Writebacks = in.u64();
    e.l2Accesses = in.u64();
    e.l2Misses = in.u64();
    e.dramReads = in.u64();
    e.dramWrites = in.u64();
    e.tlbMisses = in.u64();
    e.tlbMissOverheadRefs = in.u64();
    e.faultOverheadRefs = in.u64();
    e.inclusionProbes = in.u64();
    e.inclusionWritebacks = in.u64();
    e.contextSwitches = in.u64();
    e.victimCacheHits = in.u64();
    return e;
}

void
putSnapshot(std::string &out, const StatsSnapshot &snap)
{
    const std::vector<StatsSnapshot::Entry> &entries = snap.entries();
    putU32(out, static_cast<std::uint32_t>(entries.size()));
    for (const StatsSnapshot::Entry &e : entries) {
        putString(out, e.name);
        putString(out, e.desc);
        putU8(out, static_cast<std::uint8_t>(e.kind));
        putU64(out, e.counter);
        putDouble(out, e.value);
        putU32(out, static_cast<std::uint32_t>(e.buckets.size()));
        for (std::uint64_t bucket : e.buckets)
            putU64(out, bucket);
        putU64(out, e.samples);
        putU64(out, e.sum);
    }
}

StatsSnapshot
getSnapshot(Reader &in)
{
    StatsSnapshot snap;
    // Minimal entry: two string length prefixes, kind, counter,
    // value, bucket count, samples, sum = 45 bytes.
    std::uint32_t count = in.count(45);
    for (std::uint32_t i = 0; i < count; ++i) {
        StatsSnapshot::Entry e;
        e.name = in.str();
        e.desc = in.str();
        e.kind = static_cast<StatsSnapshot::Kind>(in.u8());
        e.counter = in.u64();
        e.value = in.dbl();
        std::uint32_t buckets = in.count(8);
        e.buckets.reserve(buckets);
        for (std::uint32_t b = 0; b < buckets; ++b)
            e.buckets.push_back(in.u64());
        e.samples = in.u64();
        e.sum = in.u64();
        snap.addEntry(std::move(e));
    }
    return snap;
}

void
putSimResult(std::string &out, const SimResult &r)
{
    putU64(out, r.elapsedPs);
    putU64(out, r.stallPs);
    putEventCounts(out, r.counts);
    putU64(out, r.sched.quantumSwitches);
    putU64(out, r.sched.missSwitches);
    putU64(out, r.sched.stalls);
    putU64(out, r.sched.stallTime);
    putSnapshot(out, r.stats);
    putString(out, r.systemName);
    putU64(out, r.issueHz);
    putString(out, r.traceFile);
    putString(out, r.intervalFile);
}

SimResult
getSimResult(Reader &in)
{
    SimResult r;
    r.elapsedPs = in.u64();
    r.stallPs = in.u64();
    r.counts = getEventCounts(in);
    r.sched.quantumSwitches = in.u64();
    r.sched.missSwitches = in.u64();
    r.sched.stalls = in.u64();
    r.sched.stallTime = in.u64();
    r.stats = getSnapshot(in);
    r.systemName = in.str();
    r.issueHz = in.u64();
    r.traceFile = in.str();
    r.intervalFile = in.str();
    return r;
}

} // namespace

std::string
encodePointOutcome(const PointOutcome &outcome)
{
    std::string out;
    putU8(out, codecVersion);
    putString(out, outcome.id);
    putU8(out, static_cast<std::uint8_t>(outcome.status));
    putU8(out, static_cast<std::uint8_t>(outcome.errorCategory));
    putString(out, outcome.error);
    putString(out, outcome.auditInvariant);
    putString(out, outcome.auditScope);
    putU32(out,
           static_cast<std::uint32_t>(outcome.auditViolations.size()));
    for (const AuditViolation &v : outcome.auditViolations) {
        putString(out, v.invariant);
        putString(out, v.detail);
    }
    putDouble(out, outcome.wallSeconds);
    putU64(out, outcome.refsAtCancel);
    putU32(out, static_cast<std::uint32_t>(outcome.signalNumber));
    putU8(out, outcome.haveResult ? 1 : 0);
    if (outcome.haveResult)
        putSimResult(out, outcome.result);
    return out;
}

PointOutcome
decodePointOutcome(const std::string &bytes)
{
    Reader in(bytes);
    std::uint8_t version = in.u8();
    if (version != codecVersion)
        throw InternalError(
            "isolated-point outcome codec version %u "
            "(this binary speaks %u): pipe corruption",
            version, codecVersion);

    PointOutcome outcome;
    outcome.id = in.str();
    std::uint8_t status = in.u8();
    std::uint8_t category = in.u8();
    // Every later switch on these enums assumes a named value.
    if (status > static_cast<std::uint8_t>(PointStatus::Crashed) ||
        category > static_cast<std::uint8_t>(ErrorCategory::Timeout))
        throw InternalError(
            "isolated-point outcome status %u / category %u out of "
            "range: pipe corruption",
            status, category);
    outcome.status = static_cast<PointStatus>(status);
    outcome.errorCategory = static_cast<ErrorCategory>(category);
    outcome.error = in.str();
    outcome.auditInvariant = in.str();
    outcome.auditScope = in.str();
    // Each violation is two length-prefixed strings: >= 8 bytes.
    std::uint32_t violations = in.count(8);
    outcome.auditViolations.reserve(violations);
    for (std::uint32_t i = 0; i < violations; ++i) {
        AuditViolation v;
        v.invariant = in.str();
        v.detail = in.str();
        outcome.auditViolations.push_back(std::move(v));
    }
    outcome.wallSeconds = in.dbl();
    outcome.refsAtCancel = in.u64();
    outcome.signalNumber = static_cast<int>(in.u32());
    outcome.haveResult = in.u8() != 0;
    if (outcome.haveResult)
        outcome.result = getSimResult(in);
    if (in.pos != bytes.size())
        throw InternalError(
            "isolated-point outcome has %zu trailing bytes",
            bytes.size() - in.pos);
    return outcome;
}

std::exception_ptr
rebuildPointException(const PointOutcome &outcome)
{
    switch (outcome.status) {
      case PointStatus::Ok:
        return nullptr;
      case PointStatus::AuditFailed:
        return std::make_exception_ptr(
            AuditError(outcome.auditScope, outcome.auditViolations));
      case PointStatus::TimedOut:
        return std::make_exception_ptr(
            TimeoutError(outcome.refsAtCancel, outcome.error));
      case PointStatus::Crashed:
        // A crashed child never threw; synthesize the category the
        // parent assigned so rethrowers observe a typed error.
        return std::make_exception_ptr(InternalError(outcome.error));
      case PointStatus::Failed:
        break;
    }
    switch (outcome.errorCategory) {
      case ErrorCategory::Config:
        return std::make_exception_ptr(ConfigError(outcome.error));
      case ErrorCategory::Trace:
        return std::make_exception_ptr(TraceError(outcome.error));
      case ErrorCategory::Io:
        return std::make_exception_ptr(IoError(outcome.error));
      case ErrorCategory::Timeout:
        return std::make_exception_ptr(
            TimeoutError(outcome.refsAtCancel, outcome.error));
      case ErrorCategory::Audit:
        return std::make_exception_ptr(
            AuditError(outcome.auditScope, outcome.auditViolations));
      case ErrorCategory::Internal:
        break;
    }
    return std::make_exception_ptr(InternalError(outcome.error));
}

} // namespace rampage
