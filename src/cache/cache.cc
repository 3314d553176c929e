#include "cache/cache.hh"

#include "stats/registry.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::LRU:
        return "LRU";
      case ReplPolicy::Random:
        return "random";
      case ReplPolicy::FIFO:
        return "FIFO";
    }
    return "?";
}

double
CacheStats::missRatio() const
{
    std::uint64_t total = accesses();
    return total == 0 ? 0.0
                      : static_cast<double>(misses) /
                            static_cast<double>(total);
}

void
SetAssocCache::registerStats(StatsRegistry &reg,
                             const std::string &prefix) const
{
    reg.addCounter(prefix + ".hits", prm.name + " hits", &stat.hits);
    reg.addCounter(prefix + ".misses", prm.name + " misses",
                   &stat.misses);
    reg.addCounter(prefix + ".evictions", prm.name + " victim evictions",
                   &stat.evictions);
    reg.addCounter(prefix + ".dirty_evictions",
                   prm.name + " dirty victim evictions",
                   &stat.dirtyEvictions);
    reg.addCounter(prefix + ".invalidations",
                   prm.name + " invalidations", &stat.invalidations);
    reg.addFormula(prefix + ".miss_ratio",
                   prm.name + " misses / accesses",
                   [this] { return stat.missRatio(); });
}

SetAssocCache::SetAssocCache(const CacheParams &params)
    : prm(params), rng(params.seed)
{
    if (!isPowerOfTwo(prm.blockBytes))
        throw ConfigError("cache '%s': block size %llu is not a power of two",
                          prm.name.c_str(),
                          static_cast<unsigned long long>(prm.blockBytes));
    if (prm.sizeBytes == 0 || prm.sizeBytes % prm.blockBytes != 0)
        throw ConfigError(
            "cache '%s': size must be a multiple of the block size",
            prm.name.c_str());

    std::uint64_t blocks = prm.sizeBytes / prm.blockBytes;
    nWays = prm.assoc == 0 ? static_cast<unsigned>(blocks) : prm.assoc;
    if (nWays > blocks)
        throw ConfigError("cache '%s': associativity %u exceeds %llu blocks",
                          prm.name.c_str(), nWays,
                          static_cast<unsigned long long>(blocks));
    if (blocks % nWays != 0)
        throw ConfigError("cache '%s': blocks not divisible by associativity",
                          prm.name.c_str());
    nSets = blocks / nWays;
    if (!isPowerOfTwo(nSets))
        throw ConfigError(
            "cache '%s': set count %llu is not a power of two",
            prm.name.c_str(), static_cast<unsigned long long>(nSets));

    blockBits = floorLog2(prm.blockBytes);
    setBits = floorLog2(nSets);
    lines.assign(nSets * nWays, Line{});
}

Addr
SetAssocCache::rebuildAddr(std::uint64_t set, Addr tag) const
{
    return ((tag << floorLog2(nSets)) | set) << blockBits;
}

Addr
SetAssocCache::blockAddr(Addr addr) const
{
    return alignDown(addr, blockBits);
}

SetAssocCache::Line *
SetAssocCache::findLine(Addr addr)
{
    std::uint64_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    Line *base = &lines[set * nWays];
    for (unsigned w = 0; w < nWays; ++w)
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    return nullptr;
}

const SetAssocCache::Line *
SetAssocCache::findLine(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->findLine(addr);
}

unsigned
SetAssocCache::pickVictim(std::uint64_t set)
{
    Line *base = &lines[set * nWays];
    // Invalid way first, regardless of policy.
    for (unsigned w = 0; w < nWays; ++w)
        if (!base[w].valid)
            return w;

    switch (prm.repl) {
      case ReplPolicy::Random:
        return static_cast<unsigned>(rng.below(nWays));
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO: {
        unsigned victim = 0;
        for (unsigned w = 1; w < nWays; ++w)
            if (base[w].stamp < base[victim].stamp)
                victim = w;
        return victim;
      }
    }
    throw InternalError("unreachable replacement policy");
}

void
SetAssocCache::accessMiss(CacheAccessResult &result,
                          [[maybe_unused]] Addr addr,
                          std::uint64_t set, Addr tag, bool is_write)
{
    // Miss: allocate (write-allocate), possibly evicting a victim.
    Line *base = &lines[set * nWays];
    ++stat.misses;
    RAMPAGE_DPRINTF(Cache, "%s miss %s addr=0x%llx set=%llu",
                    prm.name.c_str(), is_write ? "write" : "read",
                    static_cast<unsigned long long>(addr),
                    static_cast<unsigned long long>(set));
    unsigned way = pickVictim(set);
    Line &line = base[way];
    if (line.valid) {
        result.victimValid = true;
        result.victimDirty = line.dirty;
        result.victimAddr = rebuildAddr(set, line.tag);
        ++stat.evictions;
        if (line.dirty)
            ++stat.dirtyEvictions;
        RAMPAGE_DPRINTF(Cache, "%s evict addr=0x%llx dirty=%d",
                        prm.name.c_str(),
                        static_cast<unsigned long long>(result.victimAddr),
                        line.dirty ? 1 : 0);
    }
    line.valid = true;
    line.dirty = is_write;
    line.tag = tag;
    line.stamp = useCounter; // fill time == first use
}

bool
SetAssocCache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    const Line *line = findLine(addr);
    return line != nullptr && line->dirty;
}

SetAssocCache::InvalidateResult
SetAssocCache::invalidate(Addr addr)
{
    InvalidateResult result;
    Line *line = findLine(addr);
    if (line) {
        result.present = true;
        result.dirty = line->dirty;
        line->valid = false;
        line->dirty = false;
        ++stat.invalidations;
    }
    return result;
}

void
SetAssocCache::markDirty(Addr addr)
{
    Line *line = findLine(addr);
    if (line)
        line->dirty = true;
}

void
SetAssocCache::flushAll()
{
    for (Line &line : lines) {
        line.valid = false;
        line.dirty = false;
    }
}

std::uint64_t
SetAssocCache::validBlocks() const
{
    std::uint64_t count = 0;
    for (const Line &line : lines)
        if (line.valid)
            ++count;
    return count;
}

void
SetAssocCache::forEachValidBlock(
    const std::function<bool(Addr, bool)> &visit) const
{
    for (std::uint64_t set = 0; set < nSets; ++set) {
        const Line *base = &lines[set * nWays];
        for (unsigned w = 0; w < nWays; ++w) {
            if (!base[w].valid)
                continue;
            if (!visit(rebuildAddr(set, base[w].tag), base[w].dirty))
                return;
        }
    }
}

void
SetAssocCache::auditState(AuditContext &ctx,
                          const std::string &label) const
{
    std::uint64_t valid = 0;
    for (std::uint64_t set = 0; set < nSets; ++set) {
        const Line *base = &lines[set * nWays];
        for (unsigned w = 0; w < nWays; ++w) {
            if (!base[w].valid)
                continue;
            ++valid;
            for (unsigned v = w + 1; v < nWays; ++v) {
                ctx.check(!base[v].valid || base[v].tag != base[w].tag,
                          "cache.dup_tag",
                          "%s set %llu holds tag 0x%llx in ways %u "
                          "and %u (addr 0x%llx cached twice)",
                          label.c_str(),
                          static_cast<unsigned long long>(set),
                          static_cast<unsigned long long>(base[w].tag),
                          w, v,
                          static_cast<unsigned long long>(
                              rebuildAddr(set, base[w].tag)));
            }
        }
    }
    // Fills minus removals must equal the blocks actually resident.
    std::uint64_t removed = stat.evictions + stat.invalidations;
    ctx.check(stat.misses >= removed && stat.misses - removed == valid,
              "cache.stats",
              "%s holds %llu valid blocks but counters imply %lld "
              "(misses %llu - evictions %llu - invalidations %llu)",
              label.c_str(), static_cast<unsigned long long>(valid),
              static_cast<long long>(stat.misses) -
                  static_cast<long long>(removed),
              static_cast<unsigned long long>(stat.misses),
              static_cast<unsigned long long>(stat.evictions),
              static_cast<unsigned long long>(stat.invalidations));
}

bool
SetAssocCache::corruptTagXor(Addr addr, Addr tag_xor)
{
    Line *line = findLine(addr);
    if (!line || tag_xor == 0)
        return false;
    line->tag ^= tag_xor;
    return true;
}

} // namespace rampage
