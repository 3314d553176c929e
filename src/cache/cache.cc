#include "cache/cache.hh"

#include "stats/registry.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
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

    // The tag is what is left of an address above the block offset and
    // set index; it must fit the word beside the two flag bits.
    if (prm.blockBytes * nSets < (std::uint64_t{1} << tagShift))
        throw ConfigError(
            "cache '%s': %llu-byte blocks in %llu sets leave a tag "
            "wider than 62 bits (block bytes x sets must be at least 4)",
            prm.name.c_str(),
            static_cast<unsigned long long>(prm.blockBytes),
            static_cast<unsigned long long>(nSets));

    blockBits = floorLog2(prm.blockBytes);
    setBits = floorLog2(nSets);
    words.assign(nSets * nWays, 0);
    if (nWays > 1 && prm.repl != ReplPolicy::Random) {
        stamps.assign(nSets * nWays, 0);
        stampHits = prm.repl == ReplPolicy::LRU;
    }
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

std::uint64_t *
SetAssocCache::findWord(Addr addr)
{
    std::uint64_t *base = &words[setIndex(addr) * nWays];
    std::uint64_t want = tagOf(addr) << tagShift | validBit | dirtyBit;
    for (unsigned w = 0; w < nWays; ++w)
        if ((base[w] | dirtyBit) == want)
            return &base[w];
    return nullptr;
}

const std::uint64_t *
SetAssocCache::findWord(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->findWord(addr);
}

unsigned
SetAssocCache::pickVictim(std::uint64_t set)
{
    const std::uint64_t *base = &words[set * nWays];
    // Invalid way first, regardless of policy.
    for (unsigned w = 0; w < nWays; ++w)
        if (!(base[w] & validBit))
            return w;

    switch (prm.repl) {
      case ReplPolicy::Random:
        return static_cast<unsigned>(rng.below(nWays));
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO: {
        if (stamps.empty()) // direct-mapped: the only way
            return 0;
        const std::uint64_t *stamp = &stamps[set * nWays];
        unsigned victim = 0;
        for (unsigned w = 1; w < nWays; ++w)
            if (stamp[w] < stamp[victim])
                victim = w;
        return victim;
      }
    }
    throw InternalError("unreachable replacement policy");
}

CacheAccessResult
SetAssocCache::accessMiss(Addr, std::uint64_t set, Addr tag,
                          bool is_write)
{
    // Miss: allocate (write-allocate), possibly evicting a victim.
    CacheAccessResult result;
    ++stat.misses;
    unsigned way = pickVictim(set);
    std::uint64_t &word = words[set * nWays + way];
    if (word & validBit) {
        bool dirty = (word & dirtyBit) != 0;
        result.victimValid = true;
        result.victimDirty = dirty;
        result.victimAddr = rebuildAddr(set, word >> tagShift);
        ++stat.evictions;
        if (dirty)
            ++stat.dirtyEvictions;
    }
    word = tag << tagShift | (is_write ? dirtyBit : 0) | validBit;
    if (!stamps.empty())
        stamps[set * nWays + way] = ++useCounter; // fill == first use
    return result;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return findWord(addr) != nullptr;
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    const std::uint64_t *word = findWord(addr);
    return word != nullptr && (*word & dirtyBit) != 0;
}

SetAssocCache::InvalidateResult
SetAssocCache::invalidate(Addr addr)
{
    InvalidateResult result;
    std::uint64_t *word = findWord(addr);
    if (word) {
        result.present = true;
        result.dirty = (*word & dirtyBit) != 0;
        *word = 0;
        ++stat.invalidations;
    }
    return result;
}

void
SetAssocCache::markDirty(Addr addr)
{
    std::uint64_t *word = findWord(addr);
    if (word)
        *word |= dirtyBit;
}

std::uint64_t
SetAssocCache::validBlocks() const
{
    std::uint64_t count = 0;
    for (std::uint64_t word : words)
        count += word & validBit;
    return count;
}

void
SetAssocCache::forEachValidBlock(
    const std::function<bool(Addr, bool)> &visit) const
{
    for (std::uint64_t set = 0; set < nSets; ++set) {
        const std::uint64_t *base = &words[set * nWays];
        for (unsigned w = 0; w < nWays; ++w) {
            if (!(base[w] & validBit))
                continue;
            if (!visit(rebuildAddr(set, base[w] >> tagShift),
                       (base[w] & dirtyBit) != 0))
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
        const std::uint64_t *base = &words[set * nWays];
        for (unsigned w = 0; w < nWays; ++w) {
            if (!(base[w] & validBit))
                continue;
            ++valid;
            Addr tag = base[w] >> tagShift;
            for (unsigned v = w + 1; v < nWays; ++v) {
                ctx.check(!(base[v] & validBit) ||
                              base[v] >> tagShift != tag,
                          "cache.dup_tag",
                          "%s set %llu holds tag 0x%llx in ways %u "
                          "and %u (addr 0x%llx cached twice)",
                          label.c_str(),
                          static_cast<unsigned long long>(set),
                          static_cast<unsigned long long>(tag), w, v,
                          static_cast<unsigned long long>(
                              rebuildAddr(set, tag)));
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
    if (tag_xor >> (64 - tagShift) != 0)
        throw InternalError("cache '%s': tag xor 0x%llx is wider than "
                            "the 62-bit tag field",
                            prm.name.c_str(),
                            static_cast<unsigned long long>(tag_xor));
    std::uint64_t *word = findWord(addr);
    if (!word || tag_xor == 0)
        return false;
    *word ^= tag_xor << tagShift;
    return true;
}

} // namespace rampage
