#include "tlb/tlb.hh"

#include <algorithm>
#include <bit>

#include "stats/registry.hh"
#include "util/audit.hh"
#include "util/bitops.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace rampage
{

double
TlbStats::missRatio() const
{
    std::uint64_t total = lookups();
    return total == 0 ? 0.0
                      : static_cast<double>(misses) /
                            static_cast<double>(total);
}

void
Tlb::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".hits", "TLB hits", &stat.hits);
    reg.addCounter(prefix + ".misses", "TLB misses", &stat.misses);
    reg.addCounter(prefix + ".flushes",
                   "TLB single-entry invalidations", &stat.flushes);
    reg.addFormula(prefix + ".miss_ratio", "TLB misses / lookups",
                   [this] { return stat.missRatio(); });
}

Tlb::Tlb(const TlbParams &params) : prm(params), rng(params.seed)
{
    if (prm.entries == 0)
        throw ConfigError("TLB must have at least one entry");
    nWays = prm.assoc == 0 ? prm.entries : prm.assoc;
    if (nWays > prm.entries || prm.entries % nWays != 0)
        throw ConfigError("TLB associativity %u incompatible with %u entries",
                          nWays, prm.entries);
    nSets = prm.entries / nWays;
    if (!isPowerOfTwo(nSets))
        throw ConfigError("TLB set count must be a power of two");
    entries.assign(prm.entries, Entry{});

    // At most half the index cells are ever occupied, so every probe
    // run ends at an empty cell within a couple of steps.
    unsigned index_bits = ceilLog2(2 * std::uint64_t{prm.entries});
    index.assign(std::size_t{1} << index_bits, noSlot);
    indexMask = index.size() - 1;
    indexShift = 64 - index_bits;
    maskWords = (nWays + 63) / 64;
    // Every way of every set starts free.
    freeWays.resize(nSets * maskWords);
    for (std::uint64_t set = 0; set < nSets; ++set) {
        std::uint64_t *words = &freeWays[set * maskWords];
        for (unsigned w = 0; w < maskWords; ++w) {
            unsigned ways = std::min(64u, nWays - 64 * w);
            words[w] = ways == 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << ways) - 1;
        }
    }
}

std::uint64_t
Tlb::setOf(Pid pid, std::uint64_t vpn) const
{
    // Mix pid into the index so processes do not collide trivially.
    std::uint64_t key = vpn ^ (static_cast<std::uint64_t>(pid) << 13);
    return key & (nSets - 1);
}

void
Tlb::indexInsert(std::uint32_t slot)
{
    const Entry &entry = entries[slot];
    std::size_t cell = homeOf(entry.pid, entry.vpn);
    while (index[cell] != noSlot)
        cell = (cell + 1) & indexMask;
    index[cell] = slot;
}

void
Tlb::indexErase(std::uint32_t slot)
{
    const Entry &entry = entries[slot];
    std::size_t cell = homeOf(entry.pid, entry.vpn);
    while (index[cell] != slot) {
        if (index[cell] == noSlot)
            return; // not indexed (only after corruptDropIndexKey)
        cell = (cell + 1) & indexMask;
    }
    // Backward-shift delete: pull each later member of the probe run
    // into the hole unless its home lies cyclically in (hole, cell],
    // so every remaining key stays reachable from its home without
    // tombstones.
    std::size_t hole = cell;
    for (;;) {
        cell = (cell + 1) & indexMask;
        std::uint32_t moved = index[cell];
        if (moved == noSlot)
            break;
        std::size_t home =
            homeOf(entries[moved].pid, entries[moved].vpn);
        if (((cell - home) & indexMask) >= ((cell - hole) & indexMask)) {
            index[hole] = moved;
            hole = cell;
        }
    }
    index[hole] = noSlot;
}

TlbLookup
Tlb::recordMiss(Pid, std::uint64_t)
{
    ++stat.misses;
    return TlbLookup{};
}

bool
Tlb::probe(Pid pid, std::uint64_t vpn) const
{
    return find(pid, vpn) != noSlot;
}

void
Tlb::insert(Pid pid, std::uint64_t vpn, std::uint64_t frame)
{
    ++useCounter;
    // Refresh in place when the mapping is already present.
    std::uint32_t slot = find(pid, vpn);
    if (slot != noSlot) {
        entries[slot].frame = frame;
        entries[slot].stamp = useCounter;
        return;
    }

    // The first invalid way of the set, else the policy's victim —
    // the same choice (and the same rng draws) as scanning the ways
    // in order.
    std::uint64_t set = setOf(pid, vpn);
    std::uint32_t base = static_cast<std::uint32_t>(set * nWays);
    const std::uint64_t *words = &freeWays[set * maskWords];
    unsigned way = nWays;
    for (unsigned w = 0; w < maskWords; ++w) {
        if (words[w] != 0) {
            way = 64 * w +
                  static_cast<unsigned>(std::countr_zero(words[w]));
            break;
        }
    }
    if (way == nWays) {
        if (prm.lruReplacement) {
            way = 0;
            for (unsigned w = 1; w < nWays; ++w)
                if (entries[base + w].stamp < entries[base + way].stamp)
                    way = w;
        } else {
            way = static_cast<unsigned>(rng.below(nWays));
        }
        indexErase(base + way);
    }
    slot = base + way;
    Entry &entry = entries[slot];
    entry.valid = true;
    entry.pid = pid;
    entry.vpn = vpn;
    entry.frame = frame;
    entry.stamp = useCounter;
    freeWays[freeWordOf(slot)] &= ~freeBitOf(slot);
    indexInsert(slot);
}

bool
Tlb::invalidate(Pid pid, std::uint64_t vpn)
{
    std::uint32_t slot = find(pid, vpn);
    if (slot == noSlot)
        return false;
    indexErase(slot);
    entries[slot].valid = false;
    freeWays[freeWordOf(slot)] |= freeBitOf(slot);
    ++stat.flushes;
    return true;
}

unsigned
Tlb::validEntries() const
{
    unsigned count = 0;
    for (const Entry &entry : entries)
        if (entry.valid)
            ++count;
    return count;
}

void
Tlb::forEachValidEntry(
    const std::function<bool(Pid, std::uint64_t, std::uint64_t)> &visit)
    const
{
    for (const Entry &entry : entries) {
        if (!entry.valid)
            continue;
        if (!visit(entry.pid, entry.vpn, entry.frame))
            return;
    }
}

void
Tlb::auditState(AuditContext &ctx) const
{
    // The index is the only way lookups reach an entry: a valid entry
    // missing from it is invisible (a later insert duplicates it), and
    // a key pointing anywhere but its own valid slot mistranslates.
    std::vector<bool> indexed(entries.size(), false);
    std::size_t occupied = 0;
    for (std::size_t cell = 0; cell < index.size(); ++cell) {
        std::uint32_t slot = index[cell];
        if (slot == noSlot)
            continue;
        ++occupied;
        const char *problem = slot >= entries.size() ? "out of range"
                              : !entries[slot].valid ? "invalid"
                              : indexed[slot]        ? "indexed twice"
                                                     : nullptr;
        if (ctx.check(problem == nullptr, "tlb.index",
                      "index cell %zu names slot %u, which is %s", cell,
                      static_cast<unsigned>(slot), problem))
            indexed[slot] = true;
    }
    unsigned valid = 0;
    for (std::uint32_t slot = 0; slot < entries.size(); ++slot) {
        const Entry &entry = entries[slot];
        bool free_bit = (freeWays[freeWordOf(slot)] & freeBitOf(slot)) != 0;
        ctx.check(free_bit != entry.valid, "tlb.index",
                  "slot %u is %s but its free-way bit is %d",
                  static_cast<unsigned>(slot),
                  entry.valid ? "valid" : "invalid", free_bit ? 1 : 0);
        if (!entry.valid)
            continue;
        ++valid;
        std::uint32_t found = find(entry.pid, entry.vpn);
        ctx.check(found == slot, "tlb.index",
                  "valid slot %u (pid=%u vpn=0x%llx) %s",
                  static_cast<unsigned>(slot),
                  static_cast<unsigned>(entry.pid),
                  static_cast<unsigned long long>(entry.vpn),
                  found == noSlot ? "is missing from the index"
                                  : "is shadowed by another slot");
    }
    ctx.check(occupied == valid, "tlb.index",
              "%zu index keys for %u valid entries", occupied, valid);

    // A duplicated (pid, vpn) would make the translation depend on
    // probe order; insert() refreshes in place precisely to prevent
    // this.  O(entries^2) but the TLB is tiny (paper: 64 entries).
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid)
            continue;
        for (std::size_t j = i + 1; j < entries.size(); ++j) {
            ctx.check(!entries[j].valid ||
                          entries[j].pid != entries[i].pid ||
                          entries[j].vpn != entries[i].vpn,
                      "tlb.dup_entry",
                      "pid=%u vpn=0x%llx mapped twice (frames %llu "
                      "and %llu)",
                      static_cast<unsigned>(entries[i].pid),
                      static_cast<unsigned long long>(entries[i].vpn),
                      static_cast<unsigned long long>(entries[i].frame),
                      static_cast<unsigned long long>(
                          entries[j].frame));
        }
    }
}

bool
Tlb::corruptFrameXor(std::uint64_t frame_xor)
{
    if (frame_xor == 0)
        return false;
    for (Entry &entry : entries) {
        if (!entry.valid)
            continue;
        entry.frame ^= frame_xor;
        return true;
    }
    return false;
}

bool
Tlb::corruptDropIndexKey(std::uint64_t seed)
{
    // Rank the valid entries newest first (by fill time, or by last
    // use under LRU): a recently installed translation is likely to be looked
    // up again before random replacement evicts it, so the stale key
    // surfaces at the next audit instead of quietly healing.
    std::vector<std::uint32_t> valid;
    for (std::uint32_t slot = 0; slot < entries.size(); ++slot)
        if (entries[slot].valid)
            valid.push_back(slot);
    if (valid.empty())
        return false;
    std::sort(valid.begin(), valid.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return entries[a].stamp > entries[b].stamp;
              });
    indexErase(valid[seed % valid.size()]);
    return true;
}

} // namespace rampage
