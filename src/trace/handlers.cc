#include "trace/handlers.hh"

#include "util/logging.hh"

namespace rampage
{

namespace
{

// Entry points of the three handler bodies within the OS text
// segment, packed so the whole handler text fits in ~4 KB — the
// pinned operating-system reserve should stay close to the paper's
// §4.5 numbers, which budget only a few KB beyond the page table.
constexpr Addr tlbMissEntryOff = 0x000;       // 30 instrs = 120 B
constexpr Addr pageFaultEntryOff = 0x100;     // 100 instrs = 400 B
constexpr Addr contextSwitchEntryOff = 0x300; // 300 instrs = 1.2 KB

/** `instrs` sequential fetches from `entry`. */
std::vector<MemRef>
fetchRun(Addr entry, unsigned instrs)
{
    std::vector<MemRef> fetches(instrs);
    for (unsigned i = 0; i < instrs; ++i) {
        fetches[i].vaddr = entry + 4 * i;
        fetches[i].kind = RefKind::IFetch;
        fetches[i].pid = osPid;
    }
    return fetches;
}

} // namespace

HandlerTraces::HandlerTraces(const HandlerLayout &layout,
                             const HandlerCosts &costs)
    : lay(layout), cost(costs)
{
    RAMPAGE_ASSERT(cost.tlbMissInstrs > 0, "empty TLB handler");
    RAMPAGE_ASSERT(cost.pageFaultInstrs > 0, "empty fault handler");
    RAMPAGE_ASSERT(cost.contextSwitchInstrs > 0, "empty switch handler");
    tlbMissFetches =
        fetchRun(lay.codeBase + tlbMissEntryOff, cost.tlbMissInstrs);
    pageFaultFetches =
        fetchRun(lay.codeBase + pageFaultEntryOff, cost.pageFaultInstrs);
    contextSwitchFetches = fetchRun(lay.codeBase + contextSwitchEntryOff,
                                    cost.contextSwitchInstrs);
}

std::size_t
HandlerTraces::contextSwitchLength() const
{
    return cost.contextSwitchInstrs + cost.contextSwitchData;
}

} // namespace rampage
