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

/**
 * Emit a handler body: the precomputed `fetches`, with the `n_data`
 * addresses `data_at(0..n_data)` interleaved evenly.
 */
template <class DataAt>
void
emitBody(std::vector<MemRef> &out, const std::vector<MemRef> &fetches,
         std::size_t n_data, DataAt data_at, double store_fraction)
{
    // Interleave the data references evenly through the fetch stream,
    // marking the trailing fraction of them as stores (handlers read
    // state, compute, then write results back).
    std::size_t stores_from = n_data -
        static_cast<std::size_t>(static_cast<double>(n_data) *
                                 store_fraction);
    auto data_ref = [&](std::size_t k) {
        MemRef dref;
        dref.vaddr = data_at(k);
        dref.kind = k >= stores_from ? RefKind::Store : RefKind::Load;
        dref.pid = osPid;
        return dref;
    };
    unsigned instrs = static_cast<unsigned>(fetches.size());
    unsigned per_data = n_data > 0
                            ? (instrs / static_cast<unsigned>(n_data) + 1)
                            : instrs + 1;
    std::size_t next_data = 0;
    unsigned until_data = per_data;
    for (const MemRef &fetch : fetches) {
        out.push_back(fetch);
        if (--until_data == 0) {
            until_data = per_data;
            if (next_data < n_data)
                out.push_back(data_ref(next_data++));
        }
    }
    // Any data refs not yet placed trail the body.
    for (; next_data < n_data; ++next_data)
        out.push_back(data_ref(next_data));
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

void
HandlerTraces::tlbMiss(std::vector<MemRef> &out,
                       const std::vector<Addr> &probes)
{
    emitBody(out, tlbMissFetches, probes.size(),
             [&](std::size_t k) { return probes[k]; }, 0.0);
}

void
HandlerTraces::pageFault(std::vector<MemRef> &out,
                         const std::vector<Addr> &probes)
{
    // The fault body touches the supplied table entries plus its own
    // bookkeeping data (free lists, statistics, transfer descriptors),
    // which sits above the 18 PCB slots (18 * 0x100).
    Addr bookkeeping = lay.dataBase + 0x1400;
    emitBody(out, pageFaultFetches, probes.size() + cost.pageFaultData,
             [&](std::size_t k) {
                 return k < probes.size()
                            ? probes[k]
                            : bookkeeping + 8 * (k - probes.size());
             },
             0.4);
}

void
HandlerTraces::contextSwitch(std::vector<MemRef> &out)
{
    // Save one process-control block, restore another: the data refs
    // rotate through a few PCB slots so consecutive switches touch
    // different table entries, as a real ready queue would.
    Addr pcb_out = lay.dataBase + 0x100 * (switchSeq % 18);
    Addr pcb_in = lay.dataBase + 0x100 * ((switchSeq + 1) % 18);
    ++switchSeq;
    std::size_t saves = cost.contextSwitchData / 2;
    emitBody(out, contextSwitchFetches, cost.contextSwitchData,
             [&](std::size_t k) {
                 return k < saves ? pcb_out + 8 * (k % 32)
                                  : pcb_in + 8 * ((k - saves) % 32);
             },
             0.5);
}

std::size_t
HandlerTraces::contextSwitchLength() const
{
    return cost.contextSwitchInstrs + cost.contextSwitchData;
}

} // namespace rampage
