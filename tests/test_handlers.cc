/**
 * @file
 * Tests for OS handler trace synthesis (paper §4.3, §4.6).
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/handlers.hh"

namespace rampage
{
namespace
{

/** A sink that collects each emitted reference into `out`. */
auto
into(std::vector<MemRef> &out)
{
    return [&out](const MemRef &ref) { out.push_back(ref); };
}

TEST(Handlers, ContextSwitchIsAboutFourHundredRefs)
{
    // §4.6: "approximately 400 references per context switch".
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.contextSwitch(into(refs));
    EXPECT_EQ(refs.size(), handlers.contextSwitchLength());
    EXPECT_GE(refs.size(), 380u);
    EXPECT_LE(refs.size(), 420u);
}

TEST(Handlers, AllRefsCarryOsPid)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss({0x13000, 0x13040}, into(refs));
    handlers.pageFault({0x13080}, into(refs));
    handlers.contextSwitch(into(refs));
    for (const MemRef &ref : refs)
        ASSERT_EQ(ref.pid, osPid);
}

TEST(Handlers, TlbMissIncludesSuppliedProbes)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    std::vector<Addr> probes = {0x13000, 0x13140, 0x13280};
    handlers.tlbMiss(probes, into(refs));

    unsigned found = 0;
    for (const MemRef &ref : refs) {
        if (!ref.isInstr()) {
            ASSERT_LT(found, probes.size());
            EXPECT_EQ(ref.vaddr, probes[found]);
            ++found;
        }
    }
    EXPECT_EQ(found, probes.size());
    // Body length: fixed instructions plus the probes.
    EXPECT_EQ(refs.size(),
              handlers.costs().tlbMissInstrs + probes.size());
}

TEST(Handlers, TlbMissProbesAreLoads)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss({0x13000}, into(refs));
    for (const MemRef &ref : refs) {
        if (!ref.isInstr()) {
            EXPECT_EQ(ref.kind, RefKind::Load);
        }
    }
}

TEST(Handlers, PageFaultMixesLoadsAndStores)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.pageFault({0x13000, 0x13014}, into(refs));
    unsigned loads = 0, stores = 0, fetches = 0;
    for (const MemRef &ref : refs) {
        if (ref.kind == RefKind::IFetch)
            ++fetches;
        else if (ref.kind == RefKind::Store)
            ++stores;
        else
            ++loads;
    }
    EXPECT_EQ(fetches, handlers.costs().pageFaultInstrs);
    EXPECT_GT(loads, 0u);
    EXPECT_GT(stores, 0u);
}

TEST(Handlers, FetchesAreSequentialWithinBody)
{
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss({}, into(refs));
    Addr prev = 0;
    bool first = true;
    for (const MemRef &ref : refs) {
        if (!ref.isInstr())
            continue;
        if (!first) {
            EXPECT_EQ(ref.vaddr, prev + 4);
        }
        prev = ref.vaddr;
        first = false;
    }
}

TEST(Handlers, BodiesFitCompactOsImage)
{
    // Every reference must land inside the fixed 12 KB OS image
    // (code 4 KB + data 8 KB) so the pinned-reserve arithmetic in
    // the pager holds.
    HandlerTraces handlers;
    std::vector<MemRef> refs;
    handlers.tlbMiss({}, into(refs));
    handlers.pageFault({}, into(refs));
    for (int i = 0; i < 40; ++i)
        handlers.contextSwitch(into(refs)); // rotates PCB slots
    HandlerLayout lay;
    for (const MemRef &ref : refs) {
        ASSERT_GE(ref.vaddr, lay.codeBase);
        ASSERT_LT(ref.vaddr, lay.codeBase + 12 * 1024)
            << std::hex << ref.vaddr;
    }
}

TEST(Handlers, ConsecutiveSwitchesTouchDifferentPcbs)
{
    HandlerTraces handlers;
    std::vector<MemRef> a, b;
    handlers.contextSwitch(into(a));
    handlers.contextSwitch(into(b));
    // Data reference sets differ between consecutive switches.
    bool differs = false;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (!a[i].isInstr() && !b[i].isInstr() &&
            a[i].vaddr != b[i].vaddr) {
            differs = true;
            break;
        }
    }
    EXPECT_TRUE(differs);
}

TEST(Handlers, CustomCosts)
{
    HandlerCosts costs;
    costs.tlbMissInstrs = 10;
    costs.contextSwitchInstrs = 50;
    costs.contextSwitchData = 20;
    HandlerTraces handlers(HandlerLayout{}, costs);
    std::vector<MemRef> refs;
    handlers.contextSwitch(into(refs));
    EXPECT_EQ(refs.size(), 70u);
}

TEST(Handlers, ReturnsEmittedCount)
{
    // The engine adds each body's length to the reference counters
    // once, from the count the emitter returns.
    HandlerTraces handlers;
    std::vector<MemRef> tlb, fault, sw;
    std::size_t n_tlb = handlers.tlbMiss({0x13000, 0x13040}, into(tlb));
    std::size_t n_fault = handlers.pageFault({0x13080}, into(fault));
    std::size_t n_sw = handlers.contextSwitch(into(sw));
    EXPECT_EQ(n_tlb, tlb.size());
    EXPECT_EQ(n_fault, fault.size());
    EXPECT_EQ(n_sw, sw.size());
}

} // namespace
} // namespace rampage
