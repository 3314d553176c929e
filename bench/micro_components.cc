/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: the
 * cache tag walk, TLB lookup and miss-path insert, inverted-page-table
 * lookup, page-store reference marking, synthetic trace generation,
 * Rambus pricing, and whole-hierarchy access.
 * These document the simulator's own performance (references per
 * second), which bounds how far RAMPAGE_FULL-scale runs can go.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/sweep.hh"
#include "dram/rambus.hh"
#include "os/inverted_page_table.hh"
#include "os/page_store.hh"
#include "tlb/tlb.hh"
#include "trace/benchmarks.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace
{

using namespace rampage;

void
BM_CacheAccess(benchmark::State &state)
{
    CacheParams params;
    params.sizeBytes = 16 * kib;
    params.blockBytes = 32;
    params.assoc = static_cast<unsigned>(state.range(0));
    SetAssocCache cache(params);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 18), false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(8);

void
BM_TlbLookup(benchmark::State &state)
{
    Tlb tlb;
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn)
        tlb.insert(0, vpn, vpn);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(0, rng.below(96)).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

void
BM_TlbMissInsert(benchmark::State &state)
{
    // The paper's TLB (64 entries, fully associative, random
    // replacement) over 96 pages: a third of the lookups miss and
    // insert over a random victim, as on the RAMpage miss path.
    Tlb tlb;
    Rng rng(2);
    for (auto _ : state) {
        std::uint64_t vpn = rng.below(96);
        if (!tlb.lookup(0, vpn).hit)
            tlb.insert(0, vpn, vpn);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbMissInsert);

void
BM_IptLookup(benchmark::State &state)
{
    InvertedPageTable ipt(4096, 0);
    for (std::uint64_t f = 0; f < 4096; ++f)
        ipt.insert(f, 0, f * 3);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ipt.lookup(0, rng.below(4096) * 3).found);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IptLookup);

void
BM_PageStoreTouch(benchmark::State &state)
{
    // The clock reference mark set on every L1 fill and write-back,
    // over the user frames of a 128 B-page SRAM main memory.
    PageStoreParams params;
    params.pageBytes = 128;
    PageStore store(params);
    Rng rng(4);
    std::uint64_t first = store.osFrames();
    std::uint64_t span = store.userFrames();
    for (auto _ : state) {
        store.touch(first + rng.below(span));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageStoreTouch);

void
BM_SyntheticGeneration(benchmark::State &state)
{
    SyntheticProgram prog(benchmarkProfile("gcc"), 0);
    MemRef ref;
    for (auto _ : state) {
        prog.next(ref);
        benchmark::DoNotOptimize(ref.vaddr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticGeneration);

void
BM_RambusPricing(benchmark::State &state)
{
    DirectRambus rambus;
    std::uint64_t bytes = 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rambus.readPs(bytes));
        bytes = bytes >= 4096 ? 2 : bytes * 2;
    }
}
BENCHMARK(BM_RambusPricing);

void
BM_ConventionalAccess(benchmark::State &state)
{
    auto hier = makeHierarchy(
        baselineConfig(1'000'000'000ull, state.range(0)));
    SyntheticProgram prog(benchmarkProfile("gcc"), 0);
    MemRef ref;
    for (auto _ : state) {
        prog.next(ref);
        benchmark::DoNotOptimize(hier->access(ref).cpuPs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConventionalAccess)->Arg(128)->Arg(4096);

void
BM_RampageAccess(benchmark::State &state)
{
    auto hier = makeHierarchy(
        rampageConfig(1'000'000'000ull, state.range(0)));
    SyntheticProgram prog(benchmarkProfile("gcc"), 0);
    MemRef ref;
    for (auto _ : state) {
        prog.next(ref);
        benchmark::DoNotOptimize(hier->access(ref).cpuPs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RampageAccess)->Arg(128)->Arg(1024)->Arg(4096);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // The library's "built as DEBUG" warning describes libbenchmark
    // itself; this names the build of the simulator code being timed.
    benchmark::AddCustomContext("simulator_build_type", RAMPAGE_BUILD_TYPE);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
