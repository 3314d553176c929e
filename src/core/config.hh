/**
 * @file
 * Configuration structures for the simulated systems (paper §4).
 *
 * CommonConfig carries everything shared by all hierarchies (§4.3):
 * the issue-rate CPU model, split L1, TLB, CPU-L2 bus and Direct
 * Rambus DRAM.  ConventionalConfig adds the L2 cache geometry
 * (direct-mapped baseline §4.4, or 2-way §4.7); PagedConfig adds
 * the SRAM main-memory page store (§4.5, §6.2/§6.3) and the
 * context-switch-on-miss option (§4.6).
 */

#ifndef RAMPAGE_CORE_CONFIG_HH
#define RAMPAGE_CORE_CONFIG_HH

#include <cstdint>

#include "cache/cache.hh"
#include "dram/rambus.hh"
#include "dram/sdram.hh"
#include "os/page_store.hh"
#include "tlb/tlb.hh"
#include "trace/handlers.hh"
#include "util/types.hh"

namespace rampage
{

/** Parameters shared by every simulated hierarchy (§4.3). */
struct CommonConfig
{
    /**
     * Instruction issue rate in Hz.  Models a superscalar CPU's issue
     * rate rather than a literal clock: SRAM levels scale with it,
     * DRAM does not (the paper sweeps 200 MHz - 4 GHz).
     */
    std::uint64_t issueHz = 1'000'000'000;

    /**
     * CPU cores: each gets a private CoreFrontend (split L1, TLB)
     * over the one shared memory backend
     * (L2/SRAM-MM, DRAM, page replacement).  1 reproduces the paper's
     * single-CPU systems bit-identically; N > 1 opens the multicore
     * axis (the Simulator drives the frontends in deterministic
     * round-robin quanta).  Capped at 64 (maxCores): frame-residency
     * masks are 64-bit.
     */
    unsigned cores = 1;

    // --- L1 (16 KB I + 16 KB D, direct-mapped, 32 B blocks) --------
    std::uint64_t l1SizeBytes = 16 * kib;
    std::uint64_t l1BlockBytes = 32;
    unsigned l1Assoc = 1;
    /** L1 read hit (and inclusion probe) cost; hits are pipelined so
     *  this is charged only for instruction issue and probes. */
    Cycles l1HitCycles = 1;

    // --- CPU-L2 bus / L2 hit timing ---------------------------------
    /**
     * L1 miss penalty to the L2 cache or SRAM main memory: 4 cycles
     * of the 1/3-rate 128-bit bus = 12 CPU cycles, including tag
     * check and transfer to L1.
     */
    Cycles l2HitCycles = 12;
    /** L1 write-back to L2 (tag update + transfer). */
    Cycles l1WritebackCycles = 12;
    /** L1 write-back under RAMpage: 9 cycles, no L2 tag to update. */
    Cycles l1WritebackCyclesRampage = 9;

    // --- TLB (64 entries, fully associative, random) ----------------
    TlbParams tlb{};

    // --- DRAM (Direct Rambus, non-pipelined) ------------------------
    /** DRAM technology (§3.3 compares Rambus with SDRAM). */
    enum class DramKind : std::uint8_t { DirectRambus, Sdram };
    DramKind dramKind = DramKind::DirectRambus;
    RambusConfig rambus{};
    SdramConfig sdram{};
    /** DRAM page size (fixed, both hierarchies). */
    std::uint64_t dramPageBytes = 4096;

    // --- software costs ---------------------------------------------
    HandlerLayout handlerLayout{};
    HandlerCosts handlerCosts{};
    /** Uncached DRAM-directory probe size during RAMpage faults. */
    std::uint64_t dramProbeBytes = 8;

    /** CPU cycle time in picoseconds. */
    Tick cyclePs() const;
};

/** Conventional cache hierarchy (§4.4 baseline, §4.7 2-way). */
struct ConventionalConfig
{
    CommonConfig common{};
    std::uint64_t l2SizeBytes = 4 * mib;
    std::uint64_t l2BlockBytes = 128;
    /** 1 = the baseline direct-mapped L2; 2 = the §4.7 system. */
    unsigned l2Assoc = 1;
    /**
     * L2 organisation: a conventional set-associative array, or the
     * §3.2-cited column-associative design (direct-mapped with a
     * rehash probe; l2Assoc is ignored in that case).
     */
    enum class L2Style : std::uint8_t { SetAssoc, ColumnAssoc };
    L2Style l2Style = L2Style::SetAssoc;
    /** The 2-way system uses random replacement (§4.7). */
    ReplPolicy l2Repl = ReplPolicy::Random;
    /** Optional victim cache behind L2 (§3.2 ablation). */
    unsigned victimEntries = 0;
};

/**
 * RAMpage hierarchy (§4.5): a software-paged SRAM main memory whose
 * page-size policy lives in the PageStoreParams (uniform pages, or
 * the §6.2/§6.3 per-process sizes).
 */
struct PagedConfig
{
    CommonConfig common{};
    PageStoreParams pager{};
    /** Take a context switch on a miss to DRAM (§4.6). */
    bool switchOnMiss = false;
};

/** The §4.5 fixed-page-size system is the uniform page-size policy. */
using RampageConfig = PagedConfig;

} // namespace rampage

#endif // RAMPAGE_CORE_CONFIG_HH
