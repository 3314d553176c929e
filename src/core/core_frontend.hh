/**
 * @file
 * The per-CPU half of the core/memory seam: everything a single core
 * owns privately — its split L1 caches, its TLB, and the scratch
 * buffers the handler-trace interleave reuses.  A Hierarchy owns one
 * CoreFrontend per configured core (CommonConfig::cores) over one
 * shared MemoryBackend (src/core/memory_backend.hh); the AccessEngine
 * (src/core/access_engine.hh) runs the access sequence against the
 * hierarchy's *active* frontend, and every request the frontend makes
 * of the backend carries its CoreId through the MemoryPort.
 *
 * With cores == 1 the single frontend is exactly the state the
 * monolithic Hierarchy used to hold inline — same seeds, same
 * registration order, same statistics names — so single-core runs
 * stay bit-identical to the pre-split engine (the golden stdout
 * proves it).
 */

#ifndef RAMPAGE_CORE_CORE_FRONTEND_HH
#define RAMPAGE_CORE_CORE_FRONTEND_HH

#include <cstddef>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/config.hh"
#include "tlb/tlb.hh"
#include "trace/record.hh"
#include "util/types.hh"

namespace rampage
{

class StatsRegistry;

/**
 * The explicit core -> memory port: every backend request (L1 fill,
 * write-back, translation walk, fault service) is made on behalf of
 * the core this port names.  The backend uses it to attribute
 * residency (which cores may hold private copies of a frame) and to
 * serialize concurrent transfers on the shared bus.
 */
struct MemoryPort
{
    CoreId core = 0;
};

/** Most cores a hierarchy supports (residency masks are 64-bit). */
constexpr unsigned maxCores = 64;

/**
 * One CPU core's private state.  A plain aggregate: the AccessEngine
 * and the Hierarchy's policy hooks read and write it directly,
 * exactly as they did when the members lived inline in Hierarchy.
 */
struct CoreFrontend
{
    /**
     * @param cfg shared parameters (L1 geometry, TLB shape).
     * @param core this frontend's identity.  Core 0 uses the
     *        monolithic hierarchy's historical seeds (L1i 101,
     *        L1d 102, the TlbParams seed as configured) so cores=1
     *        is bit-identical to the pre-split engine; further cores
     *        derive disjoint deterministic seeds from their id.
     */
    CoreFrontend(const CommonConfig &cfg, CoreId core);

    /** Register l1i/l1d/tlb stats under `prefix` ("" or "coreN."). */
    void registerStats(StatsRegistry &reg, const std::string &prefix);

    CoreId id = 0;
    MemoryPort port; ///< carries `id` on every backend request

    SetAssocCache l1iCache;
    SetAssocCache l1dCache;
    Tlb tlbUnit;

    /** Scratch buffer reused by handler-trace synthesis. */
    std::vector<MemRef> handlerScratch;
    std::vector<Addr> probeScratch;
};

} // namespace rampage

#endif // RAMPAGE_CORE_CORE_FRONTEND_HH
