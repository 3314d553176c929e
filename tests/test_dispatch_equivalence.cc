/**
 * @file
 * Equivalence proofs for the batched hot path.
 *
 * Hierarchy::accessBatch() over any chunking must be exactly access()
 * called `consumed` times: same per-chunk outcome, same final
 * statistics snapshot, including chunks a switch-on-miss fault cuts
 * short.  Likewise every trace family's stream must not depend on how
 * fill() chunks it, with next() being a one-reference fill().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/benchmarks.hh"
#include "trace/file_format.hh"
#include "trace/synthetic.hh"
#include "util/error.hh"

namespace rampage
{
namespace
{

constexpr std::uint64_t oneGhz = 1'000'000'000ull;

// ---------------------------------------------- accessBatch == access

/**
 * Feed one twin hierarchy through accessBatch() in ragged chunks and
 * the other through access() one reference at a time, slice by slice
 * with a context-switch trace between slices.  Switch-on-miss twins
 * stop each chunk at its first deferred fault and re-feed from
 * `consumed`, as the Simulator does.
 */
void
expectBatchEqualsAccess(const HierarchyConfig &cfg, bool stop_on_fault)
{
    constexpr std::size_t nrefs = 60'000;
    constexpr std::size_t slice = 7'000; // ragged final slice
    std::vector<MemRef> refs(nrefs);
    std::vector<std::unique_ptr<TraceSource>> workload = makeWorkload();
    for (std::size_t start = 0; start < nrefs; start += slice) {
        TraceSource &src = *workload[start / slice % workload.size()];
        const std::size_t n = std::min(slice, nrefs - start);
        ASSERT_EQ(src.fill(&refs[start], n), n);
    }

    auto batched = makeHierarchy(cfg);
    auto single = makeHierarchy(cfg);
    const std::size_t chunks[] = {1, 4096, 2, 17, 1, 1000, 3, 64};
    std::size_t next_chunk = 0;
    std::uint64_t faults = 0;
    for (std::size_t start = 0; start < nrefs; start += slice) {
        ASSERT_EQ(batched->runContextSwitchTrace(),
                  single->runContextSwitchTrace());
        const std::size_t end = std::min(nrefs, start + slice);
        for (std::size_t pos = start; pos < end;) {
            std::size_t n = std::min(
                chunks[next_chunk++ % std::size(chunks)], end - pos);
            BatchOutcome got =
                batched->accessBatch(&refs[pos], n, stop_on_fault);

            BatchOutcome want;
            while (want.consumed < n && !want.pageFault) {
                AccessOutcome one = single->access(refs[pos + want.consumed]);
                ++want.consumed;
                want.cpuPs += one.cpuPs;
                want.deferPs += one.deferPs;
                want.pageFault =
                    stop_on_fault && one.pageFault && one.deferPs > 0;
            }
            ASSERT_EQ(got.consumed, want.consumed) << "at ref " << pos;
            ASSERT_EQ(got.pageFault, want.pageFault) << "at ref " << pos;
            ASSERT_EQ(got.cpuPs, want.cpuPs) << "at ref " << pos;
            ASSERT_EQ(got.deferPs, want.deferPs) << "at ref " << pos;
            faults += got.pageFault;
            pos += got.consumed;
        }
    }
    if (stop_on_fault) {
        EXPECT_GT(faults, 0u) << "no chunk stopped at a deferred fault";
    }
    EXPECT_EQ(batched->statsRegistry().snapshot().toJson().dump(),
              single->statsRegistry().snapshot().toJson().dump());
}

TEST(BatchEquivalence, Baseline)
{
    expectBatchEqualsAccess(baselineConfig(oneGhz, 128), false);
}

TEST(BatchEquivalence, TwoWay)
{
    expectBatchEqualsAccess(twoWayConfig(oneGhz, 128), false);
}

TEST(BatchEquivalence, Rampage)
{
    expectBatchEqualsAccess(rampageConfig(oneGhz, 1024), false);
}

TEST(BatchEquivalence, RampageSwitchOnMiss)
{
    expectBatchEqualsAccess(rampageConfig(oneGhz, 1024, true), true);
}

// ------------------------------------------------ TraceSource::fill

/** Collect up to `n` refs via repeated next(): chunk 1. */
std::vector<MemRef>
byNext(TraceSource &src, std::size_t n)
{
    std::vector<MemRef> refs;
    MemRef ref;
    while (refs.size() < n && src.next(ref))
        refs.push_back(ref);
    return refs;
}

/** Collect up to `n` refs via fill() in `chunk`-sized requests. */
std::vector<MemRef>
byFill(TraceSource &src, std::size_t n, std::size_t chunk)
{
    std::vector<MemRef> refs;
    std::vector<MemRef> buf(chunk);
    while (refs.size() < n) {
        std::size_t want = std::min(chunk, n - refs.size());
        std::size_t got = src.fill(buf.data(), want);
        refs.insert(refs.end(), buf.begin(), buf.begin() + got);
        if (got < want)
            break; // end of stream
    }
    return refs;
}

void
expectSameRefs(const std::vector<MemRef> &a,
               const std::vector<MemRef> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].vaddr, b[i].vaddr) << "ref " << i;
        ASSERT_EQ(a[i].kind, b[i].kind) << "ref " << i;
        ASSERT_EQ(a[i].pid, b[i].pid) << "ref " << i;
    }
}

const std::size_t fillChunks[] = {1, 2, 3, 7, 64, 1000};

TEST(TraceFill, SyntheticStreamIsTheSameInEveryChunking)
{
    ProgramProfile profile;
    profile.name = "fill-test";
    profile.seed = 42;
    for (std::size_t chunk : fillChunks) {
        SyntheticProgram via_next(profile, 3);
        SyntheticProgram via_fill(profile, 3);
        expectSameRefs(byNext(via_next, 5000),
                       byFill(via_fill, 5000, chunk));
    }
}

TEST(TraceFill, FileStreamIsTheSameInEveryChunkingAndStopsAtEof)
{
    for (bool din : {false, true}) {
        std::string path = std::string(::testing::TempDir()) +
                           "/rampage_fill_" + (din ? "din" : "native") +
                           ".trace";
        {
            TraceWriter writer(path, din);
            ProgramProfile profile;
            profile.name = "file-fill";
            profile.seed = 7;
            SyntheticProgram gen(profile, 5);
            MemRef ref;
            for (int i = 0; i < 1000; ++i) {
                gen.next(ref);
                writer.write(ref);
            }
        }
        for (std::size_t chunk : fillChunks) {
            FileTraceSource via_next(path, 5);
            FileTraceSource via_fill(path, 5);
            // Ask for more than the file holds: both paths must stop
            // short at EOF with the identical partial sequence.
            std::vector<MemRef> a = byNext(via_next, 1500);
            std::vector<MemRef> b = byFill(via_fill, 1500, chunk);
            EXPECT_EQ(a.size(), 1000u);
            expectSameRefs(a, b);
        }
        std::remove(path.c_str());
    }
}

/** A finite source implementing only fill(), as every source does. */
class FiniteSource : public TraceSource
{
  public:
    explicit FiniteSource(std::uint64_t count) : total(count) {}

    std::size_t
    fill(MemRef *buf, std::size_t n) override
    {
        std::size_t got = 0;
        for (; got < n && emitted < total; ++got, ++emitted) {
            buf[got].vaddr = emitted * 64;
            buf[got].kind = emitted % 3 ? RefKind::Load : RefKind::IFetch;
            buf[got].pid = 1;
        }
        return got;
    }

    void reset() override { emitted = 0; }
    std::string name() const override { return "finite"; }
    Pid pid() const override { return 1; }

  private:
    std::uint64_t total;
    std::uint64_t emitted = 0;
};

TEST(TraceFill, NextIsASingleRefFill)
{
    for (std::size_t chunk : fillChunks) {
        FiniteSource via_next(500);
        FiniteSource via_fill(500);
        std::vector<MemRef> a = byNext(via_next, 800);
        std::vector<MemRef> b = byFill(via_fill, 800, chunk);
        EXPECT_EQ(a.size(), 500u);
        expectSameRefs(a, b);
    }
}

} // namespace
} // namespace rampage
