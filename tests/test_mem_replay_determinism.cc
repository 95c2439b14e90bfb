/**
 * @file
 * Equivalence guarantees of the optimized trace-replay data path:
 *
 *  - TraceEngine::run (event-driven issue, calendar-queue
 *    completions with a min-heap overflow, SoA batched decode) is
 *    bit-identical to mem::runReferenceReplay (the straightforward
 *    cycle-stepped engine kept as the oracle) for every model
 *    output, including runs whose completions overflow the ring;
 *  - the scalar and SSE2 tag probes return the same way for every
 *    probe, across associativities 1-16 with partial sets, invalid
 *    ways, and signature collisions.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "mem/engine.hh"
#include "mem/hierarchy.hh"
#include "mem/reference_engine.hh"
#include "mem/tagsearch.hh"
#include "trace/writer.hh"
#include "workloads/registry.hh"

using namespace stack3d;

namespace {

trace::TraceBuffer
makeTrace(const char *kernel_name, std::uint64_t records)
{
    auto kernel = workloads::makeRmsKernel(kernel_name);
    workloads::WorkloadConfig cfg;
    cfg.records_per_thread = records;
    return kernel->generate(cfg);
}

void
expectResultsIdentical(const mem::EngineResult &a,
                       const mem::EngineResult &b, const char *what)
{
    EXPECT_EQ(a.num_records, b.num_records) << what;
    EXPECT_EQ(a.total_cycles, b.total_cycles) << what;
    // Bitwise equality on the derived floats: the engines must
    // accumulate in the same order, not just land close.
    EXPECT_EQ(a.cpma, b.cpma) << what;
    EXPECT_EQ(a.avg_latency, b.avg_latency) << what;
    EXPECT_EQ(a.offdie_gbps, b.offdie_gbps) << what;
    EXPECT_EQ(a.bus_power_w, b.bus_power_w) << what;
    EXPECT_EQ(a.l1d_miss_rate, b.l1d_miss_rate) << what;
    EXPECT_EQ(a.llc_miss_rate, b.llc_miss_rate) << what;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.latency_frac[i], b.latency_frac[i]) << what;
    EXPECT_EQ(a.hier.accesses, b.hier.accesses) << what;
    EXPECT_EQ(a.hier.offdie_fill_bytes, b.hier.offdie_fill_bytes)
        << what;
}

} // namespace

TEST(MemReplayDeterminism, FastEngineMatchesReference)
{
    const mem::StackOption options[] = {
        mem::StackOption::Baseline4MB,
        mem::StackOption::Sram12MB,
        mem::StackOption::Dram64MB,
    };
    for (const char *name : {"sMVM", "gauss", "conj"}) {
        trace::TraceBuffer buf = makeTrace(name, 20000);
        for (mem::StackOption opt : options) {
            mem::HierarchyParams hp = mem::makeHierarchyParams(opt);
            mem::MemoryHierarchy h_fast(hp);
            mem::MemoryHierarchy h_ref(hp);
            mem::TraceEngine eng;
            mem::EngineResult fast = eng.run(buf, h_fast);
            mem::EngineResult ref =
                mem::runReferenceReplay(eng.params(), buf, h_ref);
            expectResultsIdentical(fast, ref, name);
        }
    }
}

TEST(MemReplayDeterminism, CalendarOverflowMatchesReference)
{
    // Completions beyond the calendar ring go through its overflow
    // heap. At the built 16 GB/s bus only windows 128 and 256
    // overflow. A 1 GB/s bus queues misses 20k-79k cycles out, so
    // every run takes the overflow path. At 0.01 GB/s one 64-byte
    // line holds the bus for 15,360 cycles, longer than the ring, so
    // the ring runs empty and the heap's top sets the clock whenever
    // the engine stalls.
    trace::TraceBuffer buf = makeTrace("sMVM", 20000);
    for (mem::StackOption opt :
         {mem::StackOption::Baseline4MB, mem::StackOption::Dram64MB}) {
        for (double gbps : {16.0, 1.0, 0.01}) {
            for (unsigned window : {64u, 128u, 256u}) {
                mem::HierarchyParams hp = mem::makeHierarchyParams(opt);
                hp.bus.bandwidth_gbps = gbps;
                mem::MemoryHierarchy h_fast(hp);
                mem::MemoryHierarchy h_ref(hp);
                mem::EngineParams ep;
                ep.window = window;
                mem::EngineResult fast =
                    mem::TraceEngine(ep).run(buf, h_fast);
                mem::EngineResult ref =
                    mem::runReferenceReplay(ep, buf, h_ref);
                const std::string what =
                    std::string(mem::stackOptionName(opt)) + " at " +
                    std::to_string(gbps) + " GB/s, window " +
                    std::to_string(window);
                expectResultsIdentical(fast, ref, what.c_str());
                if (gbps < 16.0) {
                    EXPECT_GT(fast.counters.value(
                                  "replay.calendar_overflows"),
                              0.0)
                        << what;
                }
            }
        }
    }
}

TEST(MemReplayDeterminism, OverflowBurstMatchesReference)
{
    // Off-die fills hold the bus at least one cycle each, so they
    // complete at most one per cycle and never bunch up. Stacked
    // DRAM-cache hits do not cross the bus: with a 20,000-cycle tag
    // lookup, both cpus' L1 misses into a 256 KB footprint land far
    // beyond the 4096-cycle ring, and two of them can come due in the
    // same cycle. When the engine stalls it jumps to the first, and
    // one drain chunk then has several overflowed completions due:
    // the heap must hand the ring every due entry, not just its top,
    // or the rest are stranded behind the drain horizon and the
    // replay never ends.
    trace::ThreadTracer t0(0), t1(1);
    Random rng(5);
    for (int i = 0; i < 3000; ++i) {
        t0.load(rng.uniformInt(256u << 10) & ~Addr(63), 0x1);
        t1.load(rng.uniformInt(256u << 10) & ~Addr(63), 0x2);
    }
    std::vector<trace::RecordBlocks> threads;
    threads.push_back(t0.take());
    threads.push_back(t1.take());
    trace::TraceBuffer buf =
        trace::TraceMerger().merge(std::move(threads));

    mem::HierarchyParams hp =
        mem::makeHierarchyParams(mem::StackOption::Dram32MB);
    hp.dram_cache.tag_latency = 20000;
    mem::MemoryHierarchy h_fast(hp);
    mem::MemoryHierarchy h_ref(hp);
    mem::TraceEngine eng;
    mem::EngineResult fast = eng.run(buf, h_fast);
    mem::EngineResult ref =
        mem::runReferenceReplay(eng.params(), buf, h_ref);
    expectResultsIdentical(fast, ref, "overflow burst");
    EXPECT_GT(fast.counters.value("replay.calendar_overflows"), 0.0);
}

TEST(MemReplayDeterminism, FastEngineMatchesReferenceAllTagModes)
{
    trace::TraceBuffer buf = makeTrace("sMVM", 20000);
    mem::HierarchyParams hp =
        mem::makeHierarchyParams(mem::StackOption::Dram32MB);
    mem::EngineResult first;
    int i = 0;
    for (mem::TagSearchMode mode :
         {mem::TagSearchMode::Scalar, mem::TagSearchMode::Simd}) {
        mem::setTagSearchMode(mode);
        mem::MemoryHierarchy h_fast(hp);
        mem::MemoryHierarchy h_ref(hp);
        mem::TraceEngine eng;
        mem::EngineResult fast = eng.run(buf, h_fast);
        mem::EngineResult ref =
            mem::runReferenceReplay(eng.params(), buf, h_ref);
        expectResultsIdentical(fast, ref, "tag mode");
        if (i++ == 0)
            first = fast;
        else
            expectResultsIdentical(fast, first, "across tag modes");
    }
    mem::clearTagSearchMode();
}

TEST(TagSearch, VariantsAgreeAcrossAssociativities)
{
    Random rng(1234);
    for (unsigned assoc = 1; assoc <= 16; ++assoc) {
        const unsigned stride = mem::sigStride(assoc);
        std::vector<std::uint64_t> tags(assoc);
        std::vector<mem::TagSig> sigs(stride);
        for (int trial = 0; trial < 200; ++trial) {
            // Partial sets: every valid-mask density from empty to
            // full shows up across trials.
            std::uint32_t valid =
                std::uint32_t(rng.uniformInt(1u << assoc));
            for (unsigned w = 0; w < assoc; ++w) {
                // Small tag space forces duplicate tags and
                // signature collisions.
                tags[w] = rng.uniformInt(40);
                sigs[w] = mem::sigOf(tags[w]);
            }
            // Padding lanes carry a hostile signature: one that
            // matches the probe but belongs to no way.
            for (unsigned w = assoc; w < stride; ++w)
                sigs[w] = mem::sigOf(7);
            for (std::uint64_t probe = 0; probe < 45; ++probe) {
                int scalar = mem::findWayScalar(tags.data(), valid,
                                                assoc, probe);
                int simd = mem::findWay(mem::TagSearchMode::Simd,
                                        sigs.data(), tags.data(), valid,
                                        assoc, probe);
                EXPECT_EQ(scalar, simd)
                    << "assoc " << assoc << " probe " << probe;
            }
        }
    }
}

TEST(TagSearch, ModeOverride)
{
    mem::setTagSearchMode(mem::TagSearchMode::Scalar);
    EXPECT_EQ(mem::tagSearchMode(), mem::TagSearchMode::Scalar);
    mem::setTagSearchMode(mem::TagSearchMode::Simd);
    EXPECT_EQ(mem::tagSearchMode(), mem::TagSearchMode::Simd);
    mem::clearTagSearchMode();
    // Back to the build default: the SSE2 probe wherever it compiles.
#if defined(__SSE2__)
    EXPECT_EQ(mem::tagSearchMode(), mem::TagSearchMode::Simd);
#else
    EXPECT_EQ(mem::tagSearchMode(), mem::TagSearchMode::Scalar);
#endif
}
