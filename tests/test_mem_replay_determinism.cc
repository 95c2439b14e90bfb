/**
 * @file
 * Equivalence guarantees of the optimized trace-replay data path:
 *
 *  - TraceEngine::run (event-driven issue, calendar-queue
 *    completions, SoA batched decode) is bit-identical to
 *    mem::runReferenceReplay (the straightforward cycle-stepped
 *    engine kept as the oracle) for every model output;
 *  - the scalar and SSE2 tag probes return the same way for every
 *    probe, across associativities 1-16 with partial sets, invalid
 *    ways, and signature collisions.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "mem/engine.hh"
#include "mem/hierarchy.hh"
#include "mem/reference_engine.hh"
#include "mem/tagsearch.hh"
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
