/**
 * @file
 * Cross-module integration tests: traces through the hierarchy with
 * consistent accounting, capacity sensitivity end to end, ablations
 * (prefetcher, dependencies), and floorplan-to-thermal coupling.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "common/random.hh"
#include "core/memory_study.hh"
#include "core/thermal_study.hh"
#include "trace/file.hh"
#include "trace/writer.hh"
#include "floorplan/reference.hh"
#include "mem/engine.hh"
#include "workloads/registry.hh"

using namespace stack3d;

namespace {

trace::TraceBuffer
kernelTrace(const char *name, std::uint64_t records_per_thread,
            double scale = 1.0)
{
    workloads::WorkloadConfig cfg;
    cfg.records_per_thread = records_per_thread;
    cfg.scale = scale;
    return workloads::makeRmsKernel(name)->generate(cfg);
}

/** A one-thread trace: the tracer's records, in order. */
trace::TraceBuffer
singleThread(trace::ThreadTracer &tracer)
{
    std::vector<trace::RecordBlocks> threads;
    threads.push_back(tracer.take());
    return trace::TraceMerger().merge(std::move(threads));
}

} // anonymous namespace

TEST(Integration, HierarchyCountersConsistent)
{
    trace::TraceBuffer buf = kernelTrace("sMVM", 50000, 0.2);
    mem::MemoryHierarchy hier(
        mem::makeHierarchyParams(mem::StackOption::Baseline4MB));
    mem::TraceEngine engine;
    mem::EngineResult res = engine.run(buf, hier);

    // Every record reached the hierarchy exactly once.
    EXPECT_EQ(res.hier.accesses, buf.size());
    EXPECT_EQ(res.hier.loads + res.hier.stores + res.hier.ifetches,
              buf.size());
    // Off-die accounting matches the bus.
    EXPECT_EQ(hier.offDieBytes(), hier.bus().totalBytes());
    // L1 hits + misses == accesses + prefetch installs.
    std::uint64_t l1_total = 0;
    for (unsigned c = 0; c < 2; ++c) {
        l1_total += hier.l1d(c).counters().hits +
                    hier.l1d(c).counters().misses;
    }
    EXPECT_EQ(l1_total, res.hier.accesses + res.hier.prefetches);
}

TEST(Integration, CapacityCurveEndToEnd)
{
    // gauss at full scale: thrashes 4 MB, fits 12/32/64.
    trace::TraceBuffer buf = kernelTrace("gauss", 800000);
    double cpma[4];
    int i = 0;
    for (auto opt : core::kStackOptions) {
        mem::MemoryHierarchy hier(mem::makeHierarchyParams(opt));
        mem::TraceEngine engine;
        cpma[i++] = engine.run(buf, hier).cpma;
    }
    EXPECT_GT(cpma[0], 2.0 * cpma[1]);
    EXPECT_NEAR(cpma[1], cpma[2], cpma[1] * 0.3);
    EXPECT_NEAR(cpma[2], cpma[3], cpma[2] * 0.15);
}

TEST(Integration, PrefetcherAblation)
{
    // A dependency-chained sequential sweep (each access produces
    // the next one's value, as in the RMS kernels' read-modify-write
    // vector updates): without the prefetcher every fourth access
    // stalls the chain for a full memory round trip; with it the
    // stream is in the L1 before the chain arrives.
    trace::ThreadTracer tracer(0);
    trace::RecordId prev = trace::kNone;
    for (int i = 0; i < 60000; ++i)
        prev = tracer.load(0x1000000 + Addr(i) * 16, 0x1, prev, 16);
    trace::TraceBuffer buf = singleThread(tracer);

    auto run = [&](bool prefetch) {
        mem::HierarchyParams p =
            mem::makeHierarchyParams(mem::StackOption::Baseline4MB);
        p.prefetcher.enable = prefetch;
        mem::MemoryHierarchy hier(p);
        mem::TraceEngine engine;
        return engine.run(buf, hier).cpma;
    };
    EXPECT_GT(run(false), run(true) * 2.0);
}

TEST(Integration, DependencyAblation)
{
    // Ignoring trace dependencies can only speed things up
    // (infinite MLP).
    trace::TraceBuffer buf = kernelTrace("sMVM", 100000, 0.3);
    auto run = [&](bool honor) {
        mem::HierarchyParams p =
            mem::makeHierarchyParams(mem::StackOption::Baseline4MB);
        mem::MemoryHierarchy hier(p);
        mem::EngineParams ep;
        ep.honor_dependencies = honor;
        return mem::TraceEngine(ep).run(buf, hier).total_cycles;
    };
    EXPECT_LE(run(false), run(true));
}

TEST(Integration, SectoredVsNonSectoredDramCache)
{
    // Random sparse touches, one line per page: a non-sectored
    // cache (sector == page) drags in 512 B per miss where the
    // sectored design moves only the demanded 64 B — the reason the
    // paper's DRAM cache is sectored.
    trace::ThreadTracer tracer(0);
    Random rng(21);
    for (int i = 0; i < 40000; ++i) {
        Addr addr = rng.uniformInt(512u << 20) & ~Addr(63);
        tracer.load(addr, 0x1);
    }
    trace::TraceBuffer buf = singleThread(tracer);

    auto offdie = [&](std::uint32_t sector_bytes) {
        mem::HierarchyParams p =
            mem::makeHierarchyParams(mem::StackOption::Dram32MB);
        p.dram_cache.sector_bytes = sector_bytes;
        p.prefetcher.enable = false;
        mem::MemoryHierarchy hier(p);
        mem::TraceEngine engine;
        engine.run(buf, hier);
        return hier.offDieBytes();
    };
    EXPECT_GT(offdie(512), offdie(64) * 4);
}

TEST(Integration, FloorplanPowersThermalSolve)
{
    // The Core 2 Duo floorplan's hottest block should be where the
    // thermal field peaks (FP unit area of one of the cores).
    auto fp = floorplan::makeCore2Duo();
    core::ThermalSolution solution;
    core::solveFloorplanThermals(fp, thermal::StackedDieType::None, {},
                                 {}, &solution, 27, 21);
    ASSERT_TRUE(solution.field.has_value());
    const auto &field = *solution.field;
    const auto &mesh = *solution.mesh;

    unsigned layer = mesh.geometry().layerIndex("active1");
    auto [pi, pj] = field.layerPeakCell(layer);
    // Map the peak cell back to die coordinates.
    double dx = fp.width() / mesh.dieNx();
    double dy = fp.height() / mesh.dieNy();
    double px = (double(pi) - mesh.dieI0() + 0.5) * dx;
    double py = (double(pj) - mesh.dieJ0() + 0.5) * dy;

    // Inside (or adjacent to) one of the two hot clusters.
    const auto &fp0 = fp.block("core0.fp");
    const auto &fp1 = fp.block("core1.fp");
    double d0 = std::abs(px - fp0.centerX()) +
                std::abs(py - fp0.centerY());
    double d1 = std::abs(px - fp1.centerX()) +
                std::abs(py - fp1.centerY());
    EXPECT_LT(std::min(d0, d1), 3e-3);
}

TEST(Integration, StackedCacheDieIsCoolerThanCores)
{
    // In the 12 MB option the cache-only die has uniform low power:
    // its peak is well below the processor die's.
    using namespace floorplan;
    Floorplan base = makeCore2Duo();
    Floorplan sram =
        makeCacheDie(base, "sram8m", budgets::stacked_sram_8mb);
    Floorplan combined = stackFloorplans(base, sram, "c2_12m");
    core::ThermalPoint pt = core::solveFloorplanThermals(
        combined, thermal::StackedDieType::LogicSram, {}, {}, nullptr,
        27, 21);
    EXPECT_GT(pt.die1_peak_c, pt.die2_peak_c - 3.0);
    EXPECT_GT(pt.peak_c, 80.0);
}

TEST(Integration, TraceFileRoundTripThroughEngine)
{
    // A trace written to disk and read back produces identical
    // simulation results.
    trace::TraceBuffer buf = kernelTrace("conj", 30000, 0.2);
    std::string path =
        (std::filesystem::temp_directory_path() / "s3d_rt.bin")
            .string();
    trace::writeTraceFile(path, buf);
    trace::TraceBuffer loaded = trace::readTraceFile(path);

    auto run = [](const trace::TraceBuffer &b) {
        mem::MemoryHierarchy hier(
            mem::makeHierarchyParams(mem::StackOption::Dram32MB));
        mem::TraceEngine engine;
        return engine.run(b, hier).total_cycles;
    };
    EXPECT_EQ(run(buf), run(loaded));
    std::remove(path.c_str());
}
