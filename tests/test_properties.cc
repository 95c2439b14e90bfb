/**
 * @file
 * Cross-cutting property tests: invariants that must hold across
 * parameter sweeps rather than at hand-picked points — thermal
 * linearity and superposition, engine monotonicities, pipeline
 * latency monotonicity, and workload/trace structural properties.
 */

#include <gtest/gtest.h>

#include "cpu/pipeline.hh"
#include "mem/engine.hh"
#include "power/scaling.hh"
#include "thermal/solver.hh"
#include "thermal/stacks.hh"
#include "workloads/registry.hh"

using namespace stack3d;

// ---------------------------------------------------------------------
// thermal properties
// ---------------------------------------------------------------------

namespace {

thermal::StackGeometry
testStack()
{
    return thermal::makeTwoDieStack(1e-2, 1e-2,
                                    thermal::StackedDieType::Dram);
}

double
peakWith(const thermal::StackGeometry &geom, double w1, double w2)
{
    thermal::Mesh mesh(geom, 14, 14);
    if (w1 > 0.0) {
        thermal::PowerMap map(14, 14, 1e-2, 1e-2);
        map.addRect(2e-3, 2e-3, 6e-3, 6e-3, w1);
        mesh.setLayerPower(geom.layerIndex("active1"), map);
    }
    if (w2 > 0.0) {
        thermal::PowerMap map(14, 14, 1e-2, 1e-2);
        map.addUniform(w2);
        mesh.setLayerPower(geom.layerIndex("active2"), map);
    }
    return thermal::solveSteadyState(mesh, 1e-10).peak();
}

} // anonymous namespace

class ThermalLinearityTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ThermalLinearityTest, RiseScalesLinearlyWithPower)
{
    thermal::StackGeometry geom = testStack();
    double w = GetParam();
    double rise_1x = peakWith(geom, w, 0.0) - 40.0;
    double rise_3x = peakWith(geom, 3.0 * w, 0.0) - 40.0;
    EXPECT_NEAR(rise_3x, 3.0 * rise_1x, rise_1x * 0.01 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Powers, ThermalLinearityTest,
                         ::testing::Values(5.0, 20.0, 60.0, 150.0));

TEST(ThermalProperties, AmbientShiftIsPureOffset)
{
    thermal::StackGeometry geom = testStack();
    thermal::StackGeometry hot = geom;
    hot.ambient = 55.0;
    double base = peakWith(geom, 40.0, 4.0);
    double shifted = peakWith(hot, 40.0, 4.0);
    EXPECT_NEAR(shifted - base, 15.0, 0.02);
}

TEST(ThermalProperties, SuperpositionOfTwoDies)
{
    // Linear conduction: the combined rise equals the sum of each
    // die's rise in isolation.
    thermal::StackGeometry geom = testStack();
    thermal::Mesh m_both(geom, 14, 14);
    thermal::Mesh m_die1(geom, 14, 14);
    thermal::Mesh m_die2(geom, 14, 14);

    thermal::PowerMap p1(14, 14, 1e-2, 1e-2);
    p1.addRect(2e-3, 2e-3, 6e-3, 6e-3, 40.0);
    thermal::PowerMap p2(14, 14, 1e-2, 1e-2);
    p2.addUniform(6.0);

    m_both.setLayerPower(geom.layerIndex("active1"), p1);
    m_both.setLayerPower(geom.layerIndex("active2"), p2);
    m_die1.setLayerPower(geom.layerIndex("active1"), p1);
    m_die2.setLayerPower(geom.layerIndex("active2"), p2);

    auto f_both = thermal::solveSteadyState(m_both, 1e-11);
    auto f_1 = thermal::solveSteadyState(m_die1, 1e-11);
    auto f_2 = thermal::solveSteadyState(m_die2, 1e-11);

    // Check superposition at several probe cells.
    for (unsigned z : {2u, 8u}) {
        for (unsigned i : {3u, 7u, 11u}) {
            double combined = f_both.at(i, i, z) - 40.0;
            double summed = (f_1.at(i, i, z) - 40.0) +
                            (f_2.at(i, i, z) - 40.0);
            EXPECT_NEAR(combined, summed,
                        std::abs(summed) * 0.01 + 0.02);
        }
    }
}

TEST(ThermalProperties, BetterCoolingNeverHurts)
{
    thermal::PackageModel weak;
    weak.h_top = 3000.0;
    thermal::PackageModel strong;
    strong.h_top = 12000.0;
    auto geom_w = thermal::makeTwoDieStack(
        1e-2, 1e-2, thermal::StackedDieType::Dram, weak);
    auto geom_s = thermal::makeTwoDieStack(
        1e-2, 1e-2, thermal::StackedDieType::Dram, strong);
    EXPECT_GT(peakWith(geom_w, 50.0, 5.0), peakWith(geom_s, 50.0, 5.0));
}

// ---------------------------------------------------------------------
// engine properties
// ---------------------------------------------------------------------

namespace {

trace::TraceBuffer
mixedTrace(std::uint64_t seed, std::size_t n = 30000)
{
    trace::ThreadTracer t0(0), t1(1);
    Random rng(seed);
    trace::RecordId prev0 = trace::kNone;
    for (std::size_t i = 0; i < n / 2; ++i) {
        Addr a0 = rng.uniformInt(24u << 20) & ~Addr(7);
        prev0 = rng.chance(0.25) ? t0.load(a0, 0x1, prev0)
                                 : t0.load(a0, 0x1);
        Addr a1 = rng.uniformInt(24u << 20) & ~Addr(7);
        if (rng.chance(0.3))
            t1.store(a1, 0x2);
        else
            t1.load(a1, 0x2);
    }
    std::vector<trace::RecordBlocks> threads;
    threads.push_back(t0.take());
    threads.push_back(t1.take());
    return trace::TraceMerger().merge(std::move(threads));
}

Cycles
cyclesFor(const trace::TraceBuffer &buf, mem::EngineParams ep,
          mem::StackOption opt = mem::StackOption::Baseline4MB)
{
    mem::MemoryHierarchy hier(mem::makeHierarchyParams(opt));
    return mem::TraceEngine(ep).run(buf, hier).total_cycles;
}

} // anonymous namespace

class EngineSeedTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineSeedTest, WiderIssueAndWindowNeverSlowDown)
{
    trace::TraceBuffer buf = mixedTrace(GetParam());

    mem::EngineParams narrow;
    narrow.issue_width = 1;
    narrow.window = 32;
    mem::EngineParams wide;
    wide.issue_width = 2;
    wide.window = 256;

    Cycles c_narrow = cyclesFor(buf, narrow);
    Cycles c_wide = cyclesFor(buf, wide);
    EXPECT_LE(c_wide, c_narrow + c_narrow / 100);
}

TEST_P(EngineSeedTest, IgnoringDependenciesNeverSlowsDown)
{
    trace::TraceBuffer buf = mixedTrace(GetParam());
    mem::EngineParams honor;
    mem::EngineParams infinite = honor;
    infinite.honor_dependencies = false;
    EXPECT_LE(cyclesFor(buf, infinite), cyclesFor(buf, honor) + 1);
}

TEST_P(EngineSeedTest, CyclesBoundedByIssueFloor)
{
    trace::TraceBuffer buf = mixedTrace(GetParam());
    mem::EngineParams ep;
    ep.warmup_fraction = 0.0;
    // Two cpus at 1/cycle: at least n/2 cycles.
    EXPECT_GE(cyclesFor(buf, ep), Cycles(buf.size() / 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeedTest,
                         ::testing::Values(3, 17, 2024));

// ---------------------------------------------------------------------
// pipeline properties
// ---------------------------------------------------------------------

class PipelineLatencySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PipelineLatencySweep, DeeperStoreLifetimeNeverFaster)
{
    workloads::CpuWorkloadParams params;
    params.name = "sweep";
    params.frac_store = 0.18;
    params.store_burst = 8.0;
    auto uops = workloads::generateCpuTrace(params, 40000, 5);

    cpu::PipelineConfig shallow = cpu::PipelineConfig::planar();
    shallow.store_lifetime = GetParam();
    cpu::PipelineConfig deep = shallow;
    deep.store_lifetime = GetParam() + 20;

    Cycles c_shallow = cpu::PipelineModel(shallow).run(uops).cycles;
    Cycles c_deep = cpu::PipelineModel(deep).run(uops).cycles;
    EXPECT_LE(c_shallow, c_deep + 1);
}

INSTANTIATE_TEST_SUITE_P(Lifetimes, PipelineLatencySweep,
                         ::testing::Values(5u, 20u, 40u, 80u));

TEST(PipelineProperties, MorePredictableBranchesAreFaster)
{
    workloads::CpuWorkloadParams good;
    good.name = "good";
    good.frac_branch = 0.18;
    good.mispredict_rate = 0.01;
    workloads::CpuWorkloadParams bad = good;
    bad.mispredict_rate = 0.10;

    cpu::PipelineModel model(cpu::PipelineConfig::planar());
    double ipc_good =
        model.run(workloads::generateCpuTrace(good, 40000, 7)).ipc;
    double ipc_bad =
        model.run(workloads::generateCpuTrace(bad, 40000, 7)).ipc;
    EXPECT_GT(ipc_good, ipc_bad * 1.2);
}

TEST(PipelineProperties, StackedConfigDominatesEveryPartial)
{
    // The full 3D configuration is at least as fast as any single-
    // path reduction alone.
    workloads::CpuWorkloadParams params;
    params.name = "dom";
    params.frac_fp = 0.2;
    params.frac_fp_load = 0.05;
    params.fp_chain = 0.5;
    auto uops = workloads::generateCpuTrace(params, 50000, 9);

    Cycles full =
        cpu::PipelineModel(cpu::PipelineConfig::stacked3d())
            .run(uops)
            .cycles;
    for (unsigned p = 0; p < cpu::kNumPaths; ++p) {
        cpu::PipelineConfig cfg = cpu::PipelineConfig::planar();
        cfg.applyPathReduction(cpu::Path(p));
        Cycles partial = cpu::PipelineModel(cfg).run(uops).cycles;
        EXPECT_LE(full, partial + partial / 200)
            << cpu::pathName(cpu::Path(p));
    }
}

// ---------------------------------------------------------------------
// power properties
// ---------------------------------------------------------------------

TEST(PowerProperties, Table5MonotoneInVcc)
{
    power::VfScalingModel m;
    double prev = 0.0;
    for (double v = 0.7; v <= 1.3; v += 0.05) {
        double p = m.relativePower(v, m.relativeFreq(v));
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(PowerProperties, BreakdownBoundedByCategories)
{
    power::LogicPowerBreakdown b;
    double total_fraction =
        b.repeater_fraction + b.repeating_latch_fraction +
        b.clock_fraction + b.pipeline_latch_fraction;
    double saving = 1.0 - b.stackedRelativePower();
    EXPECT_LE(saving, total_fraction);
    EXPECT_GT(saving, 0.0);
}

// ---------------------------------------------------------------------
// workload/trace structural properties
// ---------------------------------------------------------------------

class KernelScaleTest
    : public ::testing::TestWithParam<std::tuple<const char *, double>>
{
};

TEST_P(KernelScaleTest, FootprintGrowsWithScale)
{
    auto [name, scale] = GetParam();
    workloads::WorkloadConfig small;
    small.scale = scale;
    workloads::WorkloadConfig big;
    big.scale = scale * 3.0;
    auto kernel = workloads::makeRmsKernel(name);
    EXPECT_LT(kernel->nominalFootprintBytes(small),
              kernel->nominalFootprintBytes(big));
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndScales, KernelScaleTest,
    ::testing::Combine(::testing::Values("conj", "gauss", "sMVM",
                                         "sUS", "svm"),
                       ::testing::Values(0.1, 0.3)));

TEST(TraceProperties, MergedTraceKeepsPerThreadOrder)
{
    // Within each cpu, merged records appear in their original
    // generation order (the merger must never reorder a thread).
    trace::ThreadTracer t0(0), t1(1);
    for (int i = 0; i < 200; ++i) {
        t0.load(0x1000 + Addr(i) * 8, 0x1);
        t1.load(0x9000 + Addr(i) * 8, 0x2);
    }
    std::vector<trace::RecordBlocks> threads;
    threads.push_back(t0.take());
    threads.push_back(t1.take());
    trace::TraceBuffer merged =
        trace::TraceMerger(7).merge(std::move(threads));

    Addr prev0 = 0, prev1 = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (merged[i].cpu == 0) {
            EXPECT_GT(merged[i].addr, prev0);
            prev0 = merged[i].addr;
        } else {
            EXPECT_GT(merged[i].addr, prev1);
            prev1 = merged[i].addr;
        }
    }
}
