/**
 * @file
 * Tests for the Pentium 4-class pipeline model: configuration,
 * dataflow/structural/control timing behaviours, per-path
 * monotonicity, lockstep lanes against the single-timing reference
 * loop, config lowering, and the Table 4 suite computation pinned bit
 * for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "cpu/config.hh"
#include "cpu/pipeline.hh"
#include "cpu/suite.hh"

using namespace stack3d;
using namespace stack3d::cpu;
using workloads::CpuUop;
using workloads::MemLevel;
using workloads::UopClass;

// ---------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------

TEST(Config, MispredictPenaltyExceeds30)
{
    // "a branch miss-prediction penalty of more than 30 clock cycles"
    EXPECT_GT(PipelineConfig::planar().mispredictPenalty(), 30u);
}

TEST(Config, Stacked3dReducesEveryPath)
{
    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig s3d = PipelineConfig::stacked3d();
    EXPECT_LT(s3d.frontend_stages, planar.frontend_stages);
    EXPECT_LT(s3d.trace_cache_stages, planar.trace_cache_stages);
    EXPECT_LT(s3d.rename_stages, planar.rename_stages);
    EXPECT_LT(s3d.fp_extra_latency, planar.fp_extra_latency);
    EXPECT_LT(s3d.int_rf_stages, planar.int_rf_stages);
    EXPECT_LT(s3d.dcache_stages, planar.dcache_stages);
    EXPECT_LT(s3d.instr_loop_stages, planar.instr_loop_stages);
    EXPECT_LT(s3d.retire_dealloc_stages,
              planar.retire_dealloc_stages);
    EXPECT_LT(s3d.fp_load_extra, planar.fp_load_extra);
    EXPECT_LT(s3d.store_lifetime, planar.store_lifetime);
}

TEST(Config, Table4StagePercentages)
{
    PipelineConfig planar = PipelineConfig::planar();
    // Front-end 12.5% of 8 = 1 stage; trace cache 20% of 5 = 1;
    // rename 25% of 4 = 1; D$ 25% of 4 = 1; loop 17% of 6 = 1;
    // dealloc 20% of 5 = 1; store lifetime 30%.
    PipelineConfig c = planar;
    c.applyPathReduction(Path::FrontEnd);
    EXPECT_EQ(planar.frontend_stages - c.frontend_stages, 1u);
    c = planar;
    c.applyPathReduction(Path::StoreLifetime);
    EXPECT_NEAR(double(planar.store_lifetime - c.store_lifetime) /
                    planar.store_lifetime,
                0.30, 0.08);
}

TEST(Config, PathNamesMatchTable4Rows)
{
    EXPECT_STREQ(pathName(Path::FpLatency), "FP inst. latency");
    EXPECT_STREQ(pathName(Path::StoreLifetime), "Store lifetime");
}

// ---------------------------------------------------------------------
// pipeline timing behaviours
// ---------------------------------------------------------------------

namespace {

CpuUop
uop(UopClass cls, std::uint16_t d1 = 0, std::uint16_t d2 = 0)
{
    CpuUop u;
    u.cls = cls;
    u.src_dist[0] = d1;
    u.src_dist[1] = d2;
    return u;
}

std::vector<CpuUop>
repeat(const CpuUop &u, std::size_t n)
{
    return std::vector<CpuUop>(n, u);
}

} // anonymous namespace

TEST(Pipeline, EmptyTrace)
{
    PipelineModel model(PipelineConfig::planar());
    CpuResult res = model.run({});
    EXPECT_EQ(res.num_uops, 0u);
    EXPECT_EQ(res.cycles, 0u);
}

TEST(Pipeline, IndependentIntIpcNearFetchWidth)
{
    PipelineModel model(PipelineConfig::planar());
    CpuResult res = model.run(repeat(uop(UopClass::IntAlu), 30000));
    EXPECT_NEAR(res.ipc, 3.0, 0.1);
}

TEST(Pipeline, SerialChainBoundByLatency)
{
    // Every uop depends on the previous one: IPC -> 1/int_latency.
    PipelineModel model(PipelineConfig::planar());
    CpuResult res =
        model.run(repeat(uop(UopClass::IntAlu, 1), 20000));
    EXPECT_NEAR(res.ipc, 1.0, 0.05);
}

TEST(Pipeline, FpChainSeesExtraLatency)
{
    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig fast = planar;
    fast.applyPathReduction(Path::FpLatency);

    auto chain = repeat(uop(UopClass::FpOp, 1), 20000);
    double ipc_planar = PipelineModel(planar).run(chain).ipc;
    double ipc_fast = PipelineModel(fast).run(chain).ipc;
    // Serial FP chain: latency (4+2) vs (4+0).
    EXPECT_NEAR(ipc_planar, 1.0 / 6.0, 0.01);
    EXPECT_NEAR(ipc_fast, 1.0 / 4.0, 0.02);
}

TEST(Pipeline, LoadToUseVisibleInChains)
{
    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig fast = planar;
    fast.applyPathReduction(Path::DcacheRead);

    // load -> dependent alu -> feeding the next load's address.
    std::vector<CpuUop> uops;
    for (int i = 0; i < 10000; ++i) {
        uops.push_back(uop(UopClass::Load, i ? 1 : 0));
        uops.push_back(uop(UopClass::IntAlu, 1));
    }
    double slow_ipc = PipelineModel(planar).run(uops).ipc;
    double fast_ipc = PipelineModel(fast).run(uops).ipc;
    EXPECT_GT(fast_ipc, slow_ipc * 1.10);
}

TEST(Pipeline, MispredictsCostTheDeepPipeline)
{
    PipelineConfig cfg = PipelineConfig::planar();
    std::vector<CpuUop> clean = repeat(uop(UopClass::IntAlu), 10000);

    std::vector<CpuUop> bad = clean;
    for (std::size_t i = 99; i < bad.size(); i += 100) {
        bad[i].cls = UopClass::Branch;
        bad[i].mispredict = true;
    }
    PipelineModel model(cfg);
    Cycles c_clean = model.run(clean).cycles;
    Cycles c_bad = model.run(bad).cycles;
    // 100 mispredicts x ~(>30)-cycle penalty.
    EXPECT_GT(c_bad, c_clean + 100 * 25);
    EXPECT_EQ(model.run(bad).mispredicts, 100u);
}

TEST(Pipeline, MemoryLoadsStallChains)
{
    PipelineConfig cfg = PipelineConfig::planar();
    CpuUop mem_load = uop(UopClass::Load, 1);
    mem_load.mem_level = MemLevel::Memory;
    auto chain = repeat(mem_load, 2000);
    CpuResult res = PipelineModel(cfg).run(chain);
    // Each chained memory load costs ~dcache+memory cycles.
    EXPECT_LT(res.ipc, 0.01);
}

TEST(Pipeline, StoreBurstsStallOnStoreQueue)
{
    PipelineConfig cfg = PipelineConfig::planar();
    // Alternate big store bursts with long-latency work so the SQ
    // drains slowly.
    std::vector<CpuUop> uops;
    for (int block = 0; block < 200; ++block) {
        for (int s = 0; s < 30; ++s)
            uops.push_back(uop(UopClass::Store, 1));
        for (int a = 0; a < 30; ++a)
            uops.push_back(uop(UopClass::IntAlu, 1));
    }
    CpuResult res = PipelineModel(cfg).run(uops);
    EXPECT_GT(res.sq_stall_cycles, 0u);

    PipelineConfig fast = cfg;
    fast.applyPathReduction(Path::StoreLifetime);
    CpuResult res_fast = PipelineModel(fast).run(uops);
    EXPECT_LT(res_fast.cycles, res.cycles);
}

class PathMonotonicityTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PathMonotonicityTest, ReducingAPathNeverHurts)
{
    workloads::CpuWorkloadParams params;
    params.name = "mono";
    params.frac_fp = 0.15;
    params.frac_fp_load = 0.05;
    params.fp_chain = 0.4;
    auto uops = workloads::generateCpuTrace(params, 60000, 5);

    PipelineConfig planar = PipelineConfig::planar();
    PipelineConfig cfg = planar;
    cfg.applyPathReduction(Path(GetParam()));

    Cycles before = PipelineModel(planar).run(uops).cycles;
    Cycles after = PipelineModel(cfg).run(uops).cycles;
    EXPECT_LE(after, before + before / 200)
        << "path " << pathName(Path(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllPaths, PathMonotonicityTest,
                         ::testing::Range(0u, kNumPaths));

TEST(Pipeline, Deterministic)
{
    workloads::CpuWorkloadParams params;
    params.name = "det";
    auto uops = workloads::generateCpuTrace(params, 30000, 9);
    PipelineModel model(PipelineConfig::planar());
    EXPECT_EQ(model.run(uops).cycles, model.run(uops).cycles);
}

// ---------------------------------------------------------------------
// lockstep lanes against the single-timing reference loop
// ---------------------------------------------------------------------

namespace stack3d {
namespace cpu {

void
PrintTo(const CpuResult &r, std::ostream *os)
{
    *os << "{uops " << r.num_uops << ", cycles " << r.cycles << ", ipc "
        << r.ipc << ", mispredicts " << r.mispredicts << ", trace_breaks "
        << r.trace_breaks << ", sq_stall " << r.sq_stall_cycles
        << ", window_stall " << r.window_stall_cycles << "}";
}

} // namespace cpu
} // namespace stack3d

namespace {

bool
referenceHashChance(std::uint64_t i, double p)
{
    std::uint64_t h = i * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return double(h & 0xffffff) / double(0x1000000) < p;
}

/**
 * The oracle: the one-timing loop the lockstep kernel replaced, kept
 * verbatim apart from taking the timing as a parameter.
 */
CpuResult
referenceRun(const PipelineTiming &t, const std::vector<CpuUop> &uops)
{
    CpuResult result;
    result.num_uops = uops.size();
    if (uops.empty())
        return result;

    const std::size_t n = uops.size();
    std::vector<Cycles> done(n + 1, 0);
    std::vector<Cycles> retire(n, 0);
    std::vector<Cycles> sq(t.store_queue_size, 0);
    std::size_t sq_head = 0;

    std::array<std::array<Cycles, kMaxPoolUnits>, kNumUnitPools>
        next_free;
    for (unsigned p = 0; p < kNumUnitPools; ++p) {
        for (unsigned k = 0; k < kMaxPoolUnits; ++k) {
            next_free[p][k] = k < t.pool_units[p]
                                  ? 0
                                  : std::numeric_limits<Cycles>::max();
        }
    }

    Cycles fetch_cycle = 0;
    unsigned fetch_in_group = 0;
    Cycles prev_dispatch = 0;
    Cycles prev_retire = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const CpuUop &uop = uops[i];
        const unsigned cls = unsigned(uop.cls);

        if (fetch_in_group >= t.fetch_width) {
            fetch_in_group = 0;
            ++fetch_cycle;
        }
        const Cycles fetch_time = fetch_cycle;
        ++fetch_in_group;

        Cycles dispatch = std::max(fetch_time + t.front_depth,
                                   prev_dispatch);
        Cycles window = dispatch;
        if (i >= t.rob_size)
            window = std::max(window, retire[i - t.rob_size]);
        if (i >= t.alloc_pool_size) {
            window = std::max(window, retire[i - t.alloc_pool_size] +
                                          t.pool_release);
        }
        result.window_stall_cycles += window - dispatch;
        dispatch = window;

        const bool is_store = uop.cls == UopClass::Store;
        if (is_store) {
            Cycles sq_ready = std::max(dispatch, sq[sq_head]);
            result.sq_stall_cycles += sq_ready - dispatch;
            dispatch = sq_ready;
        }
        prev_dispatch = dispatch;

        Cycles ready = dispatch;
        for (unsigned s = 0; s < 2; ++s) {
            std::size_t dist = uop.src_dist[s];
            std::size_t slot = dist - 1 < i ? i + 1 - dist : 0;
            ready = std::max(ready, done[slot]);
        }

        auto &units = next_free[t.pool[cls]];
        unsigned unit = 0;
        for (unsigned k = 1; k < kMaxPoolUnits; ++k)
            unit = units[k] < units[unit] ? k : unit;
        const Cycles start = std::max(ready, units[unit]);
        units[unit] = start + 1;
        const Cycles finish =
            start + t.latency[cls][unsigned(uop.mem_level)];
        done[i + 1] = finish;

        Cycles ret = std::max(finish, prev_retire);
        if (i >= t.retire_width)
            ret = std::max(ret, retire[i - t.retire_width] + 1);
        retire[i] = ret;
        prev_retire = ret;

        if (is_store) {
            sq[sq_head] = ret + t.sq_release;
            sq_head = sq_head + 1 == sq.size() ? 0 : sq_head + 1;
        }

        if (uop.cls == UopClass::Branch) {
            if (uop.mispredict) {
                ++result.mispredicts;
                Cycles resume = finish + t.redirect_cycles;
                if (resume > fetch_cycle) {
                    fetch_cycle = resume;
                    fetch_in_group = 0;
                }
            } else if (referenceHashChance(i, t.trace_break_rate)) {
                ++result.trace_breaks;
                fetch_cycle += t.instr_loop;
                fetch_in_group = 0;
            }
        }
    }

    result.cycles = prev_retire;
    result.ipc = double(n) / double(result.cycles);
    return result;
}

/** Percentages of a random µop mix. */
struct UopMix
{
    unsigned store_pct = 12;
    unsigned branch_pct = 12;
    /** Of the branches. */
    unsigned mispredict_pct = 20;
    /** Source distances are drawn from [0, max_dist]. */
    unsigned max_dist = 200;
};

std::vector<CpuUop>
randomTrace(std::size_t n, std::uint64_t seed, const UopMix &mix)
{
    static const UopClass kOther[] = {UopClass::IntAlu, UopClass::FpOp,
                                      UopClass::SimdOp, UopClass::Load,
                                      UopClass::FpLoad};
    Random rng(seed);
    std::vector<CpuUop> uops(n);
    for (CpuUop &u : uops) {
        const std::uint64_t r = rng.uniformInt(100);
        if (r < mix.store_pct) {
            u.cls = UopClass::Store;
        } else if (r < mix.store_pct + mix.branch_pct) {
            u.cls = UopClass::Branch;
            u.mispredict = rng.uniformInt(100) < mix.mispredict_pct;
        } else {
            u.cls = kOther[rng.uniformInt(5)];
        }
        u.mem_level = MemLevel(rng.uniformInt(kNumMemLevels));
        for (std::uint16_t &d : u.src_dist)
            d = std::uint16_t(rng.uniformInt(mix.max_dist + 1));
    }
    return uops;
}

/** Check every lane of one lockstep pass against the oracle. */
void
expectLanesMatch(const std::vector<PipelineTiming> &lanes,
                 const std::vector<CpuUop> &uops)
{
    const std::vector<CpuResult> got = simulateLanes(lanes, uops);
    ASSERT_EQ(got.size(), lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k)
        EXPECT_EQ(got[k], referenceRun(lanes[k], uops)) << "lane " << k;
}

} // anonymous namespace

TEST(Pipeline, LanesMatchReferenceLoop)
{
    const std::vector<PipelineTiming> nine = table4Timings();
    ASSERT_EQ(nine.size(), 9u);
    std::vector<PipelineTiming> permuted;
    for (std::size_t k : {4u, 8u, 0u, 6u, 2u, 7u, 1u, 5u, 3u})
        permuted.push_back(nine[k]);

    auto check = [&](const std::vector<CpuUop> &uops) {
        for (const PipelineTiming &t : nine)
            expectLanesMatch({t}, uops);
        expectLanesMatch(nine, uops);
        expectLanesMatch(permuted, uops);
        EXPECT_EQ(PipelineModel(PipelineConfig::planar()).run(uops),
                  referenceRun(nine.front(), uops));
    };

    // Lengths around the structure sizes: the rename pool (96) and
    // the ROB (126) start gating dispatch there.
    for (std::size_t n : {0u, 1u, 2u, 3u, 95u, 96u, 97u, 125u, 126u,
                          127u}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        check(randomTrace(n, 100 + n, UopMix{}));
    }

    // Random mixes, and traces of the Table 4 suite's classes.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("random seed " + std::to_string(seed));
        check(randomTrace(4000, seed, UopMix{}));
    }
    for (const auto &cls : workloads::cpuAppClasses(false)) {
        SCOPED_TRACE(cls.name);
        check(workloads::generateCpuTrace(
            workloads::makeVariantParams(cls, 0), 3000, cls.seed_salt));
    }

    {
        // Store bursts longer than the store queue, behind memory
        // loads that hold retirement back.
        SCOPED_TRACE("store bursts");
        std::vector<CpuUop> uops;
        for (int block = 0; block < 40; ++block) {
            CpuUop load = uop(UopClass::Load, 1);
            load.mem_level = MemLevel::Memory;
            uops.push_back(load);
            for (int s = 0; s < 24; ++s)
                uops.push_back(uop(UopClass::Store, 1));
        }
        EXPECT_GT(referenceRun(nine.front(), uops).sq_stall_cycles, 0u);
        check(uops);
    }
    {
        SCOPED_TRACE("mispredict-heavy");
        UopMix mix;
        mix.branch_pct = 45;
        mix.mispredict_pct = 70;
        const auto uops = randomTrace(3000, 17, mix);
        EXPECT_GT(referenceRun(nine.front(), uops).mispredicts, 500u);
        check(uops);
    }
    {
        // Every producer distance points before the first µop.
        SCOPED_TRACE("src_dist past the trace start");
        UopMix mix;
        mix.max_dist = 65535;
        check(randomTrace(2000, 23, mix));
        check(repeat(uop(UopClass::FpOp, 65535, 3000), 2000));
    }
}

TEST(PipelineDeathTest, LanesOfDifferentShapes)
{
    const std::vector<CpuUop> uops = repeat(uop(UopClass::IntAlu), 10);
    const std::vector<PipelineTiming> nine = table4Timings();
    std::vector<std::vector<PipelineTiming>> bad(4, nine);
    bad[0].back().rob_size += 1;
    bad[1].back().store_queue_size += 1;
    bad[2].back().pool_units[1] += 1;
    bad[3].back().trace_break_rate += 0.125;
    for (const auto &lanes : bad)
        EXPECT_DEATH(simulateLanes(lanes, uops), "share a shape");
}

// ---------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------

TEST(Suite, RunsAllClasses)
{
    SuiteOptions opt;
    opt.uops_per_trace = 5000;
    Table4Result t4 = computeTable4(opt);
    EXPECT_GE(t4.planar.num_traces, 8u);
    EXPECT_EQ(t4.passes, t4.planar.num_traces);

    const SuiteResult &res = t4.planar;
    EXPECT_GT(res.geomean_ipc, 0.1);
    EXPECT_LT(res.geomean_ipc, 3.0);
    EXPECT_EQ(res.class_ipc.size(), 8u);
}

TEST(Suite, Table4ShapeMatchesPaper)
{
    SuiteOptions opt;
    opt.uops_per_trace = 20000;
    Table4Result t4 = computeTable4(opt);
    ASSERT_EQ(t4.rows.size(), kNumPaths);

    // The stacked machine beats planar, and the total gain lands near
    // the paper's ~15%.
    EXPECT_GT(t4.stacked.geomean_ipc, t4.planar.geomean_ipc);
    EXPECT_GT(t4.total_perf_gain_pct, 9.0);
    EXPECT_LT(t4.total_perf_gain_pct, 20.0);

    auto gain = [&](Path p) {
        for (const auto &row : t4.rows)
            if (row.path == p)
                return row.perf_gain_pct;
        return -1.0;
    };
    // FP latency is the single largest contributor; store lifetime
    // and FP load are the next tier (the paper's ordering).
    EXPECT_GT(gain(Path::FpLatency), gain(Path::FrontEnd));
    EXPECT_GT(gain(Path::FpLatency), gain(Path::InstrLoop));
    EXPECT_GT(gain(Path::StoreLifetime), gain(Path::RenameAlloc));
    EXPECT_GT(gain(Path::FpLoad), gain(Path::FrontEnd));
    // Every path helps at least a little.
    for (const auto &row : t4.rows)
        EXPECT_GT(row.perf_gain_pct, 0.0)
            << pathName(row.path);
}

// ---------------------------------------------------------------------
// lowering and deduplication
// ---------------------------------------------------------------------

TEST(PipelineTiming, DedupIsExact)
{
    const PipelineConfig planar = PipelineConfig::planar();
    auto reduced = [&](Path p) {
        PipelineConfig cfg = planar;
        cfg.applyPathReduction(p);
        return cfg;
    };

    // The four front-end paths each remove one stage of the same
    // in-order front depth, so they lower to one timing.
    const PipelineTiming front =
        PipelineTiming::lower(reduced(Path::FrontEnd));
    for (Path p : {Path::TraceCache, Path::RenameAlloc, Path::IntRfRead})
        EXPECT_TRUE(PipelineTiming::lower(reduced(p)) == front)
            << pathName(p);

    // Table 4's twelve configurations lower to nine distinct timings.
    std::vector<PipelineConfig> configs{planar};
    for (unsigned p = 0; p < kNumPaths; ++p)
        configs.push_back(reduced(Path(p)));
    configs.push_back(PipelineConfig::stacked3d());
    std::vector<PipelineTiming> distinct;
    for (const PipelineConfig &cfg : configs) {
        PipelineTiming t = PipelineTiming::lower(cfg);
        if (std::find(distinct.begin(), distinct.end(), t) ==
            distinct.end())
            distinct.push_back(t);
    }
    EXPECT_EQ(distinct.size(), 9u);

    // Configurations with equal timings simulate identically.
    workloads::CpuWorkloadParams params;
    params.name = "dedup";
    params.frac_fp = 0.15;
    params.frac_fp_load = 0.05;
    params.fp_chain = 0.4;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        auto uops = workloads::generateCpuTrace(params, 20000, seed);
        for (std::size_t a = 0; a < configs.size(); ++a) {
            for (std::size_t b = a + 1; b < configs.size(); ++b) {
                if (!(PipelineTiming::lower(configs[a]) ==
                      PipelineTiming::lower(configs[b])))
                    continue;
                EXPECT_TRUE(PipelineModel(configs[a]).run(uops) ==
                            PipelineModel(configs[b]).run(uops))
                    << "configs " << a << " and " << b;
            }
        }
    }

    // computeTable4 simulates each distinct timing once.
    SuiteOptions opt;
    opt.uops_per_trace = 1000;
    Table4Result t4 = computeTable4(opt);
    EXPECT_EQ(t4.timings, 9u);
    EXPECT_EQ(t4.simulated_uops, 9u * t4.planar.uops);
}

// ---------------------------------------------------------------------
// Table 4 pinned exactly
// ---------------------------------------------------------------------

namespace {

struct PinnedSuite
{
    double geomean_ipc;
    std::uint64_t uops;
    std::uint64_t cycles;
    std::uint64_t mispredicts;
    std::uint64_t trace_breaks;
    std::uint64_t sq_stall_cycles;
    std::uint64_t window_stall_cycles;
};

struct PinnedTable4
{
    const char *name;
    bool full_suite;
    std::uint64_t uops_per_trace;
    std::uint64_t seed;
    double row_gain_pct[kNumPaths];
    double total_gain_pct;
    PinnedSuite planar;
    PinnedSuite stacked;
};

// Captured from the model that simulated all twelve configurations
// (planar re-run for every row); rows in Path order.
const PinnedTable4 kPinnedTable4[] = {
    {"DefaultSeed7", false, 10000, 7,
     {0x1.59d3092efaep-2, 0x1.59d3092efaep-2,
      0x1.59d3092efaep-2, 0x1.9173876c2fa68p+1,
      0x1.59d3092efaep-2, 0x1.f3c4f6467ef8p+0,
      0x1.c0615ec6c7c98p-1, 0x1.1f68d8dbb6548p-1,
      0x1.bb429bd4c2528p+0, 0x1.3d036fc204272p+1},
     0x1.bb1d1b5923208p+3,
     {0x1.d543983d86401p-2, 820000, 1896757, 6100, 40859, 532070, 614411},
     {0x1.0b1f4a545f225p-1, 820000, 1663038, 6100, 40859, 439980, 535789}},
    {"DefaultSeed12345", false, 10000, 12345,
     {0x1.53dab21e9d26p-2, 0x1.53dab21e9d26p-2,
      0x1.53dab21e9d26p-2, 0x1.968d541f5dffap+1,
      0x1.53dab21e9d26p-2, 0x1.ffe8f0d9bece4p+0,
      0x1.b5f4f0aba4ab8p-1, 0x1.2194d021d635p-1,
      0x1.b66f1c98e6574p+0, 0x1.4cc8ef112d50cp+1},
     0x1.c02ed12ded226p+3,
     {0x1.d50af2e564cfp-2, 820000, 1900687, 5987, 40590, 548129, 615206},
     {0x1.0b5e26e657fa6p-1, 820000, 1665203, 5987, 40590, 452751, 537039}},
    {"FullSuite", true, 1000, 7,
     {0x1.883dbd689848p-2, 0x1.883dbd689848p-2,
      0x1.883dbd689848p-2, 0x1.9635eca81d594p+1,
      0x1.883dbd689848p-2, 0x1.f0e3d0505383p+0,
      0x1.0bca4dc951638p+0, 0x1.179bff612a4f8p-1,
      0x1.ac1f0d6b74988p+0, 0x1.243ce256797dap+1},
     0x1.bff567de861cep+3,
     {0x1.d39a99d3fa388p-2, 656000, 1549463, 4891, 34214, 386461, 475440},
     {0x1.0a87fd0b96d16p-1, 656000, 1362125, 4891, 34214, 319557, 416198}},
};

void
PrintTo(const PinnedTable4 &pinned, std::ostream *os)
{
    *os << pinned.name;
}

void
expectSuite(const SuiteResult &got, const PinnedSuite &want)
{
    EXPECT_EQ(got.geomean_ipc, want.geomean_ipc);
    EXPECT_EQ(got.uops, want.uops);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.mispredicts, want.mispredicts);
    EXPECT_EQ(got.trace_breaks, want.trace_breaks);
    EXPECT_EQ(got.sq_stall_cycles, want.sq_stall_cycles);
    EXPECT_EQ(got.window_stall_cycles, want.window_stall_cycles);
}

} // anonymous namespace

class Table4PinnedTest : public ::testing::TestWithParam<PinnedTable4>
{
};

TEST_P(Table4PinnedTest, BitIdentical)
{
    const PinnedTable4 &want = GetParam();
    SuiteOptions opt;
    opt.full_suite = want.full_suite;
    opt.uops_per_trace = want.uops_per_trace;
    opt.seed = want.seed;
    Table4Result t4 = computeTable4(opt);

    ASSERT_EQ(t4.rows.size(), kNumPaths);
    for (unsigned p = 0; p < kNumPaths; ++p)
        EXPECT_EQ(t4.rows[p].perf_gain_pct, want.row_gain_pct[p])
            << pathName(t4.rows[p].path);
    EXPECT_EQ(t4.total_perf_gain_pct, want.total_gain_pct);
    {
        SCOPED_TRACE("planar");
        expectSuite(t4.planar, want.planar);
    }
    {
        SCOPED_TRACE("stacked");
        expectSuite(t4.stacked, want.stacked);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suites, Table4PinnedTest, ::testing::ValuesIn(kPinnedTable4),
    [](const ::testing::TestParamInfo<PinnedTable4> &info) {
        return std::string(info.param.name);
    });
