/**
 * @file
 * Tests for the workload generators: the 12 RMS kernels (Table 1),
 * the CSR structure builder, and the synthetic CPU µop streams.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "workloads/cpu_workload.hh"
#include "workloads/registry.hh"
#include "workloads/sparse_util.hh"

using namespace stack3d;
using namespace stack3d::workloads;

// ---------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------

TEST(Registry, HasTwelveKernelsInFigure5Order)
{
    auto names = rmsKernelNames();
    ASSERT_EQ(names.size(), 12u);
    EXPECT_EQ(names.front(), "conj");
    EXPECT_EQ(names[2], "gauss");
    EXPECT_EQ(names.back(), "svm");
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_THROW(makeRmsKernel("notakernel"), std::runtime_error);
}

TEST(Registry, MakeAllProducesDistinctNames)
{
    auto all = makeAllRmsKernels();
    std::set<std::string> names;
    for (const auto &k : all)
        names.insert(k->name());
    EXPECT_EQ(names.size(), 12u);
}

// ---------------------------------------------------------------------
// per-kernel properties (parameterized over all 12)
// ---------------------------------------------------------------------

class KernelTest : public ::testing::TestWithParam<std::string>
{
  protected:
    WorkloadConfig
    smallConfig() const
    {
        WorkloadConfig cfg;
        cfg.records_per_thread = 20000;
        cfg.scale = 0.1;
        return cfg;
    }
};

TEST_P(KernelTest, GeneratesValidTrace)
{
    auto kernel = makeRmsKernel(GetParam());
    trace::TraceBuffer buf = kernel->generate(smallConfig());
    EXPECT_GE(buf.size(), 40000u * 9 / 10);
    EXPECT_TRUE(buf.validate());
}

TEST_P(KernelTest, BothCpusContribute)
{
    auto kernel = makeRmsKernel(GetParam());
    trace::TraceStats st =
        kernel->generate(smallConfig()).computeStats();
    EXPECT_GT(st.records_cpu0, 0u);
    EXPECT_GT(st.records_cpu1, 0u);
    // Threads split work roughly evenly.
    double ratio = double(st.records_cpu0) /
                   double(st.records_cpu0 + st.records_cpu1);
    EXPECT_NEAR(ratio, 0.5, 0.2);
}

TEST_P(KernelTest, DeterministicForSameSeed)
{
    auto kernel = makeRmsKernel(GetParam());
    WorkloadConfig cfg = smallConfig();
    cfg.records_per_thread = 5000;
    trace::TraceBuffer a = kernel->generate(cfg);
    trace::TraceBuffer b = kernel->generate(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << "record " << i;
}

TEST_P(KernelTest, FootprintMatchesTouchedLines)
{
    auto kernel = makeRmsKernel(GetParam());
    WorkloadConfig cfg = smallConfig();
    cfg.records_per_thread = 100000;   // enough to sweep at 0.1 scale
    trace::TraceBuffer buf = kernel->generate(cfg);
    trace::TraceStats st = buf.computeStats();
    // Touched bytes never exceed the declared footprint by more
    // than rounding (the declared value ignores padding).
    EXPECT_LE(st.footprint_bytes,
              kernel->nominalFootprintBytes(cfg) * 5 / 4 + 65536);
}

TEST_P(KernelTest, TraceHoldsEachRecordOnce)
{
    // Counted from container capacities, not sampled: a trace is its
    // columns (8 B addr, 8 B ip, 4 B dep, 1 B each cpu/op/size) and
    // the 4 B per-cpu order index, 27 B/record, plus one 8 B order
    // offset per cpu and one more.
    auto kernel = makeRmsKernel(GetParam());
    trace::TraceBuffer buf = kernel->generate(smallConfig());
    const trace::TraceColumns &cols = buf.columns();
    const std::size_t n = buf.size();
    EXPECT_LE(cols.ownedBytes(), 27 * n + 8 * (cols.numCpus() + 1));
    EXPECT_LE(cols.ownedBytes(), 31 * n);
    EXPECT_EQ(cols.decodeBatches(),
              (n + trace::TraceColumns::kDecodeBatch - 1) /
                  trace::TraceColumns::kDecodeBatch);
}

TEST_P(KernelTest, HasDescription)
{
    auto kernel = makeRmsKernel(GetParam());
    EXPECT_GT(std::string(kernel->description()).size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelTest,
    ::testing::Values("conj", "dSym", "gauss", "pcg", "sMVM", "sSym",
                      "sTrans", "sAVDF", "sAVIF", "sUS", "svd", "svm"));

// ---------------------------------------------------------------------
// capacity-class calibration (Figure 5's structure)
// ---------------------------------------------------------------------

TEST(KernelFootprints, StraddleTheCapacityPoints)
{
    WorkloadConfig cfg;   // scale 1.0
    auto mb = [&](const char *name) {
        return double(makeRmsKernel(name)->nominalFootprintBytes(cfg)) /
               (1 << 20);
    };
    // Fit inside the 4 MB baseline.
    for (const char *name : {"conj", "dSym", "sSym", "sAVDF", "sAVIF",
                             "svd"})
        EXPECT_LT(mb(name), 4.0) << name;
    // gauss fits from 12 MB.
    EXPECT_GT(mb("gauss"), 4.0);
    EXPECT_LT(mb("gauss"), 12.0);
    // These need the 32 MB option.
    for (const char *name : {"pcg", "sMVM", "sTrans", "svm"}) {
        EXPECT_GT(mb(name), 12.0) << name;
        EXPECT_LT(mb(name), 32.0) << name;
    }
    // sUS only fits in 64 MB (with tags/overheads, marginal at 32).
    EXPECT_GT(mb("sUS"), 28.0);
    EXPECT_LT(mb("sUS"), 64.0);
}

TEST(KernelDeps, SparseKernelsCarryIndexDependencies)
{
    WorkloadConfig cfg;
    cfg.records_per_thread = 30000;
    cfg.scale = 0.1;
    for (const char *name : {"sMVM", "sSym", "sTrans", "sAVDF"}) {
        auto st = makeRmsKernel(name)->generate(cfg).computeStats();
        EXPECT_GT(double(st.num_with_dep) / double(st.num_records),
                  0.3)
            << name << " should have gather dependencies";
    }
}

// ---------------------------------------------------------------------
// CSR builder
// ---------------------------------------------------------------------

class CsrTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CsrTest, StructureIsWellFormed)
{
    auto [rows, cols, nnz_per_row] = GetParam();
    Random rng(5);
    CsrPattern csr = makeRandomCsr(rows, cols, nnz_per_row, rng);

    EXPECT_EQ(csr.rows, std::uint64_t(rows));
    EXPECT_EQ(csr.nnz(), std::uint64_t(rows) * nnz_per_row);
    ASSERT_EQ(csr.row_ptr.size(), std::size_t(rows) + 1);
    EXPECT_EQ(csr.row_ptr[0], 0u);
    EXPECT_EQ(csr.row_ptr[rows], csr.nnz());

    for (int r = 0; r < rows; ++r) {
        std::uint64_t lo = csr.row_ptr[r];
        std::uint64_t hi = csr.row_ptr[r + 1];
        EXPECT_EQ(hi - lo, std::uint64_t(nnz_per_row));
        for (std::uint64_t e = lo; e < hi; ++e) {
            EXPECT_LT(csr.col_idx[e], std::uint64_t(cols));
            if (e > lo) {
                EXPECT_LT(csr.col_idx[e - 1], csr.col_idx[e])
                    << "columns must be sorted and distinct";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CsrTest,
    ::testing::Values(std::make_tuple(10, 10, 3),
                      std::make_tuple(100, 100, 8),
                      std::make_tuple(50, 200, 4),
                      std::make_tuple(1000, 1000, 6)));

TEST(Csr, DeterministicForSameSeed)
{
    Random a(9), b(9);
    CsrPattern ca = makeRandomCsr(64, 64, 4, a);
    CsrPattern cb = makeRandomCsr(64, 64, 4, b);
    EXPECT_EQ(ca.col_idx, cb.col_idx);
}

TEST(CsrDeathTest, RejectsBadShapes)
{
    Random rng(1);
    EXPECT_DEATH(makeRandomCsr(0, 10, 1, rng), "");
    EXPECT_DEATH(makeRandomCsr(10, 10, 11, rng), "");
}

// ---------------------------------------------------------------------
// CPU workloads
// ---------------------------------------------------------------------

TEST(CpuWorkload, ClassesCoverThePopulations)
{
    auto classes = cpuAppClasses(false);
    std::set<std::string> names;
    for (const auto &cls : classes)
        names.insert(cls.name);
    for (const char *expect :
         {"specint", "specfp", "kernels", "multimedia", "internet",
          "productivity", "server", "workstation"})
        EXPECT_TRUE(names.count(expect)) << expect;
}

TEST(CpuWorkload, SeedSaltsArePinned)
{
    // Fixed per-class constants, so every standard library generates
    // the same suite (and the same Table 4).
    const std::pair<const char *, std::uint64_t> expected[] = {
        {"specint", 0x0cb3aa50ef11aff4ULL},
        {"specfp", 0x73f29a8803ef5035ULL},
        {"kernels", 0x11432fe59d689af3ULL},
        {"multimedia", 0xb6dfc8be77be66d0ULL},
        {"internet", 0x7eb898a648e83046ULL},
        {"productivity", 0x965847c9e739d9bbULL},
        {"server", 0x2042d79a31d5ef4aULL},
        {"workstation", 0x21517500eb04ffeeULL},
    };
    for (bool full : {false, true}) {
        auto classes = cpuAppClasses(full);
        ASSERT_EQ(classes.size(), std::size(expected));
        for (std::size_t i = 0; i < classes.size(); ++i) {
            EXPECT_EQ(classes[i].name, expected[i].first);
            EXPECT_EQ(classes[i].seed_salt, expected[i].second)
                << classes[i].name;
        }
    }
}

TEST(CpuWorkload, FullSuiteHas650PlusTraces)
{
    unsigned total = 0;
    for (const auto &cls : cpuAppClasses(true))
        total += cls.variants;
    EXPECT_GE(total, 650u);
}

TEST(CpuWorkload, TraceMixTracksParameters)
{
    CpuWorkloadParams p;
    p.name = "test";
    p.frac_load = 0.3;
    p.frac_store = 0.1;
    p.frac_branch = 0.1;
    p.store_burst = 4.0;
    auto uops = generateCpuTrace(p, 100000, 3);

    double loads = 0, stores = 0, branches = 0;
    for (const auto &u : uops) {
        loads += u.cls == UopClass::Load;
        stores += u.cls == UopClass::Store;
        branches += u.cls == UopClass::Branch;
    }
    double n = double(uops.size());
    EXPECT_NEAR(loads / n, 0.3, 0.03);
    EXPECT_NEAR(stores / n, 0.1, 0.04);   // bursts add variance
    EXPECT_NEAR(branches / n, 0.1, 0.02);
}

TEST(CpuWorkload, DependencyDistancesBounded)
{
    CpuWorkloadParams p;
    p.name = "test";
    auto uops = generateCpuTrace(p, 20000, 11);
    for (std::size_t i = 0; i < uops.size(); ++i) {
        for (int s = 0; s < 2; ++s)
            EXPECT_LE(uops[i].src_dist[s], i)
                << "dep reaches before the trace start";
    }
}

TEST(CpuWorkload, MispredictsOnlyOnBranches)
{
    CpuWorkloadParams p;
    p.name = "test";
    p.mispredict_rate = 0.5;
    auto uops = generateCpuTrace(p, 20000, 13);
    for (const auto &u : uops) {
        if (u.mispredict) {
            EXPECT_EQ(u.cls, UopClass::Branch);
        }
    }
}

TEST(CpuWorkload, VariantJitterIsDeterministic)
{
    auto classes = cpuAppClasses(false);
    CpuWorkloadParams a = makeVariantParams(classes[0], 3);
    CpuWorkloadParams b = makeVariantParams(classes[0], 3);
    EXPECT_DOUBLE_EQ(a.frac_load, b.frac_load);
    EXPECT_DOUBLE_EQ(a.mispredict_rate, b.mispredict_rate);

    CpuWorkloadParams c = makeVariantParams(classes[0], 4);
    EXPECT_NE(a.frac_load, c.frac_load);
}

TEST(CpuWorkload, OverfullMixIsFatal)
{
    CpuWorkloadParams p;
    p.name = "bad";
    p.frac_load = 0.9;
    p.frac_fp = 0.9;
    EXPECT_THROW(generateCpuTrace(p, 100, 1), std::runtime_error);
}

TEST(CpuWorkload, FpChainsLinkToFpProducers)
{
    CpuWorkloadParams p;
    p.name = "fp";
    p.frac_fp = 0.5;
    p.fp_chain = 1.0;
    p.frac_load = 0.0;
    p.frac_store = 0.0;
    p.frac_branch = 0.0;
    auto uops = generateCpuTrace(p, 10000, 17);
    unsigned chained = 0;
    for (std::size_t i = 1; i < uops.size(); ++i) {
        if (uops[i].cls != UopClass::FpOp || uops[i].src_dist[0] == 0)
            continue;
        std::size_t producer = i - uops[i].src_dist[0];
        if (uops[producer].cls == UopClass::FpOp)
            ++chained;
    }
    EXPECT_GT(chained, 1000u);
}
