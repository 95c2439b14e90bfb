/**
 * @file
 * The parallel-study determinism guarantee: a study run on N threads
 * must be bit-identical to the same study on 1 thread with the same
 * seed. Cells derive their RNG streams from (seed, cell key), never
 * from shared state, and results merge in canonical cell order — so
 * every floating-point value must match exactly, not approximately.
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/logic_study.hh"
#include "core/memory_study.hh"
#include "core/run_options.hh"
#include "core/thermal_study.hh"
#include "exec/pool.hh"
#include "pinned_solves.hh"

using namespace stack3d;
using namespace stack3d::core;

namespace {

RunOptions
tinyOptions(unsigned threads)
{
    RunOptions opts;
    opts.threads = threads;
    opts.seed = 11;
    opts.depth = 0.02;
    opts.scale = 0.3;
    opts.verbosity = Verbosity::Silent;
    return opts;
}

void
expectRowsIdentical(const MemoryStudyResult &a,
                    const MemoryStudyResult &b)
{
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        const MemoryStudyRow &ra = a.rows[i];
        const MemoryStudyRow &rb = b.rows[i];
        EXPECT_EQ(ra.benchmark, rb.benchmark);
        EXPECT_EQ(ra.records, rb.records);
        EXPECT_EQ(ra.footprint_mb, rb.footprint_mb);
        for (int o = 0; o < 4; ++o) {
            // Bitwise equality, not EXPECT_NEAR: the guarantee is
            // exactness.
            EXPECT_EQ(ra.cpma[o], rb.cpma[o]) << ra.benchmark;
            EXPECT_EQ(ra.bw_gbps[o], rb.bw_gbps[o]) << ra.benchmark;
            EXPECT_EQ(ra.bus_power_w[o], rb.bus_power_w[o]);
            EXPECT_EQ(ra.llc_miss[o], rb.llc_miss[o]);
        }
    }
    EXPECT_EQ(a.summary.avg_cpma_reduction_32m,
              b.summary.avg_cpma_reduction_32m);
    EXPECT_EQ(a.summary.max_cpma_reduction_32m,
              b.summary.max_cpma_reduction_32m);
    EXPECT_EQ(a.summary.avg_bw_reduction_factor_32m,
              b.summary.avg_bw_reduction_factor_32m);
    EXPECT_EQ(a.summary.avg_bus_power_reduction_32m,
              b.summary.avg_bus_power_reduction_32m);
}

} // anonymous namespace

TEST(ParallelDeterminism, MemoryStudyMatchesSerial)
{
    MemoryStudySpec spec;
    spec.benchmarks = {"gauss", "svd", "conj"};

    auto serial = runMemoryStudy(tinyOptions(1), spec);
    auto parallel4 = runMemoryStudy(tinyOptions(4), spec);
    auto parallel_auto = runMemoryStudy(tinyOptions(0), spec);

    expectRowsIdentical(serial.payload, parallel4.payload);
    expectRowsIdentical(serial.payload, parallel_auto.payload);

    EXPECT_EQ(serial.meta.threads_used, 1u);
    EXPECT_EQ(parallel4.meta.threads_used, 4u);
    // 3 benchmarks x (1 trace + 4 option) cells.
    EXPECT_EQ(serial.meta.cells.size(), 15u);
    for (const CellTiming &cell : serial.meta.cells)
        EXPECT_GT(cell.seconds, 0.0) << cell.label;
}

TEST(ParallelDeterminism, SharedMemoUnderConcurrentStudies)
{
    // Two 4-thread studies that share svd run at once on one memo:
    // both may miss svd and put it, and each must still equal its
    // serial memo-less run bit for bit.
    const MemoryStudySpec specs[2] = {{{"svd", "gauss"}, {}},
                                      {{"svd", "sAVDF"}, {}}};
    MemoryRowMemo memo;
    for (int round = 0; round < 2; ++round) {   // cold, then recalled
        exec::ThreadPool pool(2);
        std::vector<std::future<StudyReport<MemoryStudyResult>>> runs;
        for (const MemoryStudySpec &spec : specs) {
            runs.push_back(pool.submit([&memo, &spec] {
                RunOptions opts = tinyOptions(4);
                opts.memo = &memo;
                return runMemoryStudy(opts, spec);
            }));
        }
        for (std::size_t i = 0; i < runs.size(); ++i) {
            auto shared = runs[i].get();
            auto serial = runMemoryStudy(tinyOptions(1), specs[i]);
            expectRowsIdentical(serial.payload, shared.payload);
            for (const auto &entry : serial.meta.counters.scalars()) {
                if (entry.first.compare(0, 4, "mem.") != 0)
                    continue;   // pool.* counts differ with threads
                EXPECT_EQ(shared.meta.counters.value(entry.first),
                          entry.second)
                    << entry.first;
            }
        }
    }
    MemoryRowMemo::Stats stats = memo.stats();
    EXPECT_EQ(stats.entries, 3u);   // svd, gauss, sAVDF: once each
    EXPECT_EQ(stats.hits + stats.misses, 8u);
    EXPECT_GE(stats.hits, 4u);      // the second round recalls all
}

TEST(ParallelDeterminism, MemoryStudySeedChangesResults)
{
    // sMVM builds its sparsity pattern from the RNG, so its address
    // stream (and hence CPMA) is seed-sensitive; dense kernels like
    // gauss only vary data values with the seed.
    MemoryStudySpec spec;
    spec.benchmarks = {"sMVM"};

    RunOptions a = tinyOptions(1);
    RunOptions b = tinyOptions(1);
    b.seed = 12345;
    double cpma_a = runMemoryStudy(a, spec).payload.rows[0].cpma[0];
    double cpma_b = runMemoryStudy(b, spec).payload.rows[0].cpma[0];
    EXPECT_NE(cpma_a, cpma_b);
}

TEST(ParallelDeterminism, LogicStudyTable5MatchesSerial)
{
    LogicStudySpec spec;
    spec.suite.uops_per_trace = 6000;
    spec.die_nx = 21;
    spec.die_ny = 19;

    RunOptions serial_opts;
    serial_opts.threads = 1;
    serial_opts.seed = 7;
    RunOptions parallel_opts = serial_opts;
    parallel_opts.threads = 4;

    auto serial = runLogicStudy(serial_opts, spec);
    auto parallel = runLogicStudy(parallel_opts, spec);

    const LogicStudyResult &a = serial.payload;
    const LogicStudyResult &b = parallel.payload;
    EXPECT_EQ(a.table4.total_perf_gain_pct,
              b.table4.total_perf_gain_pct);
    EXPECT_EQ(a.power_saving_3d, b.power_saving_3d);
    EXPECT_EQ(a.fig11.planar.peak_c, b.fig11.planar.peak_c);
    EXPECT_EQ(a.fig11.stacked.peak_c, b.fig11.stacked.peak_c);
    EXPECT_EQ(a.fig11.worst_case.peak_c, b.fig11.worst_case.peak_c);
    ASSERT_EQ(a.table5.size(), b.table5.size());
    for (std::size_t i = 0; i < a.table5.size(); ++i) {
        EXPECT_EQ(a.table5[i].temp_c, b.table5[i].temp_c) << i;
        EXPECT_EQ(a.table5[i].point.power_w, b.table5[i].point.power_w);
    }
    // 4 stage-1 cells + 4 Table 5 solves.
    EXPECT_EQ(serial.meta.cells.size(), 8u);
}

TEST(ParallelDeterminism, StackThermalStudyMatchesSerial)
{
    StackThermalSpec spec;
    spec.die_nx = 21;
    spec.die_ny = 17;

    RunOptions serial_opts;
    serial_opts.threads = 1;
    RunOptions parallel_opts;
    parallel_opts.threads = 4;

    auto serial = runStackThermalStudy(serial_opts, spec);
    auto parallel = runStackThermalStudy(parallel_opts, spec);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(serial.payload.options[i].peak_c,
                  parallel.payload.options[i].peak_c)
            << i;
        EXPECT_EQ(serial.payload.options[i].min_c,
                  parallel.payload.options[i].min_c);
    }
}

TEST(ParallelDeterminism, SensitivitySweepMatchesSerial)
{
    SensitivitySpec spec;
    spec.conductivities = {60, 12};
    spec.die_nx = 18;
    spec.die_ny = 16;

    RunOptions serial_opts;
    serial_opts.threads = 1;
    RunOptions parallel_opts;
    parallel_opts.threads = 3;

    auto serial = runConductivitySensitivity(serial_opts, spec);
    auto parallel = runConductivitySensitivity(parallel_opts, spec);
    ASSERT_EQ(serial.payload.size(), 2u);
    for (std::size_t i = 0; i < serial.payload.size(); ++i) {
        EXPECT_EQ(serial.payload[i].peak_cu_swept,
                  parallel.payload[i].peak_cu_swept);
        EXPECT_EQ(serial.payload[i].peak_bond_swept,
                  parallel.payload[i].peak_bond_swept);
    }
}

TEST(ParallelDeterminism, DerivedCellSeedsAreDistinct)
{
    EXPECT_NE(deriveCellSeed(1, 0), deriveCellSeed(1, 1));
    EXPECT_NE(deriveCellSeed(1, 0), deriveCellSeed(2, 0));
    EXPECT_EQ(deriveCellSeed(9, 42), deriveCellSeed(9, 42));
    EXPECT_NE(cellKey("gauss"), cellKey("svd"));
    EXPECT_EQ(cellKey("gauss"), cellKey("gauss"));
}

TEST(ParallelDeterminism, UnknownBenchmarkFailsBeforeLaunch)
{
    MemoryStudySpec spec;
    spec.benchmarks = {"gauss", "bogus"};
    EXPECT_THROW(runMemoryStudy(tinyOptions(4), spec),
                 std::runtime_error);
}

TEST(ParallelDeterminism, ProgressSinkSeesEveryCell)
{
    struct CountingSink : ProgressSink
    {
        std::size_t started = 0;
        std::size_t finished = 0;
        std::size_t total = 0;
        double last_fraction = 0.0;
        void
        studyStarted(const std::string &, std::size_t cells) override
        {
            total = cells;
        }
        void cellStarted(const CellInfo &) override { ++started; }
        void
        cellFinished(const CellInfo &, double, double frac) override
        {
            ++finished;
            last_fraction = frac;
        }
    };

    CountingSink sink;
    RunOptions opts = tinyOptions(4);
    opts.progress = &sink;
    MemoryStudySpec spec;
    spec.benchmarks = {"svd"};
    runMemoryStudy(opts, spec);

    EXPECT_EQ(sink.total, 5u);
    EXPECT_EQ(sink.started, 5u);
    EXPECT_EQ(sink.finished, 5u);
    EXPECT_DOUBLE_EQ(sink.last_fraction, 1.0);
}

TEST(ParallelDeterminism, SolverPoolIsBitIdentical)
{
    // The solver-level guarantee underlying every study above: a
    // slab-parallel solve on an N-thread pool performs the same
    // floating-point operations in the same order as the serial
    // path, for both preconditioners.
    using namespace stack3d::thermal;
    StackGeometry geom =
        makeTwoDieStack(1e-2, 1e-2, StackedDieType::Dram);
    Mesh mesh(geom, 20, 20);
    PowerMap map(20, 20, 1e-2, 1e-2);
    map.addUniform(70.0);
    mesh.setLayerPower(geom.layerIndex("active1"), map);

    exec::ThreadPool pool(4);
    for (Precond precond : {Precond::Multigrid, Precond::Jacobi}) {
        SolverOptions serial;
        serial.precond = precond;
        SolveInfo si;
        TemperatureField fs = solveSteadyState(mesh, serial, &si);

        SolverOptions pooled = serial;
        pooled.pool = &pool;
        SolveInfo pi;
        TemperatureField fp = solveSteadyState(mesh, pooled, &pi);

        EXPECT_EQ(si.iterations, pi.iterations);
        ASSERT_EQ(fs.raw().size(), fp.raw().size());
        for (std::size_t c = 0; c < fs.raw().size(); ++c)
            EXPECT_EQ(fs.raw()[c], fp.raw()[c]) << c;
    }
}

TEST(ParallelDeterminism, PinnedSolvesOnPool)
{
    // Solver.PinnedSolves' cases on a 4-thread pool reproduce the
    // serial pins exactly.
    exec::ThreadPool pool(4);
    pinned_solves::expectAllPinned(&pool);
}
