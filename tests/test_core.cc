/**
 * @file
 * Tests for the paper-level study APIs: the memory study, the
 * thermal studies, and the logic study (at reduced scale so the
 * suite stays fast).
 */

#include <gtest/gtest.h>

#include "core/logic_study.hh"
#include "core/memory_study.hh"
#include "core/thermal_study.hh"

using namespace stack3d;
using namespace stack3d::core;

// ---------------------------------------------------------------------
// memory study
// ---------------------------------------------------------------------

TEST(MemoryStudy, TinyRunProducesAllColumns)
{
    RunOptions opts;
    opts.depth = 0.02;
    opts.scale = 0.3;
    opts.verbosity = Verbosity::Silent;
    MemoryStudySpec spec;
    spec.benchmarks = {"gauss", "svd"};
    MemoryStudyResult result = runMemoryStudy(opts, spec).payload;

    ASSERT_EQ(result.rows.size(), 2u);
    for (const auto &row : result.rows) {
        EXPECT_GT(row.records, 0u);
        EXPECT_GT(row.footprint_mb, 0.0);
        for (int o = 0; o < 4; ++o) {
            EXPECT_GT(row.cpma[o], 0.0) << row.benchmark;
            EXPECT_GE(row.bw_gbps[o], 0.0);
            EXPECT_LE(row.bw_gbps[o], 16.5);   // bus cap
        }
    }
}

TEST(MemoryStudy, CapacitySensitiveBenchmarkImproves)
{
    RunOptions opts;
    opts.depth = 0.25;
    opts.verbosity = Verbosity::Silent;
    MemoryStudySpec spec;
    spec.benchmarks = {"gauss"};   // 6.2 MB: thrashes 4 MB, fits 12+
    MemoryStudyResult result = runMemoryStudy(opts, spec).payload;
    const auto &row = result.rows[0];
    EXPECT_GT(row.cpma[0], row.cpma[1] * 2.0);
    EXPECT_NEAR(row.cpma[1], row.cpma[2], row.cpma[1] * 0.25);
}

TEST(MemoryStudy, RecommendedBudgetsCoverAllBenchmarks)
{
    for (const std::string &name : workloads::rmsKernelNames())
        EXPECT_GE(recommendedRecordsPerThread(name), 1000000u) << name;
}

TEST(MemoryStudy, UnknownBenchmarkIsFatal)
{
    RunOptions opts;
    opts.verbosity = Verbosity::Silent;
    MemoryStudySpec spec;
    spec.benchmarks = {"bogus"};
    EXPECT_THROW(runMemoryStudy(opts, spec), std::runtime_error);
}

// ---------------------------------------------------------------------
// thermal studies
// ---------------------------------------------------------------------

namespace {

constexpr unsigned kNx = 27;   // coarse for test speed
constexpr unsigned kNy = 21;

} // anonymous namespace

TEST(ThermalStudy, PlanarBaselineNearFigure6)
{
    auto fp = floorplan::makeCore2Duo();
    ThermalPoint pt = solveFloorplanThermals(
        fp, thermal::StackedDieType::None, {}, {}, nullptr, kNx, kNy);
    // Figure 6: 88.35 C peak, 59 C coolest (coarse-grid tolerance).
    EXPECT_NEAR(pt.peak_c, 88.4, 2.5);
    EXPECT_NEAR(pt.min_c, 59.0, 2.5);
    EXPECT_DOUBLE_EQ(pt.total_power_w, 92.0);
}

TEST(ThermalStudy, StackOrderingMatchesFigure8)
{
    RunOptions opts;
    opts.verbosity = Verbosity::Silent;
    StackThermalSpec spec;
    spec.die_nx = kNx;
    spec.die_ny = kNy;
    StackThermalResult r = runStackThermalStudy(opts, spec).payload;
    double base = r.options[0].peak_c;
    double t12 = r.options[1].peak_c;
    double t32 = r.options[2].peak_c;
    double t64 = r.options[3].peak_c;

    // The SRAM option is the hottest; 32 MB DRAM is near-neutral;
    // 64 MB sits between (Figure 8a's ordering).
    EXPECT_GT(t12, t64);
    EXPECT_GT(t64, t32);
    EXPECT_NEAR(t32, base, 1.0);
    EXPECT_NEAR(t12 - base, 4.5, 2.0);
    EXPECT_NEAR(t64 - base, 1.9, 1.5);
}

TEST(ThermalStudy, SensitivityCurvesRiseAsConductivityFalls)
{
    RunOptions opts;
    opts.verbosity = Verbosity::Silent;
    SensitivitySpec spec;
    spec.conductivities = {60, 12, 3};
    spec.die_nx = 20;
    spec.die_ny = 18;
    auto points = runConductivitySensitivity(opts, spec).payload;
    ASSERT_EQ(points.size(), 3u);
    // Peak temperature increases monotonically as k drops.
    EXPECT_LT(points[0].peak_cu_swept, points[1].peak_cu_swept);
    EXPECT_LT(points[1].peak_cu_swept, points[2].peak_cu_swept);
    EXPECT_LT(points[0].peak_bond_swept, points[2].peak_bond_swept);
    // The Cu metal layer is the more sensitive one (Figure 3).
    double cu_swing =
        points[2].peak_cu_swept - points[0].peak_cu_swept;
    double bond_swing =
        points[2].peak_bond_swept - points[0].peak_bond_swept;
    EXPECT_GT(cu_swing, bond_swing);
}

// ---------------------------------------------------------------------
// logic study
// ---------------------------------------------------------------------

TEST(LogicStudy, EndToEndShape)
{
    RunOptions opts;
    opts.seed = 7;   // the retired wrapper's suite seed
    opts.verbosity = Verbosity::Silent;
    LogicStudySpec spec;
    spec.suite.uops_per_trace = 8000;
    spec.die_nx = 25;
    spec.die_ny = 23;
    StudyReport<LogicStudyResult> report = runLogicStudy(opts, spec);
    const LogicStudyResult &r = report.payload;

    // Table 4: ten rows, positive total gain.
    EXPECT_EQ(r.table4.rows.size(), 10u);
    EXPECT_GT(r.table4.total_perf_gain_pct, 5.0);

    // Its twelve configurations ran as nine distinct timings, all
    // nine in one pass over each trace.
    const obs::CounterSet &counters = report.meta.counters;
    const std::uint64_t traces = r.table4.planar.num_traces;
    EXPECT_EQ(traces, 82u);
    EXPECT_EQ(counters.value("cpu.table4.timings"), 9.0);
    EXPECT_EQ(counters.value("cpu.table4.passes"), 82.0);
    EXPECT_EQ(counters.value("cpu.table4.simulated_uops"),
              double(9u * traces * 8000u));

    // Power roll-up ~15%.
    EXPECT_NEAR(r.power_saving_3d, 0.15, 0.03);

    // Figure 11 ordering: planar < 3D < worst case.
    EXPECT_LT(r.fig11.planar.peak_c, r.fig11.stacked.peak_c);
    EXPECT_LT(r.fig11.stacked.peak_c, r.fig11.worst_case.peak_c);
    EXPECT_GT(r.fig11.worst_density_ratio,
              r.fig11.stacked_density_ratio);

    // Table 5: five rows; same-temp row lands near the baseline
    // temperature; same-perf row is the coolest.
    ASSERT_EQ(r.table5.size(), 5u);
    EXPECT_NEAR(r.table5[3].temp_c, r.table5[0].temp_c, 6.0);
    EXPECT_LT(r.table5[4].temp_c, r.table5[0].temp_c);
    // Same Pwr is the hottest row.
    for (std::size_t i = 0; i < r.table5.size(); ++i)
        EXPECT_LE(r.table5[i].temp_c, r.table5[1].temp_c + 1e-9);

    // "Same Freq." runs at Figure 11's stacked power scale, so it
    // reuses that solve: six solves for seven temperatures (Baseline
    // reads the planar solve and is not counted), and still eight
    // cells.
    EXPECT_EQ(std::string(r.table5[2].point.label), "Same Freq.");
    EXPECT_EQ(r.table5[2].temp_c, r.fig11.stacked.peak_c);
    EXPECT_EQ(counters.value("thermal.solves"), 6.0);
    EXPECT_EQ(counters.value("thermal.solves_reused"), 1.0);
    EXPECT_EQ(report.meta.cells.size(), 8u);
}
