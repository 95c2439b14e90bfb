#include "logic_study.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "exec/future_set.hh"
#include "exec/pool.hh"
#include "floorplan/reference.hh"

namespace stack3d {
namespace core {

using floorplan::Floorplan;
using thermal::StackedDieType;

StudyReport<LogicStudyResult>
runLogicStudy(const RunOptions &options, const LogicStudySpec &spec)
{
    // Cells 0-3: Table 4 suite + the three Figure 11 bars.
    // Cells 4-7: the four non-baseline Table 5 operating points
    // (computeTable5Points returns five fixed rows; "Baseline"
    // reuses the planar solve).
    constexpr std::size_t kTable5Rows = 5;
    StudyTracker tracker("logic", 4 + (kTable5Rows - 1), options);

    StudyReport<LogicStudyResult> report;
    LogicStudyResult &result = report.payload;

    // ---- power: the 3D roll-up (analytic, needed by two cells) ----
    result.power_saving_3d =
        1.0 - spec.power_breakdown.stackedRelativePower();

    thermal::PackageModel pkg = thermal::makeP4Package();
    thermal::SolverOptions sopt;
    sopt.precond = options.thermal_precond;
    sopt.cancel = options.cancel;
    Floorplan planar = floorplan::makePentium4Planar();
    double planar_density = planar.peakBlockDensity(0);

    cpu::SuiteOptions suite = spec.suite;
    suite.seed = deriveCellSeed(options.seed, cellKey("cpu-suite"));
    const double trace_uops = scaledTraceUops(options, spec);
    if (!(trace_uops <= double(kMaxLogicTraceUops))) {
        stack3d_fatal("logic study: uops_per_trace x depth = ",
                      trace_uops, " exceeds ", kMaxLogicTraceUops,
                      " uops");
    }
    suite.uops_per_trace = std::uint64_t(trace_uops);
    if (suite.uops_per_trace < 1000)
        suite.uops_per_trace = 1000;

    unsigned workers = options.resolvedThreads();
    exec::ThreadPool pool(workers > 1 ? workers : 0);

    // ---- stage 1: Table 4 + the Figure 11 bars --------------------
    exec::parallelFor(pool, 4, [&](std::size_t cell) {
        switch (cell) {
          case 0:
            tracker.runCell(0, "table4", [&] {
                result.table4 = cpu::computeTable4(suite);
            });
            break;
          case 1:
            tracker.runCell(1, "fig11/planar", [&] {
                result.fig11.planar = solveFloorplanThermals(
                    planar, StackedDieType::None, pkg, {}, nullptr,
                    spec.die_nx, spec.die_ny, sopt);
            });
            break;
          case 2:
            tracker.runCell(2, "fig11/stacked", [&] {
                Floorplan stacked = floorplan::makePentium43D(
                    1.0 - result.power_saving_3d);
                result.fig11.stacked = solveFloorplanThermals(
                    stacked, StackedDieType::LogicSram, pkg, {},
                    nullptr, spec.die_nx, spec.die_ny, sopt);
                result.fig11.stacked_density_ratio =
                    stacked.peakStackedDensity() / planar_density;
            });
            break;
          case 3:
            tracker.runCell(3, "fig11/worst", [&] {
                Floorplan worst =
                    floorplan::makePentium43DWorstCase();
                result.fig11.worst_case = solveFloorplanThermals(
                    worst, StackedDieType::LogicSram, pkg, {}, nullptr,
                    spec.die_nx, spec.die_ny, sopt);
                result.fig11.worst_density_ratio =
                    worst.peakStackedDensity() / planar_density;
            });
            break;
        }
    });

    // ---- Table 5: V/f scaling with simulated temperatures ---------
    // The operating points need the measured Table 4 gain and the
    // planar solve, hence the barrier above.
    double gain = spec.use_measured_gain
                      ? result.table4.total_perf_gain_pct / 100.0
                      : 0.15;
    double baseline_w = planar.totalPower();
    auto points = power::computeTable5Points(
        baseline_w, gain, result.power_saving_3d, spec.vf_model);
    stack3d_assert(points.size() == kTable5Rows,
                   "unexpected Table 5 row count");

    result.table5.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        result.table5[i].point = points[i];

    // A row whose floorplan power scale is bitwise Figure 11's stacked
    // scale (today "Same Freq.") poses that cell's thermal problem
    // exactly, so it keeps its cell but reuses the solve's peak.
    std::vector<unsigned char> reused(points.size(), 0);
    exec::parallelFor(pool, points.size(), [&](std::size_t i) {
        Table5Row &row = result.table5[i];
        if (std::string(row.point.label) == "Baseline") {
            // No solve of its own; reuses the planar cell's result.
            row.temp_c = result.fig11.planar.peak_c;
            return;
        }
        // Non-baseline rows occupy cells 4..7 in canonical order
        // (the baseline row, always first, holds no cell slot).
        stack3d_assert(i > 0, "non-baseline Table 5 row at index 0");
        std::size_t cell = 4 + (i - 1);
        std::string label = std::string("table5/") + row.point.label;
        tracker.runCell(cell, label, [&] {
            const double scale = row.point.power_w / baseline_w;
            // lint3d: safe-float-eq-ok (bitwise: the same solve)
            if (scale == 1.0 - result.power_saving_3d) {
                row.temp_c = result.fig11.stacked.peak_c;
                reused[i] = 1;
                return;
            }
            // Scale the 3D floorplan's power to the row's wattage
            // and re-solve.
            Floorplan scaled = floorplan::makePentium43D(scale);
            row.temp_c = solveFloorplanThermals(
                             scaled, StackedDieType::LogicSram, pkg,
                             {}, nullptr, spec.die_nx, spec.die_ny,
                             sopt)
                             .peak_c;
        });
    });

    report.meta = tracker.finish();
    cpu::appendTable4Counters(result.table4, report.meta.counters);
    thermal::appendSolveCounters(report.meta.counters,
                                 "thermal.fig11_planar.",
                                 result.fig11.planar.solve);
    thermal::appendSolveCounters(report.meta.counters,
                                 "thermal.fig11_stacked.",
                                 result.fig11.stacked.solve);
    thermal::appendSolveCounters(report.meta.counters,
                                 "thermal.fig11_worst.",
                                 result.fig11.worst_case.solve);
    // Figure 11's three solves plus every non-baseline Table 5 row
    // that did not reuse one.
    const std::size_t n_reused =
        std::size_t(std::count(reused.begin(), reused.end(), 1));
    report.meta.counters.set(
        "thermal.solves", double(3 + (points.size() - 1) - n_reused));
    report.meta.counters.set("thermal.solves_reused", double(n_reused));
    pool.appendCounters(report.meta.counters);
    return report;
}

} // namespace core
} // namespace stack3d
