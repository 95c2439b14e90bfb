/**
 * @file
 * Tests for the paper-level study APIs: the memory study, the
 * thermal studies, and the logic study (at reduced scale so the
 * suite stays fast).
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "core/logic_study.hh"
#include "core/memory_study.hh"
#include "core/study_json.hh"
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
// memory-row memo
// ---------------------------------------------------------------------

namespace {

RunOptions
memoOptions(MemoryRowMemo *memo)
{
    RunOptions opts;
    opts.seed = 5;
    opts.depth = 0.01;
    opts.scale = 0.2;
    opts.verbosity = Verbosity::Silent;
    opts.memo = memo;
    return opts;
}

MemoryStudySpec
kernels(std::vector<std::string> names)
{
    MemoryStudySpec spec;
    spec.benchmarks = std::move(names);
    return spec;
}

std::string
payloadJson(const MemoryStudyResult &result)
{
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    writeMemoryStudyResultJson(w, result);
    return os.str();
}

/** Cancels its token once the first cell has finished. */
class CancelAfterFirstCell : public ProgressSink
{
  public:
    explicit CancelAfterFirstCell(CancelToken &token) : _token(token) {}

    void
    cellFinished(const CellInfo &, double, double) override
    {
        _token.cancel();
    }

  private:
    CancelToken &_token;
};

} // anonymous namespace

TEST(MemoryRowMemo, RecalledRowMatchesColdRun)
{
    auto cold = runMemoryStudy(memoOptions(nullptr),
                               kernels({"svd", "gauss"}));

    MemoryRowMemo memo;
    (void)runMemoryStudy(memoOptions(&memo), kernels({"svd"}));
    auto warm = runMemoryStudy(memoOptions(&memo),
                               kernels({"svd", "gauss"}));
    MemoryRowMemo::Stats stats = memo.stats();
    EXPECT_EQ(stats.hits, 1u);     // svd recalled
    EXPECT_EQ(stats.misses, 2u);   // svd, then gauss
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GT(stats.bytes, 0u);

    EXPECT_EQ(payloadJson(warm.payload), payloadJson(cold.payload));
    EXPECT_EQ(warm.meta.counters.scalars(), cold.meta.counters.scalars());
    ASSERT_EQ(warm.meta.cells.size(), cold.meta.cells.size());
    for (std::size_t i = 0; i < cold.meta.cells.size(); ++i)
        EXPECT_EQ(warm.meta.cells[i].label, cold.meta.cells[i].label);
}

TEST(MemoryRowMemo, AnyChangedInputMisses)
{
    MemoryRowMemo memo;
    (void)runMemoryStudy(memoOptions(&memo), kernels({"svd"}));
    RunOptions threads2 = memoOptions(&memo);
    threads2.threads = 2;   // not an input: still a hit
    (void)runMemoryStudy(threads2, kernels({"svd"}));
    ASSERT_EQ(memo.stats().hits, 1u);

    using Change = std::function<void(RunOptions &, MemoryStudySpec &)>;
    const std::vector<std::pair<const char *, Change>> changes = {
        {"seed", [](RunOptions &o, MemoryStudySpec &) { o.seed = 6; }},
        {"depth",
         [](RunOptions &o, MemoryStudySpec &) { o.depth = 0.02; }},
        {"scale",
         [](RunOptions &o, MemoryStudySpec &) { o.scale = 0.25; }},
        {"window",
         [](RunOptions &, MemoryStudySpec &s) { s.engine.window = 64; }},
        {"issue_width",
         [](RunOptions &, MemoryStudySpec &s) {
             s.engine.issue_width = 2;
         }},
        {"honor_dependencies",
         [](RunOptions &, MemoryStudySpec &s) {
             s.engine.honor_dependencies = false;
         }},
        {"warmup_fraction",
         [](RunOptions &, MemoryStudySpec &s) {
             s.engine.warmup_fraction = 0.1;
         }},
    };
    for (const auto &change : changes) {
        RunOptions opts = memoOptions(&memo);
        MemoryStudySpec spec = kernels({"svd"});
        change.second(opts, spec);
        MemoryRowMemo::Stats before = memo.stats();
        (void)runMemoryStudy(opts, spec);
        MemoryRowMemo::Stats after = memo.stats();
        EXPECT_EQ(after.hits, before.hits) << change.first;
        EXPECT_EQ(after.misses, before.misses + 1) << change.first;
    }
}

TEST(MemoryRowMemo, FailedOrCancelledStudyInsertsNothing)
{
    MemoryRowMemo memo;
    std::string error;
    ASSERT_TRUE(FaultRegistry::configure("study.cell.fail:1.0", 1, error))
        << error;
    EXPECT_THROW(runMemoryStudy(memoOptions(&memo), kernels({"svd"})),
                 std::runtime_error);
    FaultRegistry::reset();
    EXPECT_EQ(memo.stats().entries, 0u);

    // Cancelled after the trace cell: the option cells never finish.
    CancelToken token;
    CancelAfterFirstCell sink(token);
    RunOptions opts = memoOptions(&memo);
    opts.cancel = &token;
    opts.progress = &sink;
    EXPECT_THROW(runMemoryStudy(opts, kernels({"svd"})), CancelledError);
    EXPECT_EQ(memo.stats().entries, 0u);
    EXPECT_EQ(memo.stats().bytes, 0u);
}

TEST(MemoryRowMemo, EvictsLeastRecentlyUsedRowOverBudget)
{
    // Synthetic rows of about 60 KB: the budget holds a few dozen.
    MemoryRowMemo::Row big;
    for (int i = 0; i < 1000; ++i)
        big.counters[0].set("counter." + std::to_string(i) + ".padding",
                            double(i));
    auto key = [](std::uint64_t seed) {
        MemoryRowMemo::Key k{"svd", {}, {}};
        k.workload.seed = seed;
        return k;
    };
    MemoryRowMemo memo;
    MemoryRowMemo::Row out;
    memo.put(key(0), big);
    std::uint64_t next = 1;
    while (memo.stats().evictions == 0) {
        ASSERT_TRUE(memo.tryGet(key(0), out));   // keep key 0 recent
        memo.put(key(next++), big);
        ASSERT_LT(next, 1000u);
    }
    MemoryRowMemo::Stats full = memo.stats();
    EXPECT_EQ(full.evictions, 1u);
    EXPECT_EQ(full.entries, next - 1);
    EXPECT_LE(full.bytes, MemoryRowMemo::kByteBudget);
    EXPECT_GT(full.entries, 10u);
    // The least recently used row went, not the oldest one.
    EXPECT_TRUE(memo.tryGet(key(0), out));
    EXPECT_FALSE(memo.tryGet(key(1), out));
    EXPECT_TRUE(memo.tryGet(key(2), out));

    // Putting a key already held changes nothing.
    memo.put(key(2), big);
    EXPECT_EQ(memo.stats().entries, full.entries);
    EXPECT_EQ(memo.stats().bytes, full.bytes);
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
