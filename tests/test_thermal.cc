/**
 * @file
 * Tests for the thermal solver: power maps, mesh assembly, energy
 * conservation, analytic 1-D agreement, refinement convergence, and
 * the paper's stack geometries.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "common/random.hh"
#include "pinned_solves.hh"
#include "thermal/mesh.hh"
#include "thermal/power_map.hh"
#include "thermal/render.hh"
#include "thermal/solver.hh"
#include "thermal/stacks.hh"

using namespace stack3d;
using namespace stack3d::thermal;

// ---------------------------------------------------------------------
// power maps
// ---------------------------------------------------------------------

TEST(PowerMap, UniformConservesTotal)
{
    PowerMap map(8, 8, 1e-2, 1e-2);
    map.addUniform(50.0);
    EXPECT_NEAR(map.totalWatts(), 50.0, 1e-9);
    EXPECT_NEAR(map.cell(3, 3), 50.0 / 64.0, 1e-12);
}

TEST(PowerMap, RectConservesTotal)
{
    PowerMap map(10, 10, 1e-2, 1e-2);
    // A rectangle that partially overlaps cells.
    map.addRect(1.4e-3, 2.1e-3, 6.3e-3, 7.7e-3, 30.0);
    EXPECT_NEAR(map.totalWatts(), 30.0, 1e-9);
}

TEST(PowerMap, RectOutsideCellsIsZero)
{
    PowerMap map(10, 10, 1e-2, 1e-2);
    map.addRect(2e-3, 2e-3, 4e-3, 4e-3, 10.0);
    EXPECT_DOUBLE_EQ(map.cell(9, 9), 0.0);
    EXPECT_GT(map.cell(2, 2), 0.0);
}

TEST(PowerMap, ScaleMultiplies)
{
    PowerMap map(4, 4, 1e-2, 1e-2);
    map.addUniform(10.0);
    map.scale(0.85);
    EXPECT_NEAR(map.totalWatts(), 8.5, 1e-9);
}

TEST(PowerMap, PeakDensity)
{
    PowerMap map(10, 10, 1e-2, 1e-2);
    map.addRect(0.0, 0.0, 1e-3, 1e-3, 5.0);   // one cell, 5 W/mm^2
    EXPECT_NEAR(map.peakDensity(), 5.0 / 1e-6, 1.0);
}

TEST(PowerMapDeathTest, DegenerateRectIsFatal)
{
    PowerMap map(4, 4, 1e-2, 1e-2);
    EXPECT_THROW(map.addRect(2e-3, 2e-3, 2e-3, 4e-3, 1.0),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// mesh assembly
// ---------------------------------------------------------------------

namespace {

StackGeometry
simpleSlab(double h_top = 1000.0, double h_bottom = 0.0)
{
    StackGeometry geom;
    geom.width = 1e-2;
    geom.height = 1e-2;
    geom.margin = 0.0;
    geom.h_top = h_top;
    geom.h_bottom = h_bottom;
    geom.ambient = 40.0;
    geom.layers.push_back({"top", 1e-3, 100.0, 2, false, 0.0});
    geom.layers.push_back({"active", 1e-4, 100.0, 1, true, 0.0});
    geom.layers.push_back({"bottom", 1e-3, 100.0, 2, false, 0.0});
    return geom;
}

} // anonymous namespace

TEST(Mesh, LayerIndicesAndZRanges)
{
    StackGeometry geom = simpleSlab();
    Mesh mesh(geom, 4, 4);
    EXPECT_EQ(geom.layerIndex("active"), 1u);
    EXPECT_THROW(geom.layerIndex("nope"), std::runtime_error);
    EXPECT_EQ(mesh.layerZBegin(0), 0u);
    EXPECT_EQ(mesh.layerZEnd(0), 2u);
    EXPECT_EQ(mesh.layerZBegin(1), 2u);
    EXPECT_EQ(mesh.nzTotal(), 5u);
    EXPECT_EQ(mesh.numCells(), 4u * 4 * 5);
}

TEST(Mesh, PowerOnNonActiveLayerIsFatal)
{
    StackGeometry geom = simpleSlab();
    Mesh mesh(geom, 4, 4);
    PowerMap map(4, 4, geom.width, geom.height);
    map.addUniform(10.0);
    EXPECT_THROW(mesh.setLayerPower(0, map), std::runtime_error);
}

TEST(Mesh, MismatchedPowerMapIsFatal)
{
    StackGeometry geom = simpleSlab();
    Mesh mesh(geom, 4, 4);
    PowerMap map(8, 8, geom.width, geom.height);
    map.addUniform(10.0);
    EXPECT_THROW(mesh.setLayerPower(1, map), std::runtime_error);
}

TEST(Mesh, BadLayerIsFatal)
{
    StackGeometry geom = simpleSlab();
    geom.layers[0].conductivity = 0.0;
    EXPECT_THROW(Mesh(geom, 4, 4), std::runtime_error);
}

TEST(Mesh, MarginExtendsDomain)
{
    StackGeometry geom = simpleSlab();
    geom.margin = 5e-3;   // 2 cells at die resolution 4 (2.5 mm/cell)
    Mesh mesh(geom, 4, 4);
    EXPECT_EQ(mesh.nx(), 8u);
    EXPECT_TRUE(mesh.inDieWindow(2, 2));
    EXPECT_FALSE(mesh.inDieWindow(0, 0));
}

// ---------------------------------------------------------------------
// stencil kernels
// ---------------------------------------------------------------------

namespace {

/**
 * The oracle: a plain per-cell stencil loop that tests all six
 * neighbours inline. y = A x over the slab into a whole-level y, plus
 * the partial dot Σ x[c]·y[c] in cell order.
 */
double
referenceApplyDot(const double *gx, const double *gy, const double *gz,
                  const double *diag, const double *x, double *y,
                  unsigned nx, unsigned ny, unsigned nz,
                  unsigned z_begin, unsigned z_end)
{
    std::size_t plane = std::size_t(nx) * ny;
    double dot = 0.0;
    for (unsigned z = z_begin; z < z_end; ++z) {
        for (unsigned j = 0; j < ny; ++j) {
            std::size_t row = (std::size_t(z) * ny + j) * nx;
            for (unsigned i = 0; i < nx; ++i) {
                std::size_t c = row + i;
                double acc = diag[c] * x[c];
                if (z > 0)
                    acc -= gz[c - plane] * x[c - plane];
                if (z + 1 < nz)
                    acc -= gz[c] * x[c + plane];
                if (i > 0)
                    acc -= gx[c - 1] * x[c - 1];
                if (i + 1 < nx)
                    acc -= gx[c] * x[c + 1];
                if (j > 0)
                    acc -= gy[c - nx] * x[c - nx];
                if (j + 1 < ny)
                    acc -= gy[c] * x[c + nx];
                y[c] = acc;
                dot += x[c] * acc;
            }
        }
    }
    return dot;
}

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // anonymous namespace

TEST(Stencil, MatchesReferenceLoop)
{
    // Random operators and inputs (the last-column gx and last-row gy
    // entries are random too: no kernel may read them), every shape
    // with nx, ny, nz in {1, 2, 3, 7}, and every z-slab.
    Random rng(2024);
    const unsigned dims[] = {1, 2, 3, 7};
    for (unsigned nx : dims)
        for (unsigned ny : dims)
            for (unsigned nz : dims) {
                const std::size_t plane = std::size_t(nx) * ny;
                const std::size_t n = plane * nz;
                auto fill = [&](double lo, double hi) {
                    std::vector<double> v(n);
                    for (double &e : v)
                        e = rng.uniformDouble(lo, hi);
                    return v;
                };
                const std::vector<double> gx = fill(0.1, 2.0);
                const std::vector<double> gy = fill(0.1, 2.0);
                const std::vector<double> gz = fill(0.1, 50.0);
                const std::vector<double> diag = fill(100.0, 200.0);
                const std::vector<double> x = fill(-60.0, 90.0);
                const std::vector<double> rhs = fill(-5.0, 5.0);

                std::vector<double> ref(n);
                for (unsigned zb = 0; zb < nz; ++zb)
                    for (unsigned ze = zb + 1; ze <= nz; ++ze) {
                        SCOPED_TRACE(::testing::Message()
                                     << nx << "x" << ny << "x" << nz
                                     << " slab [" << zb << ", " << ze
                                     << ")");
                        const double ref_dot = referenceApplyDot(
                            gx.data(), gy.data(), gz.data(),
                            diag.data(), x.data(), ref.data(), nx, ny,
                            nz, zb, ze);
                        const std::size_t base = zb * plane;
                        const std::size_t len = (ze - zb) * plane;

                        std::vector<double> y(len, -1.0);
                        stencil::apply(gx.data(), gy.data(), gz.data(),
                                       diag.data(), x.data(), y.data(),
                                       nx, ny, nz, zb, ze);
                        std::vector<double> yd(len, -1.0);
                        const double dot = stencil::applyDot(
                            gx.data(), gy.data(), gz.data(),
                            diag.data(), x.data(), yd.data(), nx, ny,
                            nz, zb, ze);
                        std::vector<double> yr(len, -1.0);
                        stencil::residual(gx.data(), gy.data(),
                                          gz.data(), diag.data(),
                                          rhs.data(), x.data(),
                                          yr.data(), nx, ny, nz, zb,
                                          ze);

                        EXPECT_EQ(bitsOf(dot), bitsOf(ref_dot));
                        for (std::size_t k = 0; k < len; ++k) {
                            const std::size_t c = base + k;
                            ASSERT_EQ(bitsOf(y[k]), bitsOf(ref[c]))
                                << "apply, cell " << c;
                            ASSERT_EQ(bitsOf(yd[k]), bitsOf(ref[c]))
                                << "applyDot, cell " << c;
                            ASSERT_EQ(bitsOf(yr[k]),
                                      bitsOf(rhs[c] - ref[c]))
                                << "residual, cell " << c;
                        }
                    }
            }
}

// ---------------------------------------------------------------------
// physics
// ---------------------------------------------------------------------

TEST(Solver, MatchesSeriesResistanceAnalytically)
{
    // Uniform power Q over area A through a slab stack to a
    // convective boundary: T_active = Tamb + Q * (R_cond + R_conv),
    // with no lateral gradients (uniform everything).
    StackGeometry geom = simpleSlab(/*h_top=*/500.0);
    Mesh mesh(geom, 6, 6);
    PowerMap map(6, 6, geom.width, geom.height);
    const double q = 20.0;
    map.addUniform(q);
    mesh.setLayerPower(geom.layerIndex("active"), map);

    SolveInfo info;
    TemperatureField field = solveSteadyState(mesh, 1e-10, 50000, &info);
    ASSERT_TRUE(info.converged);

    double area = geom.width * geom.height;
    double r_conv = 1.0 / (500.0 * area);
    // Conduction: the top 1 mm slab at k=100 (power injects at the
    // top cell of the active layer; the half-cells discretization
    // reaches the top face through the full top layer).
    double r_cond = 1e-3 / (100.0 * area);
    double expect = 40.0 + q * (r_conv + r_cond);

    double active = field.layerPeak(geom.layerIndex("active"));
    // Tolerance covers the active layer half-cell discretization.
    EXPECT_NEAR(active, expect, 0.6);
    // No lateral gradient for uniform power.
    EXPECT_NEAR(field.layerPeak(1), field.layerMin(1), 1e-6);
}

TEST(Solver, EnergyBalanceAtBoundaries)
{
    // Steady state: total power in == total convective power out.
    StackGeometry geom = simpleSlab(800.0, 50.0);
    Mesh mesh(geom, 8, 8);
    PowerMap map(8, 8, geom.width, geom.height);
    map.addRect(2e-3, 2e-3, 8e-3, 8e-3, 35.0);
    mesh.setLayerPower(geom.layerIndex("active"), map);
    TemperatureField field = solveSteadyState(mesh, 1e-11, 50000);

    double cell_area = (geom.width / 8) * (geom.height / 8);
    double out = 0.0;
    for (unsigned j = 0; j < 8; ++j) {
        for (unsigned i = 0; i < 8; ++i) {
            out += 800.0 * cell_area *
                   (field.at(i, j, 0) - geom.ambient);
            out += 50.0 * cell_area *
                   (field.at(i, j, mesh.nzTotal() - 1) - geom.ambient);
        }
    }
    EXPECT_NEAR(out, 35.0, 0.05);
}

TEST(Solver, HotterWithMorePower)
{
    StackGeometry geom = simpleSlab();
    auto peak = [&](double watts) {
        Mesh mesh(geom, 6, 6);
        PowerMap map(6, 6, geom.width, geom.height);
        map.addUniform(watts);
        mesh.setLayerPower(geom.layerIndex("active"), map);
        return solveSteadyState(mesh).peak();
    };
    double p20 = peak(20.0);
    double p40 = peak(40.0);
    EXPECT_GT(p40, p20);
    // Linear system: doubling power doubles the rise.
    EXPECT_NEAR(p40 - 40.0, 2.0 * (p20 - 40.0), 0.05);
}

TEST(Solver, RefinementConvergence)
{
    // Peak temperature changes little under 2x lateral refinement.
    auto solve_at = [](unsigned n) {
        StackGeometry geom = makePlanarStack(1e-2, 1e-2);
        Mesh mesh(geom, n, n);
        PowerMap map(n, n, 1e-2, 1e-2);
        map.addUniform(40.0);
        map.addRect(4e-3, 4e-3, 6e-3, 6e-3, 20.0);
        mesh.setLayerPower(geom.layerIndex("active1"), map);
        return solveSteadyState(mesh, 1e-9).peak();
    };
    double coarse = solve_at(20);
    double fine = solve_at(40);
    EXPECT_NEAR(coarse, fine, std::abs(fine - 40.0) * 0.05 + 0.3);
}

// ---------------------------------------------------------------------
// paper stacks
// ---------------------------------------------------------------------

TEST(Stacks, PlanarLayersPresent)
{
    StackGeometry geom = makePlanarStack(13.5e-3, 10.6e-3);
    for (const char *name :
         {"heat_sink", "ihs", "tim", "bulk_si1", "active1", "metal1",
          "package", "socket", "board"})
        EXPECT_NO_THROW(geom.layerIndex(name)) << name;
    EXPECT_THROW(geom.layerIndex("bond"), std::runtime_error);
    EXPECT_GT(geom.totalThickness(), 10e-3);
}

TEST(Stacks, TwoDieStackHasBondAndSecondDie)
{
    StackGeometry geom = makeTwoDieStack(
        13.5e-3, 10.6e-3, StackedDieType::Dram);
    EXPECT_NO_THROW(geom.layerIndex("bond"));
    EXPECT_NO_THROW(geom.layerIndex("active2"));
    EXPECT_NO_THROW(geom.layerIndex("bulk_si2"));
    // DRAM second die uses the thin Al metal stack.
    unsigned m2 = geom.layerIndex("metal2");
    EXPECT_DOUBLE_EQ(geom.layers[m2].thickness,
                     table2::al_metal_thickness);
    EXPECT_DOUBLE_EQ(geom.layers[m2].conductivity,
                     table2::al_metal_conductivity);
}

TEST(Stacks, LogicSecondDieUsesCuMetal)
{
    StackGeometry geom = makeTwoDieStack(
        10e-3, 10e-3, StackedDieType::LogicSram);
    unsigned m2 = geom.layerIndex("metal2");
    EXPECT_DOUBLE_EQ(geom.layers[m2].thickness,
                     table2::cu_metal_thickness);
}

TEST(Stacks, OverridesApply)
{
    StackOverrides ovr;
    ovr.cu_metal_conductivity = 3.0;
    ovr.bond_conductivity = 7.0;
    StackGeometry geom = makeTwoDieStack(
        10e-3, 10e-3, StackedDieType::LogicSram, PackageModel{}, ovr);
    EXPECT_DOUBLE_EQ(
        geom.layers[geom.layerIndex("metal1")].conductivity, 3.0);
    EXPECT_DOUBLE_EQ(
        geom.layers[geom.layerIndex("bond")].conductivity, 7.0);
}

TEST(Stacks, Table2Constants)
{
    EXPECT_DOUBLE_EQ(table2::si1_thickness, 750e-6);
    EXPECT_DOUBLE_EQ(table2::si2_thickness, 20e-6);
    EXPECT_DOUBLE_EQ(table2::si_conductivity, 120.0);
    EXPECT_DOUBLE_EQ(table2::cu_metal_conductivity, 12.0);
    EXPECT_DOUBLE_EQ(table2::bond_conductivity, 60.0);
    EXPECT_DOUBLE_EQ(table2::ambient, 40.0);
}

TEST(Stacks, SecondDieRaisesPeakForSamePower)
{
    // The same total power, but half of it on a second die farther
    // from the heat sink, runs hotter than all of it planar.
    auto solve = [](bool stacked) {
        StackGeometry geom =
            stacked ? makeTwoDieStack(1e-2, 1e-2,
                                      StackedDieType::LogicSram)
                    : makePlanarStack(1e-2, 1e-2);
        Mesh mesh(geom, 16, 16);
        PowerMap map(16, 16, 1e-2, 1e-2);
        map.addUniform(stacked ? 40.0 : 80.0);
        mesh.setLayerPower(geom.layerIndex("active1"), map);
        if (stacked) {
            PowerMap map2(16, 16, 1e-2, 1e-2);
            map2.addUniform(40.0);
            mesh.setLayerPower(geom.layerIndex("active2"), map2);
        }
        return solveSteadyState(mesh).peak();
    };
    EXPECT_GT(solve(true), solve(false) - 0.5);
}

// ---------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------

TEST(Render, ProducesMapWithScale)
{
    StackGeometry geom = simpleSlab();
    Mesh mesh(geom, 8, 8);
    PowerMap map(8, 8, geom.width, geom.height);
    map.addRect(0.0, 0.0, 5e-3, 5e-3, 10.0);
    mesh.setLayerPower(geom.layerIndex("active"), map);
    TemperatureField field = solveSteadyState(mesh);

    std::ostringstream os;
    renderLayerMap(os, field, 1);
    EXPECT_NE(os.str().find("scale:"), std::string::npos);
    EXPECT_GT(os.str().size(), 100u);

    std::ostringstream os2;
    renderPowerMap(os2, map);
    EXPECT_NE(os2.str().find("scale:"), std::string::npos);
}

// ---------------------------------------------------------------------
// transient solver (extension beyond the paper's steady state)
// ---------------------------------------------------------------------

#include "thermal/transient.hh"

TEST(Transient, ApproachesSteadyState)
{
    StackGeometry geom = simpleSlab(800.0);
    Mesh mesh(geom, 6, 6);
    PowerMap map(6, 6, geom.width, geom.height);
    map.addUniform(30.0);
    mesh.setLayerPower(geom.layerIndex("active"), map);

    double steady = solveSteadyState(mesh, 1e-10).peak();
    TransientResult r = solveTransient(mesh, 60.0, 0.5);
    // Within ~0.5% of the full rise after several time constants.
    EXPECT_NEAR(r.samples.back().peak_c, steady,
                (steady - 40.0) * 0.005);
    EXPECT_EQ(r.samples.size(), 120u);
}

TEST(Transient, PeaksRiseMonotonicallyFromAmbient)
{
    StackGeometry geom = simpleSlab(800.0);
    Mesh mesh(geom, 6, 6);
    PowerMap map(6, 6, geom.width, geom.height);
    map.addUniform(30.0);
    mesh.setLayerPower(geom.layerIndex("active"), map);

    TransientResult r = solveTransient(mesh, 5.0, 0.25);
    double prev = geom.ambient;
    for (const auto &s : r.samples) {
        EXPECT_GE(s.peak_c, prev - 1e-9) << "t=" << s.time_s;
        prev = s.peak_c;
    }
}

TEST(Transient, TimeConstantWithinHorizon)
{
    StackGeometry geom = simpleSlab(800.0);
    Mesh mesh(geom, 6, 6);
    PowerMap map(6, 6, geom.width, geom.height);
    map.addUniform(30.0);
    mesh.setLayerPower(geom.layerIndex("active"), map);

    TransientResult r = solveTransient(mesh, 30.0, 0.25);
    EXPECT_GT(r.time_constant_s, 0.0);
    EXPECT_LT(r.time_constant_s, 30.0);
}

TEST(Transient, LargerCapacityIsSlower)
{
    auto tau = [](double vhc) {
        StackGeometry geom = simpleSlab(800.0);
        for (auto &layer : geom.layers)
            layer.volumetric_heat_capacity = vhc;
        Mesh mesh(geom, 4, 4);
        PowerMap map(4, 4, geom.width, geom.height);
        map.addUniform(30.0);
        mesh.setLayerPower(geom.layerIndex("active"), map);
        return solveTransient(mesh, 60.0, 0.25).time_constant_s;
    };
    EXPECT_GT(tau(3.2e6), tau(1.6e6) * 1.5);
}

TEST(Transient, StepSizeInsensitive)
{
    // Implicit Euler: halving dt should barely move the answer.
    StackGeometry geom = simpleSlab(800.0);
    Mesh mesh(geom, 4, 4);
    PowerMap map(4, 4, geom.width, geom.height);
    map.addUniform(30.0);
    mesh.setLayerPower(geom.layerIndex("active"), map);

    double p_coarse = solveTransient(mesh, 10.0, 0.5).samples.back()
                          .peak_c;
    double p_fine = solveTransient(mesh, 10.0, 0.125).samples.back()
                        .peak_c;
    // Backward Euler is first order: ~1-2% of the rise at dt=0.5 s.
    EXPECT_NEAR(p_coarse, p_fine, (p_fine - 40.0) * 0.02);
}

TEST(TransientDeathTest, BadStepIsFatal)
{
    StackGeometry geom = simpleSlab();
    Mesh mesh(geom, 4, 4);
    EXPECT_DEATH(solveTransient(mesh, 1.0, 0.0), "");
}

// ---------------------------------------------------------------------
// multi-die stacks (extension beyond the paper's two dies)
// ---------------------------------------------------------------------

TEST(MultiDie, LayersNamedAndOrdered)
{
    std::vector<StackedDieType> uppers{StackedDieType::Dram,
                                       StackedDieType::Dram,
                                       StackedDieType::LogicSram};
    StackGeometry geom = makeMultiDieStack(1e-2, 1e-2, uppers);
    for (const char *name : {"active1", "active2", "active3",
                             "active4", "bond1", "bond2", "bond3"})
        EXPECT_NO_THROW(geom.layerIndex(name)) << name;
    // Die #4 is LogicSram: Cu metal.
    unsigned m4 = geom.layerIndex("metal4");
    EXPECT_DOUBLE_EQ(geom.layers[m4].thickness,
                     table2::cu_metal_thickness);
}

TEST(MultiDie, EmptyUpperListIsPlanar)
{
    StackGeometry geom = makeMultiDieStack(1e-2, 1e-2, {});
    EXPECT_THROW(geom.layerIndex("bond1"), std::runtime_error);
    EXPECT_NO_THROW(geom.layerIndex("active1"));
}

TEST(MultiDie, NoneDieIsFatal)
{
    EXPECT_THROW(
        makeMultiDieStack(1e-2, 1e-2, {StackedDieType::None}),
        std::runtime_error);
}

TEST(MultiDie, FartherDiesRunHotterForSamePower)
{
    // The same uniform power on each of three stacked dies: dies
    // farther from the heat sink peak hotter.
    std::vector<StackedDieType> uppers{StackedDieType::Dram,
                                       StackedDieType::Dram};
    StackGeometry geom = makeMultiDieStack(1e-2, 1e-2, uppers);
    Mesh mesh(geom, 16, 16);
    for (const char *name : {"active1", "active2", "active3"}) {
        PowerMap map(16, 16, 1e-2, 1e-2);
        map.addUniform(20.0);
        mesh.setLayerPower(geom.layerIndex(name), map);
    }
    TemperatureField field = solveSteadyState(mesh);
    double t1 = field.layerPeak(geom.layerIndex("active1"));
    double t3 = field.layerPeak(geom.layerIndex("active3"));
    EXPECT_GE(t3, t1);
}

TEST(MultiDie, TwoDieSpecialCaseAgrees)
{
    // makeMultiDieStack with one Dram upper die should match
    // makeTwoDieStack thermally.
    StackGeometry a =
        makeTwoDieStack(1e-2, 1e-2, StackedDieType::Dram);
    StackGeometry b =
        makeMultiDieStack(1e-2, 1e-2, {StackedDieType::Dram});
    auto solve = [](const StackGeometry &geom) {
        Mesh mesh(geom, 16, 16);
        PowerMap map(16, 16, 1e-2, 1e-2);
        map.addUniform(60.0);
        mesh.setLayerPower(geom.layerIndex("active1"), map);
        PowerMap map2(16, 16, 1e-2, 1e-2);
        map2.addUniform(4.0);
        mesh.setLayerPower(geom.layerIndex("active2"), map2);
        return solveSteadyState(mesh).peak();
    };
    EXPECT_NEAR(solve(a), solve(b), 0.05);
}

// ---------------------------------------------------------------------
// multigrid preconditioner, incremental reassembly, warm starts
// ---------------------------------------------------------------------

namespace {

/** A small two-die stack with power on both active layers. */
Mesh
smallTwoDieMesh(const StackGeometry &geom, unsigned die_n = 20)
{
    Mesh mesh(geom, die_n, die_n);
    PowerMap map1(die_n, die_n, 1e-2, 1e-2);
    map1.addUniform(60.0);
    mesh.setLayerPower(geom.layerIndex("active1"), map1);
    PowerMap map2(die_n, die_n, 1e-2, 1e-2);
    map2.addUniform(4.0);
    mesh.setLayerPower(geom.layerIndex("active2"), map2);
    return mesh;
}

} // anonymous namespace

TEST(Multigrid, AgreesWithJacobiOnTwoDieStack)
{
    StackGeometry geom =
        makeTwoDieStack(1e-2, 1e-2, StackedDieType::Dram);
    Mesh mesh = smallTwoDieMesh(geom);

    SolverOptions jac;
    jac.precond = Precond::Jacobi;
    SolveInfo jac_info;
    TemperatureField fj = solveSteadyState(mesh, jac, &jac_info);

    SolverOptions mg;
    mg.precond = Precond::Multigrid;
    SolveInfo mg_info;
    TemperatureField fm = solveSteadyState(mesh, mg, &mg_info);

    EXPECT_TRUE(jac_info.converged);
    EXPECT_TRUE(mg_info.converged);
    EXPECT_GT(mg_info.v_cycles, 0u);
    EXPECT_GT(mg_info.smoother_sweeps, 0u);
    EXPECT_EQ(jac_info.v_cycles, 0u);
    // Both converged to relative residual 1e-8; the fields agree to
    // a comfortable multiple of that.
    EXPECT_NEAR(fm.peak(), fj.peak(), 1e-5);
    EXPECT_NEAR(fm.minimum(), fj.minimum(), 1e-5);
}

TEST(Multigrid, AgreesWithJacobiOnPlanarStack)
{
    StackGeometry geom = makePlanarStack(1e-2, 1e-2);
    Mesh mesh(geom, 20, 20);
    PowerMap map(20, 20, 1e-2, 1e-2);
    map.addUniform(80.0);
    mesh.setLayerPower(geom.layerIndex("active1"), map);

    SolverOptions jac;
    jac.precond = Precond::Jacobi;
    TemperatureField fj = solveSteadyState(mesh, jac);

    SolverOptions mg;
    mg.precond = Precond::Multigrid;
    TemperatureField fm = solveSteadyState(mesh, mg);

    EXPECT_NEAR(fm.peak(), fj.peak(), 1e-5);
    EXPECT_NEAR(fm.minimum(), fj.minimum(), 1e-5);
}

TEST(Multigrid, CutsIterationCountSubstantially)
{
    StackGeometry geom =
        makeTwoDieStack(1e-2, 1e-2, StackedDieType::Dram);
    Mesh mesh = smallTwoDieMesh(geom, 24);

    SolverOptions jac;
    jac.precond = Precond::Jacobi;
    SolveInfo ji;
    solveSteadyState(mesh, jac, &ji);

    SolverOptions mg;
    mg.precond = Precond::Multigrid;
    SolveInfo mi;
    solveSteadyState(mesh, mg, &mi);

    // The whole point of the V-cycle: at least 4x fewer iterations.
    EXPECT_LT(mi.iterations * 4, ji.iterations);
}

TEST(Mesh, IncrementalUpdateMatchesFreshAssembly)
{
    StackOverrides base_ovr;   // bond = 60 by default
    StackGeometry geom_a = makeTwoDieStack(
        1e-2, 1e-2, StackedDieType::LogicSram, {}, base_ovr);

    StackOverrides swept_ovr;
    swept_ovr.bond_conductivity = 7.0;
    StackGeometry geom_b = makeTwoDieStack(
        1e-2, 1e-2, StackedDieType::LogicSram, {}, swept_ovr);

    Mesh updated = smallTwoDieMesh(geom_a);
    std::size_t faces = updated.updateLayerConductivity(
        geom_a.layerIndex("bond"), 7.0);
    EXPECT_GT(faces, 0u);

    Mesh fresh = smallTwoDieMesh(geom_b);

    // The fast path must be indistinguishable from a fresh assembly,
    // bit for bit.
    ASSERT_EQ(updated.numCells(), fresh.numCells());
    for (std::size_t c = 0; c < fresh.numCells(); ++c) {
        EXPECT_EQ(updated.faceGx()[c], fresh.faceGx()[c]) << c;
        EXPECT_EQ(updated.faceGy()[c], fresh.faceGy()[c]) << c;
        EXPECT_EQ(updated.faceGz()[c], fresh.faceGz()[c]) << c;
        EXPECT_EQ(updated.diagonal()[c], fresh.diagonal()[c]) << c;
        EXPECT_EQ(updated.rhs()[c], fresh.rhs()[c]) << c;
    }

    // No-op updates report zero recomputed faces.
    EXPECT_EQ(updated.updateLayerConductivity(
                  geom_a.layerIndex("bond"), 7.0),
              0u);
}

TEST(Solver, PinnedSolves)
{
    // Serial; ParallelDeterminism.PinnedSolvesOnPool runs the same
    // cases on a pool.
    pinned_solves::expectAllPinned(nullptr);
}

TEST(Solver, WarmStartAgreesAndConvergesFaster)
{
    StackGeometry geom = makeTwoDieStack(
        1e-2, 1e-2, StackedDieType::LogicSram);
    Mesh mesh = smallTwoDieMesh(geom);

    SolveInfo cold0;
    TemperatureField first =
        solveSteadyState(mesh, SolverOptions{}, &cold0);

    // Nudge the bond layer and re-solve cold vs. warm.
    mesh.updateLayerConductivity(geom.layerIndex("bond"), 48.0);

    SolveInfo cold;
    TemperatureField f_cold =
        solveSteadyState(mesh, SolverOptions{}, &cold);
    EXPECT_FALSE(cold.warm_start_used);

    SolverOptions warm;
    warm.warm_start = &first.raw();
    SolveInfo wi;
    TemperatureField f_warm = solveSteadyState(mesh, warm, &wi);
    EXPECT_TRUE(wi.warm_start_used);
    EXPECT_LE(wi.iterations, cold.iterations);
    EXPECT_NEAR(f_warm.peak(), f_cold.peak(), 1e-5);

    // A size-mismatched guess is ignored, not an error.
    std::vector<double> wrong(3, 40.0);
    SolverOptions bad;
    bad.warm_start = &wrong;
    SolveInfo bi;
    solveSteadyState(mesh, bad, &bi);
    EXPECT_FALSE(bi.warm_start_used);
}

TEST(TemperatureField, LayerQueriesScanEveryPlane)
{
    // A layer two planes thick whose hottest cell sits on the
    // *second* plane, at a different (i, j) than the first plane's
    // maximum: layerPeakCell must find it.
    StackGeometry geom = simpleSlab();
    Mesh mesh(geom, 4, 4);   // layer 0 spans z = 0..1
    std::vector<double> temps(mesh.numCells(), 40.0);
    temps[mesh.cellIndex(1, 1, 0)] = 50.0;   // first-plane max
    temps[mesh.cellIndex(3, 2, 1)] = 60.0;   // layer max, second plane
    temps[mesh.cellIndex(0, 0, 1)] = 30.0;   // layer min
    TemperatureField field(mesh, std::move(temps));

    EXPECT_DOUBLE_EQ(field.layerPeak(0), 60.0);
    EXPECT_DOUBLE_EQ(field.layerMin(0), 30.0);
    auto cell = field.layerPeakCell(0);
    EXPECT_EQ(cell.first, 3u);
    EXPECT_EQ(cell.second, 2u);
}
