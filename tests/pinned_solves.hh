/**
 * @file
 * Steady solves pinned bit for bit: three paper stacks at two die
 * sizes, each with its peak and minimum active-layer temperature (as
 * hexfloats) and the exact solver work. The values were captured
 * from the solver before its kernels were restructured, so any change
 * to the arithmetic of the stencil, smoother or V-cycle shows here.
 * Solver.PinnedSolves runs the cases serially;
 * ParallelDeterminism.PinnedSolvesOnPool runs them on a 4-thread
 * pool (the die-16 Pentium 4 3D mesh has 49920 cells, above the
 * multigrid's serial cutoff, so its finest level fans out).
 */

#ifndef STACK3D_TESTS_PINNED_SOLVES_HH
#define STACK3D_TESTS_PINNED_SOLVES_HH

#include <gtest/gtest.h>

#include "core/thermal_study.hh"
#include "floorplan/reference.hh"
#include "thermal/stacks.hh"

namespace stack3d {
namespace pinned_solves {

enum class Stack
{
    P4Planar,     ///< makePentium4Planar(), planar, P4 package
    P4Stacked,    ///< makePentium43D(), logic+SRAM, P4 package
    Core2Dram64,  ///< Core 2 Duo + 64 MB DRAM die, default package
};

struct Case
{
    Stack stack;
    unsigned die_n;
    double peak_c, min_c;
    unsigned iterations, v_cycles, smoother_sweeps;
};

inline constexpr Case kCases[] = {
    {Stack::P4Planar, 8, 0x1.892b1bf7c9459p+6, 0x1.f4d37f8eb3656p+5, 18,
     18, 504},
    {Stack::P4Stacked, 8, 0x1.c3de56620b7a9p+6, 0x1.01d9615a1ba35p+6, 20,
     20, 560},
    {Stack::Core2Dram64, 8, 0x1.5db602389189cp+6, 0x1.dd825a24f4bf3p+5,
     19, 19, 532},
    {Stack::P4Planar, 16, 0x1.833fe07d88fcbp+6, 0x1.eb194d14bba14p+5, 26,
     26, 780},
    {Stack::P4Stacked, 16, 0x1.c653ab57afbe9p+6, 0x1.01e38731df8e9p+6,
     30, 30, 900},
    {Stack::Core2Dram64, 16, 0x1.6a7ce470a413dp+6, 0x1.e77277f603b5dp+5,
     28, 28, 840},
};

/** Solve @p c with the default solver options on @p pool. */
inline core::ThermalPoint
solve(const Case &c, exec::ThreadPool *pool)
{
    using namespace floorplan;
    using thermal::StackedDieType;
    thermal::SolverOptions opt;
    opt.pool = pool;
    switch (c.stack) {
      case Stack::P4Planar:
        return core::solveFloorplanThermals(
            makePentium4Planar(), StackedDieType::None,
            thermal::makeP4Package(), {}, nullptr, c.die_n, c.die_n,
            opt);
      case Stack::P4Stacked:
        return core::solveFloorplanThermals(
            makePentium43D(), StackedDieType::LogicSram,
            thermal::makeP4Package(), {}, nullptr, c.die_n, c.die_n,
            opt);
      case Stack::Core2Dram64:
        break;
    }
    Floorplan base = makeCore2Duo();
    Floorplan dram =
        makeCacheDie(base, "dram64m", budgets::stacked_dram_64mb);
    return core::solveFloorplanThermals(
        stackFloorplans(base, dram, "core2_64m"), StackedDieType::Dram,
        {}, {}, nullptr, c.die_n, c.die_n, opt);
}

/** Every case reproduces its pinned temperatures and work exactly. */
inline void
expectAllPinned(exec::ThreadPool *pool)
{
    for (const Case &c : kCases) {
        SCOPED_TRACE("stack " + std::to_string(int(c.stack)) +
                     " die_n " + std::to_string(c.die_n));
        const core::ThermalPoint p = solve(c, pool);
        EXPECT_EQ(p.peak_c, c.peak_c);
        EXPECT_EQ(p.min_c, c.min_c);
        EXPECT_EQ(p.solve.iterations, c.iterations);
        EXPECT_EQ(p.solve.v_cycles, c.v_cycles);
        EXPECT_EQ(p.solve.smoother_sweeps, c.smoother_sweeps);
        EXPECT_TRUE(p.solve.converged);
    }
}

} // namespace pinned_solves
} // namespace stack3d

#endif // STACK3D_TESTS_PINNED_SOLVES_HH
