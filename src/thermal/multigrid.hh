/**
 * @file
 * Geometric multigrid V-cycle preconditioner for the steady-state
 * thermal solve.
 *
 * The hierarchy full-coarsens laterally (2x2 cell aggregation in x/y,
 * Galerkin coarse operators via piecewise-constant transfer) while
 * keeping every z-plane at every level. The stack is extremely
 * anisotropic in z — micrometre metal and bond layers against
 * millimetre heat-sink planes give vertical face conductances orders
 * of magnitude above the lateral ones — so errors that are strongly
 * coupled in z must be removed by the smoother, not the coarse grid:
 * the smoother solves each (i, j) column's tridiagonal z-line system
 * exactly (damped block Jacobi), which is what makes lateral
 * semicoarsening converge on these stacks.
 *
 * Used as M in PCG: apply() runs one V-cycle from a zero initial
 * guess, a fixed symmetric positive definite linear operation (equal
 * pre-/post-smoothing with a symmetric smoother), so the outer CG
 * iteration stays valid. All loops run in deterministic slab order;
 * with a thread pool the slabs run concurrently but compute
 * bit-identical results (see exec/reduce.hh).
 */

#ifndef STACK3D_THERMAL_MULTIGRID_HH
#define STACK3D_THERMAL_MULTIGRID_HH

#include <vector>

#include "thermal/mesh.hh"

namespace stack3d {

namespace exec {
class ThreadPool;
} // namespace exec

namespace thermal {

/** Tuning knobs for the V-cycle (defaults work for paper stacks). */
struct MultigridOptions
{
    unsigned pre_sweeps = 1;
    unsigned post_sweeps = 1;
    /** Smoother sweeps standing in for a coarsest-level solve. */
    unsigned coarse_sweeps = 24;
    /** Stop coarsening when min(nx, ny) drops to this. */
    unsigned min_coarse_dim = 8;
    /** Damping of the z-line smoother. */
    double damping = 0.8;
};

/** One V-cycle per apply(); reusable across CG iterations. */
class MultigridPreconditioner
{
  public:
    /**
     * Build the level hierarchy from the assembled mesh. The mesh
     * must outlive the preconditioner and must not be reassembled
     * (e.g. by updateLayerConductivity) while it is in use — the
     * finest level aliases the mesh's conductance arrays.
     *
     * @param pool optional slab-parallel executor (not owned)
     */
    MultigridPreconditioner(const Mesh &mesh,
                            const MultigridOptions &options = {},
                            exec::ThreadPool *pool = nullptr);

    /** z = M^-1 r: one V-cycle from a zero initial guess. */
    void apply(const std::vector<double> &r, std::vector<double> &z);

    unsigned numLevels() const { return unsigned(_levels.size()); }
    unsigned vCycles() const { return _v_cycles; }
    /** Total smoother sweeps across all levels and applies. */
    unsigned smootherSweeps() const { return _smoother_sweeps; }

  private:
    /** One grid level; level 0 aliases the mesh's arrays. */
    struct Level
    {
        unsigned nx = 0, ny = 0, nz = 0;
        const double *gx = nullptr, *gy = nullptr, *gz = nullptr;
        const double *diag = nullptr;
        std::vector<double> own_gx, own_gy, own_gz, own_diag;
        /** V-cycle workspace: correction, restricted rhs, and the
         *  smoother's residual. */
        std::vector<double> x, rhs, res;

        /**
         * Precomputed z-line Thomas factors: zl_inv is the inverted
         * pivot of the column tridiagonal's LU, zl_cp the upper
         * factor. The factorization is constant — the columns'
         * matrices never change — so sweeps run division-free.
         */
        std::vector<double> zl_inv, zl_cp;

        std::size_t plane() const { return std::size_t(nx) * ny; }
        std::size_t
        cells() const
        {
            return plane() * nz;
        }
    };

    void coarsen(const Level &fine);
    void vcycle(unsigned level, const double *rhs, double *x);
    void smooth(Level &level, const double *rhs, double *x,
                unsigned sweeps, bool x_is_zero);
    void residual(const Level &level, const double *rhs,
                  const double *x, double *out) const;
    exec::ThreadPool *poolFor(const Level &level) const;

    std::vector<Level> _levels;
    MultigridOptions _options;
    exec::ThreadPool *_pool;
    unsigned _v_cycles = 0;
    unsigned _smoother_sweeps = 0;
};

} // namespace thermal
} // namespace stack3d

#endif // STACK3D_THERMAL_MULTIGRID_HH
