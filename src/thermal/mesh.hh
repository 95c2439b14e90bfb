/**
 * @file
 * Layered 3-D thermal mesh of the stacked-die / package / board
 * system (Figures 1 and 2). The geometry is a vertical stack of
 * homogeneous layers; the lateral domain extends a configurable
 * margin beyond the die outline so that heat spreading in the heat
 * sink, IHS, package and board — which are all much larger than the
 * die — is captured. Layers confined to the die (silicon, metal,
 * bond) specify a distinct conductivity for the surrounding margin
 * material (underfill / air / molding compound).
 *
 * The conservation-of-energy equation (1) with convection boundary
 * conditions (2) is discretized with the finite-volume method —
 * equivalent to lowest-order FEM on this hexahedral mesh — giving a
 * 7-point conductance stencil solved by thermal::solveSteadyState.
 */

#ifndef STACK3D_THERMAL_MESH_HH
#define STACK3D_THERMAL_MESH_HH

#include <string>
#include <vector>

#include "common/check.hh"
#include "thermal/power_map.hh"

namespace stack3d {
namespace thermal {

/**
 * Raw 7-point conductance-stencil kernels shared by the Mesh operator
 * and the multigrid levels (whose coarse operators have the same
 * shape but own their arrays). All kernels work on a z-plane range
 * [z_begin, z_end) so callers can partition them into deterministic
 * slabs (see exec/reduce.hh). x and rhs index the whole level; y
 * holds the slab alone (y[0] is cell (0, 0, z_begin)), so it may be
 * a slab of a full-size array or plane-sized scratch.
 *
 * Each row runs as three branch-free cell loops (first cell,
 * interior, last cell) specialised for the row's z and y neighbours,
 * and every cell sums its terms in one fixed order — diag·x, then
 * up, down, left, right, north, south — so the three kernels agree
 * with each other bit for bit.
 */
namespace stencil {

/** y = A x over the slab (gx/gy/gz/diag as in Mesh). */
void apply(const double *gx, const double *gy, const double *gz,
           const double *diag, const double *x, double *y,
           unsigned nx, unsigned ny, unsigned nz, unsigned z_begin,
           unsigned z_end);

/**
 * y = A x over the slab, then the slab's partial dot Σ x[c]·y[c]
 * summed in cell order.
 */
double applyDot(const double *gx, const double *gy, const double *gz,
                const double *diag, const double *x, double *y,
                unsigned nx, unsigned ny, unsigned nz,
                unsigned z_begin, unsigned z_end);

/** y = rhs − A x over the slab, in one pass. */
void residual(const double *gx, const double *gy, const double *gz,
              const double *diag, const double *rhs, const double *x,
              double *y, unsigned nx, unsigned ny, unsigned nz,
              unsigned z_begin, unsigned z_end);

} // namespace stencil

/** One homogeneous layer of the vertical stack. */
struct Layer
{
    std::string name;
    /** Thickness in metres. */
    double thickness = 0.0;
    /** Conductivity within the die window, W/(m K). */
    double conductivity = 0.0;
    /** Vertical cells this layer is divided into. */
    unsigned nz = 1;
    /** True if a power map may be attached (an active Si plane). */
    bool is_active = false;
    /**
     * Conductivity in the margin region outside the die window;
     * 0 means the layer material extends across the whole domain
     * (heat sink, IHS, package, board).
     */
    double margin_conductivity = 0.0;

    /**
     * Volumetric heat capacity (rho * c), J/(m^3 K). Only used by
     * the transient solver; the default is silicon-class. Table 2
     * gives conductivities only, so transient results use standard
     * material capacities.
     */
    double volumetric_heat_capacity = 1.65e6;
};

/** The full stack description with boundary conditions. */
struct StackGeometry
{
    /** Die outline in metres. */
    double width = 0.0;
    double height = 0.0;

    /**
     * Lateral margin of package/heat-sink material surrounding the
     * die on every side, metres.
     */
    double margin = 0.0;

    /** Layers ordered from the heat-sink side (top) downwards. */
    std::vector<Layer> layers;

    /**
     * Heat-transfer coefficient at the heat-sink surface (forced
     * convection with fin-area folding), W/(m^2 K), applied over the
     * whole domain.
     */
    double h_top = 0.0;

    /** Natural convection at the motherboard face, W/(m^2 K). */
    double h_bottom = 0.0;

    /** Ambient temperature, degrees C (Table 2: 40 C). */
    double ambient = 40.0;

    /** Index of the layer named @p name; fatal if absent. */
    unsigned layerIndex(const std::string &name) const;

    /** Total stack thickness in metres. */
    double totalThickness() const;
};

/**
 * The assembled finite-volume mesh: cell-centred temperatures over
 * the domain (die + margins) with per-face conductances and a power
 * (source) vector.
 */
class Mesh
{
  public:
    /**
     * Build the mesh. @p die_nx x @p die_ny cells span the die
     * window; the margin is discretized with cells of the same size.
     */
    Mesh(const StackGeometry &geom, unsigned die_nx, unsigned die_ny);

    /**
     * Attach a power map to active layer @p layer_index. The map
     * spans the die window, so its resolution must be
     * dieNx() x dieNy(). Power enters that layer's top plane.
     */
    void setLayerPower(unsigned layer_index, const PowerMap &map);

    unsigned nx() const { return _nx; }
    unsigned ny() const { return _ny; }
    unsigned dieNx() const { return _die_nx; }
    unsigned dieNy() const { return _die_ny; }
    unsigned dieI0() const { return _margin_cells_x; }
    unsigned dieJ0() const { return _margin_cells_y; }
    unsigned nzTotal() const { return _nz_total; }

    std::size_t numCells() const
    {
        return std::size_t(_nx) * _ny * _nz_total;
    }

    const StackGeometry &geometry() const { return _geom; }

    /** First global z-index of layer @p layer_index. */
    unsigned layerZBegin(unsigned layer_index) const;
    /** One past the last z-index of layer @p layer_index. */
    unsigned layerZEnd(unsigned layer_index) const;

    /** Flattened cell index. Bounds-checked under the `checked` preset. */
    std::size_t
    cellIndex(unsigned i, unsigned j, unsigned z) const
    {
        S3D_DCHECK(i < _nx && j < _ny && z < _nz_total)
            << "i=" << i << " j=" << j << " z=" << z << " nx=" << _nx
            << " ny=" << _ny << " nz=" << _nz_total;
        return (std::size_t(z) * _ny + j) * _nx + i;
    }

    /** True if lateral cell (i, j) lies within the die window. */
    bool
    inDieWindow(unsigned i, unsigned j) const
    {
        return i >= _margin_cells_x && i < _margin_cells_x + _die_nx &&
               j >= _margin_cells_y && j < _margin_cells_y + _die_ny;
    }

    /**
     * y = A x where A is the finite-volume conduction operator
     * (including convection diagonal terms). Used by the CG solver.
     */
    void applyOperator(const std::vector<double> &x,
                       std::vector<double> &y) const;

    /** y = A x restricted to the z-plane slab [z_begin, z_end). */
    void applyOperatorSlab(unsigned z_begin, unsigned z_end,
                           const double *x, double *y) const;

    /** Fused slab apply returning the partial dot Σ x[c]·(A x)[c]. */
    double applyOperatorAndDotSlab(unsigned z_begin, unsigned z_end,
                                   const double *x, double *y) const;

    /** Right-hand side: power sources + convection ambient terms. */
    const std::vector<double> &rhs() const { return _rhs; }

    /** Diagonal of the operator (Jacobi preconditioner). */
    const std::vector<double> &diagonal() const { return _diag; }

    /** Face conductances (see the member docs for indexing). */
    const std::vector<double> &faceGx() const { return _gx; }
    const std::vector<double> &faceGy() const { return _gy; }
    const std::vector<double> &faceGz() const { return _gz; }

    /**
     * Change one layer's die-window conductivity in place,
     * reassembling only the face conductances that touch the layer's
     * z-planes (the sweep-reuse fast path: a 1-cell-thick layer in a
     * 20-plane stack reassembles ~10% of the faces instead of all of
     * them). The margin conductivity, the right-hand side — including
     * any attached power maps — and all untouched faces are preserved
     * bit-for-bit; touched faces get exactly the values a fresh
     * assembly would produce.
     *
     * @return number of face conductances recomputed.
     */
    std::size_t updateLayerConductivity(unsigned layer_index,
                                        double conductivity);

    /** Per-cell heat capacity (rho c V), J/K, for transient solves. */
    double cellHeatCapacity(unsigned i, unsigned j, unsigned z) const;

  private:
    void assemble();
    void fillCellK(unsigned z_begin, unsigned z_end);
    std::size_t assembleFaces(unsigned z_begin, unsigned z_end);
    void assembleDiagonal();

    StackGeometry _geom;
    unsigned _die_nx, _die_ny;
    unsigned _margin_cells_x = 0, _margin_cells_y = 0;
    unsigned _nx, _ny;
    unsigned _nz_total = 0;
    double _dx, _dy;

    /** Per-global-z layer id, z size. */
    std::vector<unsigned> _layer_of_z;
    std::vector<double> _dz;
    std::vector<unsigned> _layer_z_begin;

    /**
     * Per-cell conductivity, cached once per assembly so face loops
     * never re-derive the layer struct or re-test the die window
     * (margin layers fill by row segment; uniform layers by plane).
     */
    std::vector<double> _cell_k;

    /** Face conductances: _gx[c] couples c and c+1 in x (0 on the
     *  last column); _gy similarly in y; _gz[c] couples c to the
     *  plane below (0 on the last plane). */
    std::vector<double> _gx, _gy, _gz;

    std::vector<double> _rhs;
    std::vector<double> _diag;
};

} // namespace thermal
} // namespace stack3d

#endif // STACK3D_THERMAL_MESH_HH
