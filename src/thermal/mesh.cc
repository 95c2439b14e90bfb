#include "mesh.hh"

#include <algorithm>
#include <cmath>

namespace stack3d {
namespace thermal {

namespace stencil {

namespace {

/** What a kernel stores per cell: (A x)[c] or rhs[c] - (A x)[c]. */
enum class Out
{
    Apply,
    Residual,
};

/** A level's operator arrays and shape, as the kernels see them. */
struct Args
{
    const double *gx, *gy, *gz, *diag, *rhs, *x;
    double *y;
    std::size_t nx, plane, y_base;
};

/**
 * Cells [c0, c1) of one row, all with the same neighbours: each flag
 * says whether that neighbour exists. Every kernel accumulates a
 * cell's terms in the same order (diag·x, up, down, left, right,
 * north, south), so a cell's value does not depend on which run
 * computed it. The flags are compile-time constants, so the loop has
 * no branches and vectorizes.
 */
template <Out O, bool Up, bool Down, bool Left, bool Right, bool North,
          bool South>
inline void
cells(const double *__restrict gx, const double *__restrict gy,
      const double *__restrict gz, const double *__restrict diag,
      const double *__restrict rhs, const double *__restrict x,
      double *__restrict y, std::size_t nx, std::size_t plane,
      std::size_t y_base, std::size_t c0, std::size_t c1)
{
    for (std::size_t c = c0; c < c1; ++c) {
        double acc = diag[c] * x[c];
        if constexpr (Up)
            acc -= gz[c - plane] * x[c - plane];
        if constexpr (Down)
            acc -= gz[c] * x[c + plane];
        if constexpr (Left)
            acc -= gx[c - 1] * x[c - 1];
        if constexpr (Right)
            acc -= gx[c] * x[c + 1];
        if constexpr (North)
            acc -= gy[c - nx] * x[c - nx];
        if constexpr (South)
            acc -= gy[c] * x[c + nx];
        if constexpr (O == Out::Residual)
            y[c - y_base] = rhs[c] - acc;
        else
            y[c - y_base] = acc;
    }
}

/**
 * cells() over Args. GCC honours __restrict on parameters, not on
 * struct members or locals; without it every cell loop is versioned
 * behind runtime overlap checks of y against each input, and the
 * residual ran about 20 % slower on a 153×146×20 level.
 */
template <Out O, bool Up, bool Down, bool Left, bool Right, bool North,
          bool South>
inline void
cellRun(const Args &a, std::size_t c0, std::size_t c1)
{
    cells<O, Up, Down, Left, Right, North, South>(
        a.gx, a.gy, a.gz, a.diag, a.rhs, a.x, a.y, a.nx, a.plane,
        a.y_base, c0, c1);
}

/** One row starting at cell @p r: the two end cells are peeled. */
template <Out O, bool Up, bool Down, bool North, bool South>
inline void
row(const Args &a, std::size_t r)
{
    if (a.nx == 1) {
        cellRun<O, Up, Down, false, false, North, South>(a, r, r + 1);
        return;
    }
    cellRun<O, Up, Down, false, true, North, South>(a, r, r + 1);
    cellRun<O, Up, Down, true, true, North, South>(a, r + 1,
                                                    r + a.nx - 1);
    cellRun<O, Up, Down, true, false, North, South>(a, r + a.nx - 1,
                                                     r + a.nx);
}

/** One z-plane: the first and last rows are peeled. */
template <Out O, bool Up, bool Down>
void
plane(const Args &a, std::size_t ny, unsigned z)
{
    const std::size_t p = std::size_t(z) * a.plane;
    if (ny == 1) {
        row<O, Up, Down, false, false>(a, p);
        return;
    }
    row<O, Up, Down, false, true>(a, p);
    for (std::size_t j = 1; j + 1 < ny; ++j)
        row<O, Up, Down, true, true>(a, p + j * a.nx);
    row<O, Up, Down, true, false>(a, p + (ny - 1) * a.nx);
}

template <Out O>
void
slab(const double *gx, const double *gy, const double *gz,
     const double *diag, const double *rhs, const double *x, double *y,
     unsigned nx, unsigned ny, unsigned nz, unsigned z_begin,
     unsigned z_end)
{
    const std::size_t pl = std::size_t(nx) * ny;
    const Args a{gx, gy, gz, diag, rhs, x, y, nx, pl, z_begin * pl};
    for (unsigned z = z_begin; z < z_end; ++z) {
        const bool up = z > 0, down = z + 1 < nz;
        if (up && down)
            plane<O, true, true>(a, ny, z);
        else if (up)
            plane<O, true, false>(a, ny, z);
        else if (down)
            plane<O, false, true>(a, ny, z);
        else
            plane<O, false, false>(a, ny, z);
    }
}

} // anonymous namespace

void
apply(const double *gx, const double *gy, const double *gz,
      const double *diag, const double *x, double *y, unsigned nx,
      unsigned ny, unsigned nz, unsigned z_begin, unsigned z_end)
{
    slab<Out::Apply>(gx, gy, gz, diag, nullptr, x, y, nx, ny, nz,
                     z_begin, z_end);
}

double
applyDot(const double *gx, const double *gy, const double *gz,
         const double *diag, const double *x, double *y, unsigned nx,
         unsigned ny, unsigned nz, unsigned z_begin, unsigned z_end)
{
    apply(gx, gy, gz, diag, x, y, nx, ny, nz, z_begin, z_end);
    const std::size_t pl = std::size_t(nx) * ny;
    const double *xs = x + z_begin * pl;
    const std::size_t n = (z_end - z_begin) * pl;
    double dot = 0.0;
    for (std::size_t c = 0; c < n; ++c)
        dot += xs[c] * y[c];
    return dot;
}

void
residual(const double *gx, const double *gy, const double *gz,
         const double *diag, const double *rhs, const double *x,
         double *y, unsigned nx, unsigned ny, unsigned nz,
         unsigned z_begin, unsigned z_end)
{
    slab<Out::Residual>(gx, gy, gz, diag, rhs, x, y, nx, ny, nz,
                        z_begin, z_end);
}

} // namespace stencil

unsigned
StackGeometry::layerIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (layers[i].name == name)
            return unsigned(i);
    }
    stack3d_fatal("no layer named '", name, "' in stack");
}

double
StackGeometry::totalThickness() const
{
    double total = 0.0;
    for (const Layer &layer : layers)
        total += layer.thickness;
    return total;
}

Mesh::Mesh(const StackGeometry &geom, unsigned die_nx, unsigned die_ny)
    : _geom(geom), _die_nx(die_nx), _die_ny(die_ny)
{
    if (die_nx == 0 || die_ny == 0)
        stack3d_fatal("mesh needs a non-empty lateral grid");
    if (geom.layers.empty())
        stack3d_fatal("stack has no layers");
    if (geom.width <= 0.0 || geom.height <= 0.0)
        stack3d_fatal("stack has non-positive die extent");
    if (geom.margin < 0.0)
        stack3d_fatal("stack margin must be non-negative");
    for (const Layer &layer : geom.layers) {
        if (layer.thickness <= 0.0 || layer.conductivity <= 0.0 ||
            layer.nz == 0) {
            stack3d_fatal("layer '", layer.name,
                          "' has non-positive thickness, conductivity, "
                          "or cell count");
        }
    }

    _dx = geom.width / die_nx;
    _dy = geom.height / die_ny;
    _margin_cells_x = unsigned(std::lround(geom.margin / _dx));
    _margin_cells_y = unsigned(std::lround(geom.margin / _dy));
    _nx = die_nx + 2 * _margin_cells_x;
    _ny = die_ny + 2 * _margin_cells_y;

    for (std::size_t l = 0; l < geom.layers.size(); ++l) {
        const Layer &layer = geom.layers[l];
        _layer_z_begin.push_back(_nz_total);
        for (unsigned z = 0; z < layer.nz; ++z) {
            _dz.push_back(layer.thickness / layer.nz);
            _layer_of_z.push_back(unsigned(l));
        }
        _nz_total += layer.nz;
    }

    assemble();
}

unsigned
Mesh::layerZBegin(unsigned layer_index) const
{
    stack3d_assert(layer_index < _geom.layers.size(), "layer index");
    return _layer_z_begin[layer_index];
}

unsigned
Mesh::layerZEnd(unsigned layer_index) const
{
    stack3d_assert(layer_index < _geom.layers.size(), "layer index");
    return _layer_z_begin[layer_index] + _geom.layers[layer_index].nz;
}

void
Mesh::fillCellK(unsigned z_begin, unsigned z_end)
{
    std::size_t plane = std::size_t(_nx) * _ny;
    for (unsigned z = z_begin; z < z_end; ++z) {
        const Layer &layer = _geom.layers[_layer_of_z[z]];
        double *k = _cell_k.data() + std::size_t(z) * plane;
        bool has_margin = layer.margin_conductivity > 0.0 &&
                          (_margin_cells_x > 0 || _margin_cells_y > 0);
        if (!has_margin) {
            std::fill(k, k + plane, layer.conductivity);
            continue;
        }
        // Margin layers fill by row segment: rows outside the die
        // window are all margin material; rows inside split into
        // margin / die / margin runs.
        unsigned j0 = _margin_cells_y, j1 = _margin_cells_y + _die_ny;
        unsigned i0 = _margin_cells_x, i1 = _margin_cells_x + _die_nx;
        for (unsigned j = 0; j < _ny; ++j) {
            double *row = k + std::size_t(j) * _nx;
            if (j < j0 || j >= j1) {
                std::fill(row, row + _nx, layer.margin_conductivity);
                continue;
            }
            std::fill(row, row + i0, layer.margin_conductivity);
            std::fill(row + i0, row + i1, layer.conductivity);
            std::fill(row + i1, row + _nx, layer.margin_conductivity);
        }
    }
}

std::size_t
Mesh::assembleFaces(unsigned z_begin, unsigned z_end)
{
    double cell_area = _dx * _dy;
    std::size_t plane = std::size_t(_nx) * _ny;
    std::size_t faces = 0;

    // Face conductances from harmonic means of the two cell halves.
    for (unsigned z = z_begin; z < z_end; ++z) {
        double dz = _dz[z];
        for (unsigned j = 0; j < _ny; ++j) {
            std::size_t row = cellIndex(0, j, z);
            for (unsigned i = 0; i < _nx; ++i) {
                std::size_t c = row + i;
                double k0 = _cell_k[c];
                if (i + 1 < _nx) {
                    double r = _dx / (2.0 * k0) +
                               _dx / (2.0 * _cell_k[c + 1]);
                    _gx[c] = (_dy * dz) / r;
                    ++faces;
                }
                if (j + 1 < _ny) {
                    double r = _dy / (2.0 * k0) +
                               _dy / (2.0 * _cell_k[c + _nx]);
                    _gy[c] = (_dx * dz) / r;
                    ++faces;
                }
                if (z + 1 < _nz_total) {
                    double r = dz / (2.0 * k0) +
                               _dz[z + 1] /
                                   (2.0 * _cell_k[c + plane]);
                    _gz[c] = cell_area / r;
                    ++faces;
                }
            }
        }
    }
    return faces;
}

void
Mesh::assembleDiagonal()
{
    double cell_area = _dx * _dy;
    double g_top = _geom.h_top * cell_area;
    double g_bottom = _geom.h_bottom * cell_area;
    std::size_t plane = std::size_t(_nx) * _ny;

    for (unsigned z = 0; z < _nz_total; ++z) {
        for (unsigned j = 0; j < _ny; ++j) {
            std::size_t row = cellIndex(0, j, z);
            for (unsigned i = 0; i < _nx; ++i) {
                std::size_t c = row + i;
                double d = 0.0;
                d += z == 0 ? g_top : _gz[c - plane];
                d += z + 1 < _nz_total ? _gz[c] : g_bottom;
                if (i > 0)
                    d += _gx[c - 1];
                if (i + 1 < _nx)
                    d += _gx[c];
                if (j > 0)
                    d += _gy[c - _nx];
                if (j + 1 < _ny)
                    d += _gy[c];
                _diag[c] = d;
            }
        }
    }
}

void
Mesh::assemble()
{
    std::size_t n = numCells();
    _cell_k.assign(n, 0.0);
    _gx.assign(n, 0.0);
    _gy.assign(n, 0.0);
    _gz.assign(n, 0.0);
    _rhs.assign(n, 0.0);
    _diag.assign(n, 0.0);

    fillCellK(0, _nz_total);
    assembleFaces(0, _nz_total);
    assembleDiagonal();

    // Convection ambient terms; setLayerPower adds sources on top.
    double cell_area = _dx * _dy;
    double g_top = _geom.h_top * cell_area;
    double g_bottom = _geom.h_bottom * cell_area;
    std::size_t plane = std::size_t(_nx) * _ny;
    for (std::size_t c = 0; c < plane; ++c)
        _rhs[c] += g_top * _geom.ambient;
    for (std::size_t c = n - plane; c < n; ++c)
        _rhs[c] += g_bottom * _geom.ambient;
}

std::size_t
Mesh::updateLayerConductivity(unsigned layer_index, double conductivity)
{
    stack3d_assert(layer_index < _geom.layers.size(),
                   "layer index out of range");
    if (conductivity <= 0.0)
        stack3d_fatal("layer conductivity must be positive");
    Layer &layer = _geom.layers[layer_index];
    if (layer.conductivity == conductivity)
        return 0;
    layer.conductivity = conductivity;

    unsigned z0 = layerZBegin(layer_index);
    unsigned z1 = layerZEnd(layer_index);
    fillCellK(z0, z1);
    // gz faces at plane z-1 reach into this layer, so reassemble one
    // plane above as well; its gx/gy recompute to identical values.
    std::size_t faces = assembleFaces(z0 > 0 ? z0 - 1 : 0, z1);
    assembleDiagonal();
    return faces;
}

double
Mesh::cellHeatCapacity(unsigned i, unsigned j, unsigned z) const
{
    (void)i;
    (void)j;
    const Layer &layer =
        _geom.layers[_layer_of_z[S3D_BOUNDS(z, _layer_of_z.size())]];
    return layer.volumetric_heat_capacity * _dx * _dy * _dz[z];
}

void
Mesh::setLayerPower(unsigned layer_index, const PowerMap &map)
{
    stack3d_assert(layer_index < _geom.layers.size(),
                   "layer index out of range");
    if (!_geom.layers[layer_index].is_active) {
        stack3d_fatal("layer '", _geom.layers[layer_index].name,
                      "' is not an active (power) layer");
    }
    if (map.nx() != _die_nx || map.ny() != _die_ny) {
        stack3d_fatal("power map resolution ", map.nx(), "x", map.ny(),
                      " does not match the die window ", _die_nx, "x",
                      _die_ny);
    }
    unsigned z = layerZBegin(layer_index);
    for (unsigned j = 0; j < _die_ny; ++j) {
        for (unsigned i = 0; i < _die_nx; ++i) {
            std::size_t c = cellIndex(i + _margin_cells_x,
                                      j + _margin_cells_y, z);
            _rhs[c] += map.cell(i, j);
        }
    }
}

void
Mesh::applyOperator(const std::vector<double> &x,
                    std::vector<double> &y) const
{
    stack3d_assert(x.size() == numCells(), "operator input size");
    y.resize(numCells());
    applyOperatorSlab(0, _nz_total, x.data(), y.data());
}

void
Mesh::applyOperatorSlab(unsigned z_begin, unsigned z_end,
                        const double *x, double *y) const
{
    const std::size_t slab = std::size_t(z_begin) * _nx * _ny;
    stencil::apply(_gx.data(), _gy.data(), _gz.data(), _diag.data(),
                   x, y + slab, _nx, _ny, _nz_total, z_begin, z_end);
}

double
Mesh::applyOperatorAndDotSlab(unsigned z_begin, unsigned z_end,
                              const double *x, double *y) const
{
    const std::size_t slab = std::size_t(z_begin) * _nx * _ny;
    return stencil::applyDot(_gx.data(), _gy.data(), _gz.data(),
                             _diag.data(), x, y + slab, _nx, _ny,
                             _nz_total, z_begin, z_end);
}

} // namespace thermal
} // namespace stack3d
