"""Sampled maps on the unit disc and their derivative semi-norm fields.

The disc is discretized by an n x n cell grid on [-1, 1]^2 (spacing h = 2/n,
midpoint quadrature with weight h^2 per cell).  Map values live on every cell
whose center lies in the open disc; derivative semi-norms are estimated on
the interior cells (margin 2.5h from the boundary: the stencil radius h plus
sqrt(2) h for the bilinear support) so that all finite difference stencils
stay inside the sampled region.  Integrals extend the interior integrand by
nearest interior cell to the other disc cells; this keeps constant integrands
exact and the domain area at its lattice value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from . import seminorm as sn
from .beltrami import wirtinger_to_mat
from .errors import InputFormatError, InputOutOfRange, StencilOutOfDomain
from .seminorm import SemiNorm2, half_circle_directions

QUADRATIC_STENCIL_DIRECTIONS = 8    # directions of the derivative stencil, for every target
WRITE_ROWS = 1 << 10        # rows formatted per block by write_cells


@dataclass(frozen=True)
class DiscGrid:
    """Cell grid on [-1,1]^2 masked to the unit disc; disc cells read their
    nearest interior cell (extension_indices), found from the interior mask
    alone."""

    n: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("need at least 16 cells per axis")

    @property
    def h(self):
        return 2.0 / self.n

    @property
    def margin(self):
        """Unit stencil radius h plus sqrt(2) h for the bilinear support."""
        return 2.5 * self.h

    @property
    def centers(self):
        return lattice.centers(-1.0, self.h, self.n)

    def nearest_cell(self, x, y):
        """(i, j) of the cells whose centers are nearest to the points (x, y),
        clipped to the grid."""
        return lattice.nearest(x, -1.0, self.h, self.n), lattice.nearest(y, -1.0, self.h, self.n)

    def _cached(self, key, make):
        """The arrays make() returns, built once per grid and made read-only:
        the file loaders share one grid per n (_shared_grid)."""
        if key not in self._cache:
            value = make()
            for a in value if isinstance(value, tuple) else (value,):
                a.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    def _grids(self):
        def make():
            x, y = np.meshgrid(self.centers, self.centers, indexing="ij")
            return x, y, np.hypot(x, y)
        return self._cached("xy", make)

    @property
    def x(self):
        return self._grids()[0]

    @property
    def y(self):
        return self._grids()[1]

    @property
    def radius(self):
        return self._grids()[2]

    @property
    def disc_mask(self):
        """Cells whose center lies in the open unit disc (map values live here)."""
        return self._cached("disc", lambda: self.radius < 1.0)

    @property
    def interior_mask(self):
        """Cells with |z| < 1 - margin (derivative stencils stay in the disc)."""
        return self._cached("interior", lambda: self.radius < 1.0 - self.margin)

    @property
    def weight(self):
        return self.h * self.h

    def extension_indices(self):
        """For every disc cell, the (i, j) index of the nearest interior cell,
        ties to the least column, then row, as an exact Euclidean distance
        transform chooses; every other cell maps to itself.

        In index units a disc cell lies at radius rho < n/2, and interior
        cells at rho < n/2 - margin / h.  The cell holding the point of radius
        n/2 - margin / h - sqrt(2)/2 on its ray is interior, within
        rho - n/2 + margin / h + sqrt(2) < 3.92 cells, so the offsets with
        d^2 <= 15, in (d^2, column, row) order, find it."""
        def make():
            n, mask = self.n, self.interior_mask
            reach = self.margin / self.h + math.sqrt(2.0)
            w = int(reach)          # the window's half-width; the mask is padded by it
            di, dj = np.indices((2 * w + 1, 2 * w + 1)).reshape(2, -1) - w
            d2 = di * di + dj * dj
            window = np.lexsort((di, dj, d2))[:np.count_nonzero(d2 <= reach * reach)]
            di, dj, m = di[window], dj[window], n + 2 * w
            i, j = np.nonzero(~mask & self.disc_mask)
            # one flat gather: far cheaper than a gather by two index arrays
            hit = np.pad(mask, w).ravel()[((i + w) * m + j + w)[:, None] + (di * m + dj)]
            first = np.argmax(hit, axis=1)
            ei, ej = np.indices((n, n))
            ei[i, j], ej[i, j] = i + di[first], j + dj[first]
            return ei, ej
        return self._cached("ext", make)

    def extend(self, arr):
        """Nearest-interior extension of a per-cell array onto the disc cells;
        every other cell keeps its own value."""
        ei, ej = self.extension_indices()
        return arr[ei, ej]

    def box_cells(self, arr):
        """The disc cells' block of an array over a solver box that pads this
        grid by o = (N - n) // 2 whole cells per side, N the box's nodes per
        axis: box node k sits on disc cell k - o.  The pipeline's box takes
        o = reparam.solver_padding(n); any other whole-cell padding reads the
        same block."""
        o = (arr.shape[0] - self.n) // 2
        return arr[o : o + self.n, o : o + self.n]

    def integrate(self, density):
        """Midpoint quadrature of a per-cell density over the disc."""
        return float(np.sum(density[self.disc_mask]) * self.weight)


@dataclass(frozen=True, eq=False)
class TargetSpace:
    """Normed target R^d: Euclidean, quadratic-form, or polygonal gauge on R^2."""

    kind: str
    d: int
    gram: np.ndarray | None = None       # quadratic kind
    gauge: np.ndarray | None = None      # polygonal kind, sampled values
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"target dimension must be at least 1, got {self.d}")

    @staticmethod
    def euclidean(d=2):
        return TargetSpace(kind="euclidean", d=int(d))

    @staticmethod
    def quadratic(gram):
        gram = np.asarray(gram, dtype=float)
        if not np.all(np.isfinite(gram)):
            raise ValueError("Gram matrix must be finite")
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.allclose(gram, gram.T, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        if np.linalg.eigvalsh(gram).min() < -1e-12:
            raise ValueError("Gram matrix must be positive semi-definite")
        gram.setflags(write=False)
        return TargetSpace(kind="quadratic", d=gram.shape[0], gram=gram)

    @staticmethod
    def polygonal(gauge_values):
        s = SemiNorm2.sampled(gauge_values)
        if not s.is_convex():       # degenerate balls are unbounded, so not convex
            raise ValueError("polygonal gauge must be a norm")
        return TargetSpace(kind="polygonal", d=2, gauge=s.values)

    @staticmethod
    def linf(m=sn.DEFAULT_SAMPLES):
        dirs = half_circle_directions(m)
        return TargetSpace.polygonal(np.abs(dirs).max(axis=1))

    @staticmethod
    def l1(m=sn.DEFAULT_SAMPLES):
        dirs = half_circle_directions(m)
        return TargetSpace.polygonal(np.abs(dirs).sum(axis=1))

    def _gauge_norm(self):
        if "norm" not in self._cache:
            self._cache["norm"] = SemiNorm2.sampled(self.gauge)
        return self._cache["norm"]

    def distance(self, xs, ys):
        """Metric distance between row-stacked points (vectorized)."""
        diff = np.atleast_2d(np.asarray(xs, dtype=float) - np.asarray(ys, dtype=float))
        if self.kind == "euclidean":
            d = diff.shape[-1]
            if d >= 8:
                return np.linalg.norm(diff, axis=-1)
            # np.linalg.norm squares the block and sums its last axis; under 8
            # terms numpy adds them in order, so summing the squared
            # coordinates one by one gives its bits without its strided reduce
            sq = diff * diff
            out = sq[..., 0].copy()
            for k in range(1, d):
                out += sq[..., k]
            return np.sqrt(out, out=out)
        if self.kind == "quadratic":
            return np.sqrt(np.maximum(
                np.einsum("...i,ij,...j->...", diff, self.gram, diff), 0.0))
        return self._gauge_norm()(diff)

    def descriptor(self):
        if self.kind == "euclidean":
            return f"euclidean {self.d}"
        if self.kind == "quadratic":
            entries = " ".join(format(v, ".17g") for v in self.gram.ravel())
            return f"quadratic {self.d} {entries}"
        entries = " ".join(format(v, ".17g") for v in self.gauge)
        return f"polygonal {self.gauge.size} {entries}"

    @staticmethod
    def from_descriptor(tokens):
        if isinstance(tokens, str):
            tokens = tokens.split()
        if len(tokens) < 2:
            raise InputFormatError(f"target descriptor needs a kind and a size: {tokens!r}")
        tag = tokens[0]
        if tag == "euclidean":
            return TargetSpace.euclidean(int(tokens[1]))
        if tag == "quadratic":
            d = int(tokens[1])
            vals = [float(t) for t in tokens[2:]]
            if len(vals) != d * d:
                raise InputFormatError("quadratic descriptor needs d*d entries")
            return TargetSpace.quadratic(np.array(vals).reshape(d, d))
        if tag == "polygonal":
            m = int(tokens[1])
            vals = [float(t) for t in tokens[2:]]
            if len(vals) != m:
                raise InputFormatError("polygonal descriptor needs m entries")
            return TargetSpace.polygonal(vals)
        raise InputFormatError(f"unknown target kind {tag!r}")


@dataclass(frozen=True, eq=False)
class SampledMap:
    """Map values on the disc cells of a grid, into a normed target."""

    grid: DiscGrid
    target: TargetSpace
    values: np.ndarray          # (n, n, d), finite on grid.disc_mask

    def __post_init__(self):
        # C order, so that the flat (n * n, d) view of a cell stencil is no copy
        v = np.ascontiguousarray(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n, self.grid.n, self.target.d):
            raise ValueError("value array shape does not match grid/target")
        if not np.all(np.isfinite(v[self.grid.disc_mask])):
            raise ValueError("map values must be finite on all disc cells")

    @staticmethod
    def from_function(grid, target, fn):
        """Evaluate fn(x, y) -> R^d on all cell centers (vectorized)."""
        out = np.asarray(fn(grid.x, grid.y), dtype=float)
        if out.shape[0] == target.d:
            out = np.moveaxis(out, 0, -1)
        return SampledMap(grid=grid, target=target, values=out)

    def sample(self, pts):
        """Bilinear interpolation of the map at points inside the disc."""
        t = (np.atleast_2d(pts) + 1.0) / self.grid.h - 0.5     # cell edge at -1
        return lattice.bilinear(self.values, t[:, 0], t[:, 1])

    # -- text format: header "n d target...", then "i j x1 ... xd" -----------

    def save(self, path):
        mask = self.grid.disc_mask
        write_cells(path, f"{self.grid.n} {self.target.d} {self.target.descriptor()}",
                    "%d %d" + " %.17g" * self.target.d, mask, self.values[mask])

    @staticmethod
    def load(path):
        header, body = _read_cell_file(path)
        if len(header) < 3:
            raise InputFormatError("map file header needs n, d, target descriptor")
        n, d = int(header[0]), int(header[1])
        target = TargetSpace.from_descriptor(header[2:])
        if target.d != d:
            raise InputFormatError("target dimension disagrees with header")
        grid = _file_grid(n, body, "disc")
        values = _cell_records(body, grid.disc_mask, "disc", (), d, np.nan)
        return SampledMap(grid=grid, target=target, values=values)


# -- cell files: a header line, then one "i j <record>" line per cell -----------

def write_cells(path, header, fmt, mask, *columns):
    """Write a cell file or a CSV grid: the header line, then fmt % (i, j, ...)
    per cell (i, j) of mask in np.nonzero order; columns hold one entry, or one
    row of entries, per cell of mask.  A block of WRITE_ROWS lines is one %
    of the repeated line format over the block's entries, interleaved row by
    row as Python numbers (ints stay ints), so the text in memory stays
    bounded on large grids."""
    ii, jj = np.nonzero(mask)
    cols = [ii, jj] + [c for col in columns for c in np.atleast_2d(np.asarray(col).T)]
    line, width = fmt + "\n", len(cols)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(ii), WRITE_ROWS):
            rows = min(WRITE_ROWS, len(ii) - start)
            flat = [None] * (rows * width)
            for k, c in enumerate(cols):
                flat[k::width] = c[start:start + rows].tolist()
            fh.write(line * rows % tuple(flat))


def _read_cell_file(path):
    with open(path) as fh:
        return fh.readline().split(), fh.read()


@functools.lru_cache(maxsize=4)
def _shared_grid(n):
    """One DiscGrid per n for the file loaders, so that the maps and fields
    of one n share its geometry; its cached arrays are read-only."""
    return DiscGrid(n)


def _file_grid(n, body, what):
    """DiscGrid(n) of a cell file whose body names each of its what cells (disc
    or interior) on a line.  Both kinds hold more than n^2 / 4 of the n x n cells
    at n >= 16, so a shorter body is refused before the grid's masks are built."""
    grid, lines, need = _shared_grid(n), body.count("\n") + 1, n * n // 4
    if lines < need:
        raise InputFormatError(f"at least {need - lines} {what} cells missing from file "
                               f"({lines} lines for the {n} x {n} grid)")
    return grid


def _cell_records(body, mask, what, lead, width, fill, check_line=lambda parts: None):
    """(n, n, width) floats of the "i j <lead> v1 ... v_width" lines of a cell
    file body, fill where no line names the cell, parsed in one batch ("#"
    starts no comment); lead holds the (dtype, value) of each token between
    index and floats.  InputFormatError for a cell outside the grid or named
    twice, or for cells of mask that no line names (their measure would drop).
    Only a failed parse or lead token makes check_line(tokens) and the width
    test scan the lines to name the bad one; if none is, the parse error stands."""
    lines = body.split("\n")
    dtype = np.dtype([("ij", np.intp, (2,))] + [(f"t{k}", t) for k, (t, _) in enumerate(lead)]
                     + [("row", float, (width,))])
    try:
        rec = (np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1) if body.strip()
               else np.empty(0, dtype))
        for k, (_, value) in enumerate(lead):
            if np.any(rec[f"t{k}"] != value):
                raise ValueError(f"a record does not carry {value!r}")
    except ValueError:
        for parts in filter(None, map(str.split, lines)):
            check_line(parts)
            if len(parts) != 2 + len(lead) + width:
                raise InputFormatError(f"record {' '.join(parts)!r} has "
                                       f"{len(parts) - 2 - len(lead)} values, not {width}")
        raise
    n = mask.shape[0]
    i, j = rec["ij"].T
    outside = (i < 0) | (i >= n) | (j < 0) | (j >= n)
    flat = np.where(outside, -1, i * n + j)
    repeat = np.ones(flat.size, dtype=bool)
    repeat[np.unique(flat, return_index=True)[1]] = False
    bad = np.flatnonzero(outside | repeat)
    if bad.size:
        k = bad[0]
        raise InputFormatError(f"cell ({i[k]}, {j[k]}) " + (
            f"outside the {n} x {n} grid" if outside[k] else "appears twice"))
    missing = np.count_nonzero(mask) - np.count_nonzero(mask.ravel()[flat])
    if missing:
        raise InputFormatError(f"{missing} {what} cells missing from file")
    out = np.full((n * n, width), fill)
    out[flat] = rec["row"]
    return out.reshape(n, n, width)


@dataclass(frozen=True, eq=False)
class DerivativeField:
    """Estimated derivative semi-norms of a map, one per interior cell.

    Stored as the packed rows the stencil found, (q11, q12, q22) per interior
    cell or m gauge values per distinct row, and each cell's row number,
    extended by nearest interior cell to the disc cells.  A density is a
    seminorm row_* function of the rows, gathered by the index.
    """

    grid: DiscGrid
    kind: str                       # "quadratic" | "sampled"
    rows: np.ndarray                # (R, 3 or m) packed rows
    index: np.ndarray               # (n, n) row of each cell, extended; 0 off the disc
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_interior(grid, kind, rows, inv):
        """The field whose interior cells, in np.nonzero order, carry rows[inv];
        cells off the disc hold row 0, on which no result depends."""
        index = np.zeros((grid.n, grid.n), dtype=np.intp)
        index[grid.interior_mask] = inv
        return DerivativeField(grid=grid, kind=kind, rows=rows, index=grid.extend(index))

    @property
    def interior_mask(self):
        return self.grid.interior_mask

    def seminorm_at(self, i, j):
        """SemiNorm2 of the cell (nearest-interior extension applied);
        IndexError for a cell off the disc, which is not extended."""
        if not self.grid.disc_mask[i, j]:
            raise IndexError(f"cell ({i}, {j}) lies off the disc")
        return SemiNorm2.from_row(self.kind, self.rows[self.index[i, j]])

    # per-cell (n, n, k) views read by bench/spans.py (on interior cells only);
    # cells off the disc hold row 0.  ROADMAP item 1 deletes them
    quad = property(lambda self: self.rows[self.index] if self.kind == "quadratic" else None)
    samp = property(lambda self: self.rows[self.index] if self.kind == "sampled" else None)

    # -- densities ------------------------------------------------------------

    def _edges(self):
        """Edge rows (R, m, 2) of the sampled rows' ball polygons, built once."""
        if "edges" not in self._cache:
            self._cache["edges"] = sn.half_edges(self.rows)
        return self._cache["edges"]

    def _energy_rows(self):
        """I_+^2 per row, computed once per field."""
        if "energy" not in self._cache:
            self._cache["energy"] = (sn.edge_energy(self._edges()) if self.kind == "sampled"
                                     else sn.row_energy(self.kind, self.rows))
        return self._cache["energy"]

    def energy_density(self):
        """I_+^2 of the cell semi-norm, per cell (extended), computed once per field."""
        return self._energy_rows()[self.index]

    def _ellipse_rows(self, delta):
        """Packed M per row (see ellipse_field): solved once at delta = 0, and
        built from those ellipses and the energies at delta > 0.  The field
        holds the rows of the last delta > 0 asked for: a delta search asks for
        many, and the pipeline then reads the one it returned."""
        key = "regularized" if delta else "ellipses"
        held = self._cache.get(key)
        if held is None or held[0] != delta:
            held = self._cache[key] = (delta, (
                sn.ellipse_rows(self.kind, sn.row_regularized(self.kind, self.rows, delta),
                                delta, self._ellipse_rows(0.0), self._energy_rows())
                if delta else sn.ellipse_rows(self.kind, self.rows)))
        return held[1]

    def ellipse_field(self, delta=0.0):
        """Packed M of the ellipse {v : v.Mv <= 1} in the ball of the (optionally
        delta-regularized) cell semi-norm, per cell (extended): the inscribed one
        at delta = 0, with M = 0 where the semi-norm is degenerate (see
        seminorm.ellipse_rows)."""
        return self._ellipse_rows(delta)[self.index]

    def jacobian_intrinsic_density(self, delta=0.0):
        """Inscribed-ellipse jacobian of the (optionally regularized) semi-norm."""
        return sn.ellipse_jacobian(self._ellipse_rows(delta))[self.index]

    def jacobian_hausdorff_density(self):
        """Unit-ball-area jacobian per cell (extended)."""
        return sn.row_ball_jacobian(self.kind, self.rows)[self.index]

    def isotropy_defect_density(self):
        return self.energy_density() - self.jacobian_intrinsic_density()

    def beltrami_density(self, delta):
        """Beltrami coefficient of the delta-regularized cell semi-norm, per
        cell (extended), computed once per delta."""
        key = ("beltrami", delta)
        if key not in self._cache:
            self._cache[key] = sn.ellipse_beltrami(self._ellipse_rows(delta))
        return self._cache[key][self.index]

    # -- serialization --------------------------------------------------------

    def save(self, path):
        mask = self.interior_mask
        write_cells(path, f"{self.grid.n} {self.kind}",
                    "%d %d " + sn.record_format(self.kind, self.rows.shape[1]),
                    mask, self.rows[self.index[mask]])

    @staticmethod
    def load(path):
        header, body = _read_cell_file(path)
        if len(header) != 2 or header[1] not in ("quadratic", "sampled"):
            raise InputFormatError("bad derivative-field header")
        n, kind = int(header[0]), header[1]
        grid = _file_grid(n, body, "interior")
        if kind == "quadratic":
            width, lead = 3, (("U2", "Q"),)
        else:       # the first record's size
            width = max(len(body.lstrip().split("\n", 1)[0].split()) - 4, 0)
            lead = (("U2", "S"), (np.intp, width))

        def check_line(parts):
            if SemiNorm2.from_record(" ".join(parts[2:])).kind != kind:
                raise InputFormatError("mixed representations in field file")

        packed = _cell_records(body, grid.interior_mask, "interior", lead, width, 0.0,
                               check_line)
        sn.check_rows(kind, packed)
        return DerivativeField.from_interior(grid, kind,
                                             *distinct_rows(packed[grid.interior_mask]))


# -- derivative estimation -----------------------------------------------------

# the stencil's unit directions, and the least-squares pseudo-inverses that fit
# Du (polygonal targets) and (q11, q12, q22) of g^2 (the others) to them
_ANGLES = np.arange(QUADRATIC_STENCIL_DIRECTIONS) * (2.0 * np.pi / QUADRATIC_STENCIL_DIRECTIONS)
_STENCIL = np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])
_STENCIL_PINV = np.linalg.pinv(_STENCIL)
_FIT_PINV = np.linalg.pinv(np.column_stack([_STENCIL[:, 0] ** 2, 2 * _STENCIL[:, 0] * _STENCIL[:, 1],
                                            _STENCIL[:, 1] ** 2]))


def estimate_derivative(u, i, j):
    """Derivative semi-norm of u at one cell, as estimate_field finds it.

    Raises StencilOutOfDomain off the grid's interior_mask, the cells whose
    stencils estimate_field evaluates; other cells read an extension.
    """
    if not (0 <= i < u.grid.n and 0 <= j < u.grid.n and u.grid.interior_mask[i, j]):
        raise StencilOutOfDomain(f"cell ({i}, {j}) is not interior: its stencil leaves the disc")
    kind, rows, inv = _estimate_rows(u, np.array([i]), np.array([j]))
    return SemiNorm2.from_row(kind, rows[inv[0]])


def estimate_field(u):
    """Derivative semi-norms on all interior cells (vectorized)."""
    ii, jj = np.nonzero(u.grid.interior_mask)
    return DerivativeField.from_interior(u.grid, *_estimate_rows(u, ii, jj))


def _estimate_rows(u, ii, jj):
    """(kind, rows, inv): cell k of (ii, jj) carries the packed row rows[inv[k]].

    The stencil takes the differences D_v = u(z + h v) - u(z) at the 8 unit
    directions v of _STENCIL, the off-center value interpolated bilinearly
    (one lattice.blend per direction).  Euclidean and quadratic targets fit
    (q11, q12, q22) to g(v)^2 = (d(D_v, 0) / h)^2 by least squares, projected
    to positive semi-definite, one row per cell.  Polygonal targets fit Du(z)
    to D_v / h by least squares, central differences that carry no O(h)
    curvature term, and a row is the target's gauge at Du d_j for the m
    half-circle directions d_j: the metric differential v -> |Du v| sampled,
    whose ball is convex by construction.  Those rows are rounded relative
    to their size, then deduplicated.
    """
    n, h = u.grid.n, u.grid.h
    flat, k = u.values.reshape(n * n, -1), ii * n + jj
    base = flat.take(k, axis=0)
    diff = np.empty((len(_STENCIL),) + base.shape)
    # overflow quiet: a non-finite row is refused by the quadratures
    with np.errstate(over="ignore", invalid="ignore"):
        for kdir, v in enumerate(_STENCIL):
            o = np.floor(v)
            diff[kdir] = lattice.blend(flat, k + int(o[0]) * n + int(o[1]), n, *(v - o)) - base
        if u.target.kind == "polygonal":
            # Du (N, 2, 2) from the pseudo-inverse of the stencil, in a fixed
            # order, then Du d_j by two explicit products per coordinate
            du = sum(diff[kdir, :, :, None] * _STENCIL_PINV[:, kdir] for kdir in range(len(_STENCIL)))
            dx, dy = half_circle_directions(u.target.gauge.size).T / h
            pts = np.stack([du[:, c, 0, None] * dx + du[:, c, 1, None] * dy for c in (0, 1)], axis=-1)
            rows = u.target.distance(pts, 0.0).reshape(len(ii), -1)
            # 12 decimals relative to the power of two 2^e <= 1.5 max(row), so
            # the rule is scale-covariant and the scaling is exact; the factor
            # keeps rows whose max is a power of two (exact laws) off the flip
            e = np.frexp(1.5 * rows.max(axis=1, keepdims=True))[1] - 1
            return "sampled", *distinct_rows(np.ldexp(np.round(np.ldexp(rows, -e), 12), e))

        g = u.target.distance(diff, 0.0) / h
        # a fixed-order sum over the directions: a matmul would round by batch
        # near the float range: a fit that overflows is refused here, and a fit
        # whose eigenvalues overflow by the energy's quadrature
        coef = finite("energy", sum(g[kdir, :, None] ** 2 * _FIT_PINV[:, kdir]
                                    for kdir in range(len(_STENCIL))))
        return "quadratic", _project_psd(coef), np.arange(len(ii))


def distinct_rows(rows):
    """Distinct rows of a 2-D float array and the inverse index: uniq[inv] == rows.

    Rows are equal when their bytes are, after -0.0 is turned into 0.0, so for
    finite rows this is the exact equality of np.unique(rows, axis=0).  The
    rows are grouped by a 64-bit multiply-sum hash of their bits, and every row
    is checked against its group's first row; on any collision the rows are
    sorted as one void item each instead.  The order of the distinct rows is
    unspecified.
    """
    rows = np.add(np.asarray(rows, dtype=float), 0.0, order="C")
    bits = rows.view(np.uint64)
    # the products and their sum wrap modulo 2^64
    _, first, inv = np.unique(bits @ _mixer(rows.shape[1]), return_index=True,
                              return_inverse=True)
    if not np.array_equal(bits.take(first, axis=0).take(inv, axis=0), bits):
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inv


@functools.cache
def _mixer(m):
    """The m odd 64-bit multipliers of distinct_rows' row hash, a fixed draw."""
    mix = np.random.default_rng(m).integers(0, 1 << 64, m, dtype=np.uint64, endpoint=False)
    mix |= np.uint64(1)
    mix.setflags(write=False)
    return mix


def _project_psd(coef):
    """Clamp negative eigenvalues of packed (q11, q12, q22) rows to zero."""
    lmin, lmax, phi = sn.packed_eig(coef)
    need = lmin < 0
    if not np.any(need):
        return coef
    out = coef.copy()
    lmaxc = np.maximum(lmax[need], 0.0)
    c, s = np.cos(phi[need]), np.sin(phi[need])
    out[need, 0] = lmaxc * c * c
    out[need, 1] = lmaxc * c * s
    out[need, 2] = lmaxc * s * s
    return out


# -- integrated quantities ------------------------------------------------------

def finite(what, value):
    """value, or InputOutOfRange where it is not finite: the map's derivative is
    too large for its what in floating point."""
    if not np.all(np.isfinite(value)):
        raise InputOutOfRange(f"the map's {what} is not finite: its derivative is too large")
    return value


def _quadrature(what, field_, density):
    """Quadrature of density() over the disc, with overflow quiet: InputOutOfRange
    where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return finite(what, field_.grid.integrate(density()))


def energy(field_):
    """Quadrature of the max-stretch-squared density over the disc."""
    return _quadrature("energy", field_, field_.energy_density)


def area_intrinsic(field_):
    """Quadrature of the inscribed-ellipse jacobian over the disc."""
    return _quadrature("area", field_, field_.jacobian_intrinsic_density)


def area_hausdorff(field_):
    """Quadrature of the unit-ball-area jacobian over the disc."""
    return _quadrature("area", field_, field_.jacobian_hausdorff_density)


def composed_energy(field_, rho):
    """Energy of u . phi, phi = rho^-1 on Omega = rho(disc), integrated over
    the disc cells by the change of variables w = rho(z):

        E(u . phi) = integral over the disc of I_+^2(s_z . Drho(z)^-1) det Drho(z) dz,

    with s_z the cell's own semi-norm and Drho read at the cell's solver node
    (DiscGrid.box_cells): rho's nodes are the disc cell centres padded by p
    whole cells per side, any p >= 0, so solver node k sits on disc cell k - p.
    The density depends on Drho only through its Beltrami coefficient, read
    as rho.node_mu: for a solved rho that of its exact node derivative, the
    solved coefficient, where central differences would straddle the
    coefficient's jump at the edge of its support.
    One quadrature, DiscGrid.integrate, measures this and the areas.  The map
    u is never resampled.  ValueError for a rho sampled on other nodes: its
    spacing must be h, and its first node p cells before the first cell centre,
    both to 1e-9 h, which admits only the rounding of the box's half-width.
    """
    grid = field_.grid
    start = grid.centers[0] - (rho.shape[0] - grid.n) // 2 * grid.h
    if not (rho.shape[0] == rho.shape[1] >= grid.n
            and abs(rho.spacing - grid.h) <= 1e-9 * grid.h
            and abs(rho.x0 - start) + abs(rho.y0 - start) <= 1e-9 * grid.h):
        raise ValueError("rho's nodes are not the disc cell centres padded by whole cells")
    disc = grid.disc_mask
    dens = np.zeros(disc.shape)
    mu = grid.box_cells(rho.node_mu)[disc]
    # the differential v -> v + mu conj(v), f_z = 1: the density is the same
    # for every differential with coefficient mu, as a similarity after it cancels
    dens[disc] = composed_density(field_, field_.index[disc], wirtinger_to_mat(1.0, mu))
    return grid.integrate(dens)


def composed_density(field_, ids, drho):
    """I_+^2(s . drho[k]^-1) det drho[k] per k, with s the field's row ids[k]:
    as drho^-1 = adj(drho) / det drho, I_+^2(s . adj(drho[k])) / det drho[k].
    For a quadratic row Q that is lmax(adj^T Q adj) / det; for a sampled row,
    max_i |adj^T c_i|^2 / det over the edge rows c_i of its ball polygon
    (seminorm.edge_energy)."""
    # adj(drho) = [[a, b], [c, d]], and det adj(drho) = det drho
    a, b = drho[:, 1, 1], -drho[:, 0, 1]
    c, d = -drho[:, 1, 0], drho[:, 0, 0]
    det = a * d - b * c
    if field_.kind == "sampled":
        adj = np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)
        return sn.edge_energy(field_._edges(), ids, adj) / det
    q11, q12, q22 = field_.rows[ids].T
    # adj^T Q adj
    r11 = a * (q11 * a + q12 * c) + c * (q12 * a + q22 * c)
    r12 = a * (q11 * b + q12 * d) + c * (q12 * b + q22 * d)
    r22 = b * (q11 * b + q12 * d) + d * (q12 * b + q22 * d)
    return sn.row_energy("quadratic", np.stack([r11, r12, r22], axis=-1)) / det
