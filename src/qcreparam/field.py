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

QUADRATIC_STENCIL_DIRECTIONS = 8
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

    def energy_density(self):
        """I_+^2 of the cell semi-norm, per cell (extended), computed once per field."""
        if "energy" not in self._cache:
            self._cache["energy"] = (sn.edge_energy(self._edges()) if self.kind == "sampled"
                                     else sn.row_energy(self.kind, self.rows))
        return self._cache["energy"][self.index]

    def _ellipse_rows(self, delta):
        """Packed M per row, solved once per delta (see ellipse_field)."""
        if delta not in self._cache:
            self._cache[delta] = sn.row_ellipse(self.kind, self.rows, delta)
        return self._cache[delta]

    def ellipse_field(self, delta=0.0):
        """Packed M of the inscribed ellipse {v : v.Mv <= 1} of the (optionally
        delta-regularized) cell semi-norm, per cell (extended); M = 0 where the
        semi-norm is degenerate (see seminorm.row_ellipse)."""
        return self._ellipse_rows(delta)[self.index]

    def jacobian_intrinsic_density(self, delta=0.0):
        """Inscribed-ellipse jacobian of the (optionally regularized) semi-norm."""
        return sn.ellipse_jacobian(self._ellipse_rows(delta))[self.index]

    def jacobian_estimate(self, delta):
        """Quadrature over the disc of sqrt(det(M0 + delta^2 I)), for the delta = 0
        ellipses M0 and without a new solve: an estimate of the quadrature of
        jacobian_intrinsic_density(delta).  {v.M0v <= 1} lies in the ball of s,
        so {v.(M0 + delta^2 I)v <= 1} lies in the ball of the regularized
        sqrt(s^2 + delta^2 |.|^2), and the estimate bounds the jacobian from
        above, up to the sampling of a polygonal ball; it falls short on
        degenerate cells, whose M0 is 0.  Summed over the rows, each weighted by
        its disc cells, as det(M0 + delta^2 I) = det M0 + delta^2 (tr M0 + delta^2)."""
        if "estimate" not in self._cache:
            m0 = self._ellipse_rows(0.0)
            cells = np.bincount(self.index[self.grid.disc_mask], minlength=len(self.rows))
            self._cache["estimate"] = (cells * self.grid.weight, sn.packed_det(m0),
                                       m0[:, 0] + m0[:, 2])
        weight, det, trace = self._cache["estimate"]
        d2 = delta * delta
        return float(np.dot(weight, np.sqrt(np.maximum(det + d2 * (trace + d2), 0.0))))

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

def _stencil_directions(target):
    mdir = 2 * target.gauge.size if target.kind == "polygonal" else QUADRATIC_STENCIL_DIRECTIONS
    ang = np.arange(mdir) * (2.0 * np.pi / mdir)
    return np.column_stack([np.cos(ang), np.sin(ang)])


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

    For each unit direction v, g(v) = d(u(z + h v), u(z)) / h with the
    off-center value interpolated bilinearly.  Euclidean and quadratic
    targets get the least-squares fit (q11, q12, q22) of g^2, projected to
    positive semi-definite, one row per cell; polygonal targets get sampled
    gauge rows, symmetrized over antipodes, rounded relative to their size,
    then deduplicated, and each distinct row convexified.

    z + h v sits at offset v from each cell's node, so the directions that
    share the lattice offset floor(v) (runs of consecutive ones: 6 runs of 128
    directions, 6 of 8) blend the same four corners of each cell, and a run
    gathers them once (lattice.corners); only one run's corners are held at a
    time.  Within a run the N cells go through the directions in blocks of
    B = floor(GAUGE_BLOCK / N) directions (at least one): a block is one
    lattice.mix with (B, 1, 1) weights and one target.distance of its B N
    points against the N base values, broadcast.  Each entry of g sees the
    same operations as a one-direction lattice.blend, so neither the runs nor
    the blocks change a bit of it.
    """
    n, h = u.grid.n, u.grid.h
    flat, k = u.values.reshape(n * n, -1), ii * n + jj
    dirs = _stencil_directions(u.target)
    base = flat.take(k, axis=0)
    o = np.floor(dirs)
    shift = o[:, 0].astype(np.intp) * n + o[:, 1].astype(np.intp)
    tx, ty = (dirs - o).T[..., None, None]
    g = np.empty((len(dirs), len(ii)))
    step = max(1, sn.GAUGE_BLOCK // len(ii))

    def run(a, z):
        # directions a .. z - 1 share one offset: their corners, gathered once,
        # go on return
        c = tuple(lattice.corners(flat, k + shift[a], n))
        for b in range(a, z, step):
            e = min(b + step, z)
            g[b:e] = u.target.distance(lattice.mix(c, tx[b:e], ty[b:e]), base).reshape(
                e - b, -1) / h

    cuts = np.flatnonzero(np.diff(shift)) + 1
    with np.errstate(over="ignore"):        # an overflowing distance is refused below
        for a, z in zip([0, *cuts], [*cuts, len(dirs)]):
            run(a, z)

    if u.target.kind == "polygonal":
        m = len(dirs) // 2
        sym = 0.5 * (g[:m] + g[m:]).T
        # 12 decimals relative to the power of two 2^e <= the row's max, so
        # the rule is scale-covariant and the scaling is exact
        e = np.frexp(sym.max(axis=1, keepdims=True))[1] - 1
        uniq, inv = distinct_rows(np.ldexp(np.round(np.ldexp(sym, -e), 12), e))
        return "sampled", _convexify_gauges(uniq), inv

    design = np.column_stack([dirs[:, 0] ** 2, 2 * dirs[:, 0] * dirs[:, 1], dirs[:, 1] ** 2])
    pinv = np.linalg.pinv(design)
    # a fixed-order sum over the directions: a matmul would round by batch
    # near the float range: a fit that overflows is refused here, and a fit
    # whose eigenvalues overflow by the energy's quadrature
    with np.errstate(over="ignore", invalid="ignore"):
        coef = finite("energy", sum(g[kdir, :, None] ** 2 * pinv[:, kdir]
                                    for kdir in range(len(dirs))))
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


def _convexify_gauges(rows):
    """Convex-hull correction of sampled gauge rows (R, m): noise can dent the
    ball.  Degenerate rows stay as measured; one batched test finds the dented
    rows, and only those get a hull.

    The vertices +-d_j / v_j of a ball polygon come sorted by angle around 0;
    the farthest (least v_j) and its antipode are hull vertices.  One Graham
    pass over the m + 1 vertices from the one to the other finds the hull
    between them, popping a vertex while its turn fails the test of
    seminorm.convex_rows; the other half mirrors it.  A kept sample keeps v_j, a
    dropped one gets c.d_j, where c.d_p = v_p and c.d_q = v_q for its kept
    neighbours p and q (the edge of seminorm.half_edges).
    """
    out = rows.copy()
    dented = np.flatnonzero(~(sn.convex_rows(rows) | sn.row_degenerate("sampled", rows)))
    m = rows.shape[1]
    pos = np.arange(m + 1)
    # chain[r, b]: vertex b of the pass on dented row r, of direction d[r, b]
    chain = (np.argmin(rows[dented], axis=1)[:, None] + pos) % (2 * m)
    dirs = half_circle_directions(m)
    d = np.concatenate([dirs, -dirs])[chain]
    v = rows[dented[:, None], chain % m]
    kept = np.zeros(chain.shape, dtype=bool)
    for r, (x, y) in enumerate(np.moveaxis(d * (1.0 / v)[..., None], -1, 1).tolist()):
        hull = [0]
        for b in range(1, m + 1):
            while len(hull) > 1:
                p, q = hull[-2], hull[-1]
                ax, ay, bx, by = x[q] - x[p], y[q] - y[p], x[b] - x[q], y[b] - y[q]
                cross = ax * by - ay * bx
                if cross >= 0 or cross >= -sn.CONVEX_TOL * max(
                        math.sqrt(ax * ax + ay * ay) * math.sqrt(bx * bx + by * by), 1e-300):
                    break
                hull.pop()
            hull.append(b)
        kept[r, hull] = True
    # each dropped vertex b lies between its kept neighbours p < b < q
    p = np.maximum.accumulate(np.where(kept, pos, 0), axis=1)
    q = np.minimum.accumulate(np.where(kept, pos, m)[:, ::-1], axis=1)[:, ::-1]
    r, b = np.nonzero(~kept)
    p, q = p[r, b], q[r, b]
    dp, dq = d[r, p], d[r, q]
    det = dp[:, 0] * dq[:, 1] - dp[:, 1] * dq[:, 0]
    cx = (v[r, p] * dq[:, 1] - v[r, q] * dp[:, 1]) / det
    cy = (v[r, q] * dp[:, 0] - v[r, p] * dq[:, 0]) / det
    out[dented[r], chain[r, b] % m] = cx * d[r, b, 0] + cy * d[r, b, 1]
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
