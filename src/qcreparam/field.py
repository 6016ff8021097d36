"""Sampled maps on the unit disc and their derivative semi-norm fields.

The disc is discretized by an n x n cell grid on [-1, 1]^2 (spacing h = 2/n,
midpoint quadrature with weight h^2 per cell).  Map values live on every cell
whose center lies in the open disc; derivative semi-norms are estimated on
the interior cells (margin 2.5h from the boundary: the stencil radius h plus
sqrt(2) h for the bilinear support) so that all finite difference stencils
stay inside the sampled region.  Integrals extend the
interior integrand to the remaining boundary cells by nearest interior cell,
which keeps constant integrands exact and the domain area at its lattice
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import lattice
from . import seminorm as sn
from .errors import ImageOutsideDomain, InputFormatError, StencilOutOfDomain
from .seminorm import SemiNorm2, half_circle_directions

QUADRATIC_STENCIL_DIRECTIONS = 8
POLYGONAL_STENCIL_DIRECTIONS = 2 * sn.DEFAULT_SAMPLES


@dataclass(frozen=True)
class DiscGrid:
    """Cell grid on [-1,1]^2 masked to the unit disc."""

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

    def _grids(self):
        if "xy" not in self._cache:
            x, y = np.meshgrid(self.centers, self.centers, indexing="ij")
            self._cache["xy"] = (x, y, np.hypot(x, y))
        return self._cache["xy"]

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
        return self.radius < 1.0

    @property
    def interior_mask(self):
        """Cells with |z| < 1 - margin (derivative stencils stay in the disc)."""
        return self.radius < 1.0 - self.margin

    @property
    def weight(self):
        return self.h * self.h

    def extension_indices(self):
        """For every cell, the (i, j) index of the nearest interior cell."""
        if "ext" not in self._cache:
            _, idx = ndimage.distance_transform_edt(
                ~self.interior_mask, return_indices=True
            )
            self._cache["ext"] = (idx[0], idx[1])
        return self._cache["ext"]

    def extend(self, arr):
        """Nearest-interior extension of a per-cell array onto all cells."""
        ei, ej = self.extension_indices()
        return arr[ei, ej]

    def integrate(self, density):
        """Midpoint quadrature of a per-cell density over the disc."""
        return float(np.sum(density[self.disc_mask]) * self.weight)


@dataclass(frozen=True)
class TargetSpace:
    """Normed target R^d: Euclidean, quadratic-form, or polygonal gauge on R^2."""

    kind: str
    d: int
    gram: np.ndarray | None = None       # quadratic kind
    gauge: np.ndarray | None = None      # polygonal kind, sampled values
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def euclidean(d=2):
        return TargetSpace(kind="euclidean", d=int(d))

    @staticmethod
    def quadratic(gram):
        gram = np.asarray(gram, dtype=float)
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
        if s.degenerate:
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
            return np.linalg.norm(diff, axis=-1)
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


@dataclass(frozen=True)
class SampledMap:
    """Map values on the disc cells of a grid, into a normed target."""

    grid: DiscGrid
    target: TargetSpace
    values: np.ndarray          # (n, n, d), finite on grid.disc_mask

    def __post_init__(self):
        v = self.values
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
        grid = DiscGrid(n)
        values = _cell_records(body, grid.disc_mask, "disc", (), d, np.nan)
        return SampledMap(grid=grid, target=target, values=values)


# -- cell files: a header line, then one "i j <record>" line per cell -----------

def write_cells(path, header, fmt, mask, *columns):
    """Write a cell file or a CSV grid: the header line, then fmt % (i, j, ...)
    per cell (i, j) of mask in np.nonzero order; columns hold one entry, or one
    row of entries, per cell of mask."""
    ii, jj = np.nonzero(mask)
    np.savetxt(path, np.column_stack((ii, jj) + columns), fmt=fmt, header=header,
               comments="")


def _read_cell_file(path):
    with open(path) as fh:
        return fh.readline().split(), fh.read()


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


@dataclass(frozen=True)
class DerivativeField:
    """Estimated derivative semi-norms of a map, one per interior cell.

    Stored as the packed rows the stencil found, (q11, q12, q22) per interior
    cell or m gauge values per distinct row, and each cell's row number,
    extended to all cells by nearest interior cell.  A density is its
    seminorm row_* function applied to the rows and gathered by the index.
    """

    grid: DiscGrid
    kind: str                       # "quadratic" | "sampled"
    rows: np.ndarray                # (R, 3 or m) packed rows
    index: np.ndarray               # (n, n) row of each cell, extended
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_interior(grid, kind, rows, inv):
        """The field whose interior cells, in np.nonzero order, carry rows[inv]."""
        index = np.zeros((grid.n, grid.n), dtype=np.intp)
        index[grid.interior_mask] = inv
        return DerivativeField(grid=grid, kind=kind, rows=rows, index=grid.extend(index))

    @property
    def interior_mask(self):
        return self.grid.interior_mask

    def seminorm_at(self, i, j):
        """SemiNorm2 of the cell (nearest-interior extension applied)."""
        return SemiNorm2.from_row(self.kind, self.rows[self.index[i, j]])

    # per-cell (n, n, k) views read by bench/spans.py; ROADMAP item 1 deletes them
    quad = property(lambda self: self.rows[self.index] if self.kind == "quadratic" else None)
    samp = property(lambda self: self.rows[self.index] if self.kind == "sampled" else None)

    # -- densities ------------------------------------------------------------

    def energy_density(self):
        """I_+^2 of the cell semi-norm, per cell (extended)."""
        return sn.row_energy(self.kind, self.rows)[self.index]

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

    def jacobian_hausdorff_density(self):
        """Unit-ball-area jacobian per cell (extended)."""
        return sn.row_ball_jacobian(self.kind, self.rows)[self.index]

    def isotropy_defect_density(self):
        return self.energy_density() - self.jacobian_intrinsic_density()

    def beltrami_density(self, delta):
        """Beltrami coefficient of the delta-regularized cell semi-norm."""
        return sn.ellipse_beltrami(self._ellipse_rows(delta))[self.index]

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
        grid = DiscGrid(n)
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
    if target.kind == "polygonal":
        mdir = 2 * target.gauge.size
    else:
        mdir = QUADRATIC_STENCIL_DIRECTIONS
    ang = np.arange(mdir) * (2.0 * np.pi / mdir)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def estimate_derivative(u, i, j):
    """Derivative semi-norm of u at one cell, as estimate_field finds it.

    Raises StencilOutOfDomain if the radius-h stencil leaves the disc.
    """
    grid = u.grid
    pts = np.array([grid.x[i, j], grid.y[i, j]]) + grid.h * _stencil_directions(u.target)
    if np.any(np.hypot(pts[:, 0], pts[:, 1]) >= 1.0 - 1.5 * grid.h):
        raise StencilOutOfDomain(f"stencil at cell ({i}, {j}) leaves the disc")
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
    gauge rows, symmetrized over antipodes, then deduplicated, and each
    distinct row convexified.
    """
    grid = u.grid
    z = np.column_stack([grid.x[ii, jj], grid.y[ii, jj]])
    dirs = _stencil_directions(u.target)
    base = u.values[ii, jj]
    g = np.empty((len(ii), len(dirs)))
    for kdir, v in enumerate(dirs):
        pts = z + grid.h * v[None, :]
        g[:, kdir] = u.target.distance(u.sample(pts), base) / grid.h

    if u.target.kind == "polygonal":
        m = len(dirs) // 2
        sym = 0.5 * (g[:, :m] + g[:, m:])
        uniq, inv = distinct_rows(np.round(sym, 12))
        return "sampled", _convexify_gauges(uniq), inv

    design = np.column_stack([dirs[:, 0] ** 2, 2 * dirs[:, 0] * dirs[:, 1], dirs[:, 1] ** 2])
    pinv = np.linalg.pinv(design)
    return "quadratic", _project_psd(g**2 @ pinv.T), np.arange(len(ii))


def distinct_rows(rows):
    """Distinct rows of a 2-D float array and the inverse index: uniq[inv] == rows.

    Rows are equal when their bytes are, after -0.0 is turned into 0.0, so for
    finite rows this is the exact equality of np.unique(rows, axis=0); each row
    is one void item, so a 1-D sort replaces the field-by-field structured
    sort.  The order of the distinct rows is unspecified.
    """
    rows = np.ascontiguousarray(rows, dtype=float) + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inv


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
    ball.  Degenerate rows stay as measured; one batched test finds the
    dented rows, and only those get a hull."""
    out = rows.copy()
    dented = np.flatnonzero(~(sn.convex_rows(rows) | sn.row_degenerate("sampled", rows)))
    if dented.size:
        from scipy.spatial import ConvexHull

        dirs = half_circle_directions(rows.shape[1])
        for k in dented:
            verts = np.vstack([dirs / rows[k, :, None], -dirs / rows[k, :, None]])
            hull = ConvexHull(verts)
            normals = -hull.equations[:, :2]
            offsets = hull.equations[:, 2]
            out[k] = np.max((dirs @ normals.T) / offsets[None, :], axis=1)
    return out


# -- integrated quantities ------------------------------------------------------

def energy(field_):
    """Quadrature of the max-stretch-squared density over the disc."""
    return field_.grid.integrate(field_.energy_density())


def area_intrinsic(field_):
    """Quadrature of the inscribed-ellipse jacobian over the disc."""
    return field_.grid.integrate(field_.jacobian_intrinsic_density())


def area_hausdorff(field_):
    """Quadrature of the unit-ball-area jacobian over the disc."""
    return field_.grid.integrate(field_.jacobian_hausdorff_density())


def composed_energy(field_, phi):
    """Energy of the composition u . phi over phi's domain grid: the
    quadrature of composed_density over the masked cells of phi.  The map u
    is never resampled.
    """
    pts, df, cell_area = phi.domain_samples()
    if np.any(np.hypot(pts.real, pts.imag) >= 1.0):
        raise ImageOutsideDomain("phi maps a cell outside the closed disc")
    return float(np.sum(composed_density(field_, pts, df)) * cell_area)


def composed_density(field_, pts, df):
    """I_+^2(s_z . df[k]) per node k, with s_z the semi-norm of the disc cell
    nearest to the complex point z = pts[k] (a node's image under phi)."""
    ids = field_.index[field_.grid.nearest_cell(pts.real, pts.imag)]
    if field_.kind == "quadratic":
        q11, q12, q22 = field_.rows[ids].T
        a, b = df[:, 0, 0], df[:, 0, 1]
        c, d = df[:, 1, 0], df[:, 1, 1]
        # M^T Q M for M = Dphi
        r11 = a * (q11 * a + q12 * c) + c * (q12 * a + q22 * c)
        r12 = a * (q11 * b + q12 * d) + c * (q12 * b + q22 * d)
        r22 = b * (q11 * b + q12 * d) + d * (q12 * b + q22 * d)
        return sn.row_energy("quadratic", np.stack([r11, r12, r22], axis=-1))
    return _composed_sampled_density(field_.rows, ids, df)


def _composed_sampled_density(uniq, ids, df):
    """I_+^2(s_ids[k] . df[k]) per node k for the sampled rows uniq.

    A stable argsort groups the nodes of each id into one run, in node
    order; the edge rows of the ids met are built in one batch, and each run
    costs one gauge call."""
    m = uniq.shape[-1]
    dirs = half_circle_directions(m)
    order = np.argsort(ids, kind="stable")
    starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
    rows = np.maximum(uniq[ids[order[starts]]], 0.0)
    degenerate = sn.row_degenerate("sampled", rows)
    half = sn.half_edges(rows)
    dens = np.empty(len(ids))
    for r, sel in enumerate(np.split(order, starts)[1:]):      # [0] is the empty head
        mapped = np.einsum("kab,mb->kma", df[sel], dirs).reshape(-1, 2)
        vals = (SemiNorm2.sampled(rows[r])(mapped) if degenerate[r]
                else sn.edge_gauge(half[r], mapped))
        dens[sel] = sn.row_energy("sampled", vals.reshape(-1, m))
    return dens
