"""Calculus of semi-norms on the plane.

A semi-norm is carried in one of two representations:

* ``quadratic``: s(v)^2 = v . Q v for a symmetric positive semi-definite
  2x2 matrix Q.  Exact closed forms exist for everything below.
* ``sampled``: gauge values s(theta_j) at m directions evenly spaced on the
  half-circle.  The unit ball is the centrally symmetric polygon through the
  sampled boundary points, so all quantities reduce to polygon geometry.
  Its vertices lie on the sample rays, so p lies in the cone of one edge j,
  and every row, degenerate or not, is evaluated as |c_j . p| (sector_gauge).
  The edge rows c_j are formed from the values and stay finite where a value
  is zero (an unbounded ball), so s(d_j) = v_j on every row, convex or not.
  The energy of the polygon is exact in them: I_+^2(s . a) = max_j |a^T c_j|^2
  (edge_energy), and I_+^2(s) = max_j |c_j|^2.

The operations: the squared-maximal-stretch energy, the inscribed ellipse of
maximal area, the two jacobians (inscribed-ellipse normalization and
unit-ball-area normalization), the isotropy defect, quadratic regularization,
and the Beltrami coefficient of a linear map rounding the inscribed ellipse.
Each is written once, as a row_* function of the kind and a stack of packed
rows, (q11, q12, q22) or the m gauge values; DerivativeField applies it to
its stored rows and the SemiNorm2 operations to one row, of the delta that
regularize applied, so both give the same bits.  Both representations
hand the inscribed ellipse over as the packed matrix (m11, m12, m22) of
{v : v.Mv <= 1}; the jacobian and the Beltrami coefficient are read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateSemiNorm, EllipseNotCertified, InputFormatError

DEGEN_TOL = 1e-10          # relative floor under which a direction counts as collapsed
FEAS_TOL = 1e-6            # certified containment: max_i c_i.P c_i <= 1 + FEAS_TOL
GAP_TOL = 1e-7             # certified optimality: log-det duality gap of an inscribed ellipse
DEFAULT_SAMPLES = 64       # default m for sampled semi-norms
GAUGE_BLOCK = 1 << 14      # points per block of a sector gauge (bounds its temporaries)
CONVEX_TOL = 1e-9          # relative turn below which a ball polygon counts as dented

# inscribed-ellipse solver (see inscribed_ellipses)
_LOAD_TOL = 1e-9                    # load excess that makes a constraint enter the basis
_MAX_SWAPS = 32                     # basis exchanges per row; rows still violated fail
# candidate bases of the entering constraint (slot 0) and the basis (slots 1-3):
# three pairs, written with a repeated second slot, then three triples
_CANDIDATES = np.array([[0, 1, 1], [0, 2, 2], [0, 3, 3], [0, 1, 2], [0, 1, 3], [0, 2, 3]])
_CHUNK = 512                        # rows handled together (bounds the per-row arrays)


def half_circle_directions(m):
    """Unit vectors at angles j*pi/m, j = 0..m-1."""
    ang = np.arange(m) * (np.pi / m)
    return np.column_stack([np.cos(ang), np.sin(ang)])


# -- packed symmetric 2x2 matrices --------------------------------------------

def packed_eig(p):
    """(lmin, lmax, angle of the lmax eigenvector) of packed symmetric 2x2
    matrices p[..., :3] = (q11, q12, q22), elementwise."""
    q11, q12, q22 = p[..., 0], p[..., 1], p[..., 2]
    tr = q11 + q22
    gap = np.hypot(q11 - q22, 2.0 * q12)
    return 0.5 * (tr - gap), 0.5 * (tr + gap), 0.5 * np.arctan2(2.0 * q12, q11 - q22)


def packed_det(p):
    return p[..., 0] * p[..., 2] - p[..., 1] ** 2


def ellipse_beltrami(m):
    """Beltrami coefficient of the linear maps sending the ellipses {v.Mv <= 1}
    (packed M; 0 where M = 0) to round balls; semi-axes a >= b at angle theta
    and T = diag(1/a, 1/b) . R_{-theta} give mu = -(a - b)/(a + b) exp(2 i theta)."""
    lmin, lmax, phi = packed_eig(m)
    lmin = np.maximum(lmin, 0.0)
    rs = np.sqrt(lmax) + np.sqrt(lmin)
    k = np.where(rs > 0, (np.sqrt(lmax) - np.sqrt(lmin)) / np.where(rs > 0, rs, 1.0), 0.0)
    return k * np.exp(2j * phi)


def _inv2(p):
    return np.stack([p[..., 2], -p[..., 1], p[..., 0]], axis=-1) / packed_det(p)[..., None]


@dataclass(frozen=True)
class Ellipse2:
    """Centered ellipse with semi-axes a >= b > 0 and major-axis angle theta."""

    a: float
    b: float
    theta: float

    def __post_init__(self):
        if not (self.a >= self.b > 0):
            raise ValueError(f"need a >= b > 0, got a={self.a}, b={self.b}")
        object.__setattr__(self, "theta", float(self.theta) % math.pi)

    @property
    def matrix(self):
        """M with ellipse = {v : v.Mv <= 1}; area = pi / sqrt(det M)."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        r = np.array([[c, -s], [s, c]])
        d = np.diag([1.0 / self.a**2, 1.0 / self.b**2])
        return r @ d @ r.T

    def boundary(self, num=512):
        """Points on the ellipse boundary (counterclockwise)."""
        t = np.linspace(0.0, 2.0 * np.pi, num, endpoint=False)
        c, s = math.cos(self.theta), math.sin(self.theta)
        x = self.a * np.cos(t)
        y = self.b * np.sin(t)
        return np.column_stack([c * x - s * y, s * x + c * y])

    def radial(self, dirs):
        """Boundary radius of the ellipse along each unit direction."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        u = dirs @ np.array([c, s])
        w = dirs @ np.array([-s, c])
        return 1.0 / np.sqrt((u / self.a) ** 2 + (w / self.b) ** 2)


@dataclass(frozen=True, eq=False)
class SemiNorm2:
    """A semi-norm on R^2 in quadratic or sampled representation, held as one
    packed row: (q11, q12, q22) or the m gauge values, and the delta regularize applied."""

    kind: str
    row: np.ndarray
    delta: float = 0.0
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def quadratic(q):
        q = np.asarray(q, dtype=float)
        if q.shape != (2, 2):
            raise ValueError("quadratic form must be 2x2")
        if abs(q[0, 1] - q[1, 0]) > 1e-12 * (1.0 + np.abs(q).max()):
            raise ValueError("quadratic form must be symmetric")
        q = 0.5 * (q + q.T)
        row = np.array([q[0, 0], q[0, 1], q[1, 1]])
        check_rows("quadratic", row)
        row.setflags(write=False)
        return SemiNorm2(kind="quadratic", row=row)

    @staticmethod
    def sampled(values):
        values = np.asarray(values, dtype=float).copy()
        if values.ndim != 1:
            raise ValueError("a sampled semi-norm is one row of gauge values")
        check_rows("sampled", values)
        values.setflags(write=False)
        return SemiNorm2(kind="sampled", row=values)

    @staticmethod
    def from_row(kind, row):
        """The semi-norm of one packed row of the given kind."""
        if kind == "quadratic":
            a, b, c = row
            return SemiNorm2.quadratic(np.array([[a, b], [b, c]]))
        return SemiNorm2.sampled(row)

    @staticmethod
    def zero():
        return SemiNorm2.quadratic(np.zeros((2, 2)))

    @staticmethod
    def euclidean(scale=1.0):
        return SemiNorm2.quadratic(scale**2 * np.eye(2))

    # -- basic structure ----------------------------------------------------

    @property
    def matrix(self):
        """Q with s(v)^2 = v.Qv (quadratic; None for sampled)."""
        if self.kind != "quadratic":
            return None
        a, b, c = self.row
        return np.array([[a, b], [b, c]])

    @property
    def values(self):
        """The m gauge values (sampled; None for quadratic)."""
        return self.row if self.kind == "sampled" else None

    @property
    def m(self):
        return 0 if self.values is None else int(self.values.size)

    @property
    def degenerate(self):
        return bool(row_degenerate(self.kind, self.row))

    def __call__(self, v):
        """Evaluate the semi-norm at a vector (or an array of row vectors)."""
        v = np.asarray(v, dtype=float)
        single = v.ndim == 1
        pts = v.reshape(-1, 2)
        if self.kind == "quadratic":
            out = np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", pts, self.matrix, pts), 0.0))
        else:
            out = edge_gauge(self._half_edges(), pts)
        return float(out[0]) if single else out

    def scaled(self, c):
        """The semi-norm c*s for c > 0, of delta c*delta."""
        if c <= 0:
            raise ValueError("scale must be positive")
        row = self.row * (c**2 if self.kind == "quadratic" else c)
        return replace(SemiNorm2.from_row(self.kind, row), delta=self.delta * c)

    def rotated(self, alpha):
        """The semi-norm v -> s(R_alpha v), of the same delta."""
        c, s = math.cos(alpha), math.sin(alpha)
        r = np.array([[c, -s], [s, c]])
        if self.kind == "quadratic":
            return replace(SemiNorm2.quadratic(r.T @ self.matrix @ r), delta=self.delta)
        dirs = half_circle_directions(self.m) @ r.T
        return replace(SemiNorm2.sampled(self.__call__(dirs)), delta=self.delta)

    # -- unit-ball polygon (sampled representation) --------------------------

    def _half_edges(self):
        """Edge rows c_i (m, 2) of one antipodal half of the ball {|c_i . x| <= 1}
        of a sampled semi-norm."""
        if "half" not in self._cache:
            self._cache["half"] = half_edges(self.values[None])[0]
        return self._cache["half"]

    def ball_area(self):
        """Lebesgue area of the unit ball {s <= 1}."""
        jac = float(row_ball_jacobian(self.kind, self.row))       # 0 where degenerate
        return math.pi / jac if jac else math.inf

    def is_convex(self):
        """True if the sampled ball polygon is convex (quadratic: always)."""
        if self.kind == "quadratic":
            return True
        return bool(convex_rows(self.values[None])[0])

    # -- serialization -------------------------------------------------------

    def record(self):
        """Plain-text record: 'Q a11 a12 a22' or 'S m v1 ... vm' (the row, not delta)."""
        return record_format(self.kind, self.row.size) % tuple(self.row)

    @staticmethod
    def from_record(text):
        parts = text.split()
        if not parts:
            raise InputFormatError("empty semi-norm record")
        if parts[0] == "Q":
            if len(parts) != 4:
                raise InputFormatError("quadratic record needs 3 entries")
            return SemiNorm2.from_row("quadratic", [float(x) for x in parts[1:]])
        if parts[0] == "S" and len(parts) > 1:
            m = int(parts[1])
            vals = [float(x) for x in parts[2:]]
            if len(vals) != m:
                raise InputFormatError(f"sampled record announced {m} values, got {len(vals)}")
            return SemiNorm2.sampled(vals)
        raise InputFormatError(f"bad semi-norm record {text.strip()!r}")


def edge_gauge(half, pts):
    """sector_gauge at each row p of pts for the edge rows half (m, 2) of one
    gauge row, GAUGE_BLOCK points at a time to bound the temporaries."""
    table = wrapped_edges(half)
    out = np.empty(len(pts))
    for k in range(0, len(pts), GAUGE_BLOCK):
        out[k:k + GAUGE_BLOCK] = sector_gauge(table, len(half), *pts[k:k + GAUGE_BLOCK].T)
    return out


def wrapped_edges(half):
    """The edge rows half (m, 2) repeated as a table (2m + 2, 2) whose row
    t + m + 1 is half[t mod m], for every t = -m - 1 .. m that
    floor(atan2(y, x) m / pi) takes: atan2 lies in [-pi, pi], and its product
    with the rounded m / pi falls just below -m for some m (14, 28, 56, ...)."""
    m = len(half)
    return half[np.arange(-m - 1, m + 1) % m]


def sector_gauge(table, m, x, y):
    """|c . p| at the points p = (x, y), with c edge t mod m of the wrapped_edges
    table (2m + 2, 2) and t = floor(atan2(y, x) m / pi), the edge whose cone
    holds p or -p, so c is row m + 1 + t of the table.  On a convex row this is
    max_i |c_i . p|.  Elementwise, so batch-independent."""
    c = table.take(np.floor(np.arctan2(y, x) * (m / math.pi)).astype(np.intp) + (m + 1), axis=0)
    return np.abs(c[..., 0] * x + c[..., 1] * y)


def edge_energy(edges, ids=None, a=None):
    """max_i |a_k^T c_i|^2 per entry k, for the edge rows c_i of row ids[k] of
    edges (R, m, 2) and the maps a (K, 2, 2), ids = 0 .. R - 1 and a = I if
    None: exactly I_+^2 of the polygon gauge s(p) = max_i |c_i . p| composed
    with a_k, as s(a v) = max_i |(a^T c_i) . v|.  GAUGE_BLOCK edge rows at a
    time to bound the temporaries; elementwise, so batch-independent."""
    ids = np.arange(len(edges)) if ids is None else ids
    out = np.empty(len(ids))
    step = max(1, GAUGE_BLOCK // edges.shape[-2])
    for k in range(0, len(ids), step):
        x, y = np.moveaxis(edges[ids[k:k + step]], -1, 0)
        if a is not None:
            b = a[k:k + step, :, :, None]
            x, y = b[:, 0, 0] * x + b[:, 1, 0] * y, b[:, 0, 1] * x + b[:, 1, 1] * y
        out[k:k + step] = np.max(x * x + y * y, axis=-1)
    return out


def _vertices(values):
    """Vertices d_j / v_j (..., m, 2) of one antipodal half of the ball polygons
    of positive gauge rows values (..., m)."""
    return half_circle_directions(values.shape[-1]) * (1.0 / values)[..., None]


def _live_rows(values, live, fn, tail=(), dtype=float):
    """fn of the gauge rows values[live] (R, m), _CHUNK rows at a time, into an
    (R,) + tail array of dtype that is zero on the other rows."""
    out = np.zeros(values.shape[:1] + tail, dtype=dtype)
    live = np.flatnonzero(live)
    for k in range(0, live.size, _CHUNK):
        rows = live[k : k + _CHUNK]
        out[rows] = fn(values[rows])
    return out


def convex_rows(values):
    """True per gauge row of values (R, m) whose ball polygon is convex: every
    turn between consecutive edges is left, up to CONVEX_TOL relative; False
    for degenerate rows, whose ball is unbounded."""
    def convex(rows):
        half = _vertices(rows)
        verts = np.concatenate([half, -half], axis=-2)
        a = np.roll(verts, -1, axis=-2) - verts
        b = np.roll(a, -1, axis=-2)
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        scale = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
        return np.all(cross >= -CONVEX_TOL * np.maximum(scale, 1e-300), axis=-1)
    return _live_rows(values, ~row_degenerate("sampled", values), convex, dtype=bool)


def half_edges(values):
    """Edge rows c_i (R, m, 2) of the gauge rows values (R, m), for edge_gauge and
    edge_energy: one antipodal half of the edges of each ball {|c_i . x| <= 1}."""
    def edges(rows):
        # c_i solves c.d_i = v_i and c.d_(i+1) = v_(i+1) for consecutive sample
        # directions d (d_m = -d_0), so it is formed from the values and not
        # from the vertices d_i / v_i, whose differences cancel when a value is
        # tiny; a zero value gives finite edge rows
        d = half_circle_directions(rows.shape[-1])
        d1 = np.concatenate([d[1:], -d[:1]])
        v = rows[..., None]
        c = v * d1[:, ::-1] - np.roll(v, -1, axis=-2) * d[:, ::-1]
        c *= [1.0, -1.0] / (d[:, :1] * d1[:, 1:] - d[:, 1:] * d1[:, :1])
        return c
    return _live_rows(values, np.ones(len(values), dtype=bool), edges, values.shape[1:] + (2,))


# -- inscribed ellipses of sampled unit balls ---------------------------------------

def inscribed_ellipses(values):
    """Packed M (R, 3) of the maximal ellipses {v.Mv <= 1} inscribed in the unit
    balls {|c_i . x| <= 1} of gauge rows values (R, m); M = 0 for rows with a zero
    value, whose ball is unbounded.

    P = M^-1 maximizes log det P subject to c_i.P c_i <= 1 (Boyd & Vandenberghe,
    Convex Optimization, 8.4.2): {y.Py <= 1} is the least-area centred ellipse
    enclosing the points +-c_i, an LP-type problem whose optimum is fixed by two or
    three constraints (Welzl 1991).  An exact basis exchange finds them.  Each row
    is certified (max_i c_i.P c_i <= 1 + FEAS_TOL; multipliers >= 0, log-det
    duality gap <= GAP_TOL; else EllipseNotCertified), independently of its batch."""
    values = np.asarray(values, dtype=float)
    return _live_rows(values, values.min(axis=-1) > 0, _solve_rows, (3,))


def _outer(c):
    """Packed c c^T of vectors c (..., 2)."""
    return np.stack([c[..., 0] ** 2, c[..., 0] * c[..., 1], c[..., 1] ** 2], axis=-1)


def _loads(a, p):
    """c.P c for constraints a = (c1^2, 2 c1 c2, c2^2) and packed P, broadcast."""
    return a[..., 0] * p[..., 0] + a[..., 1] * p[..., 1] + a[..., 2] * p[..., 2]


def _solve3(a, b):
    """Solutions of the 3x3 systems a x = b by Cramer's rule (nan if singular):
    x = (b_0 c_0 + b_1 c_1 + b_2 c_2) / (a_0 . c_0) for the rows a_i of a and
    the cross products c_0 = a_1 x a_2, c_1 = a_2 x a_0, c_2 = a_0 x a_1,
    written out entry by entry.  The det sum starts from +0.0, so a zero det is
    +0.0 and the infinities of a singular system take the numerator's sign."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = (
        [a[..., i, j] for j in range(3)] for i in range(3))
    c0 = (a11 * a22 - a12 * a21, a12 * a20 - a10 * a22, a10 * a21 - a11 * a20)
    c1 = (a21 * a02 - a22 * a01, a22 * a00 - a20 * a02, a20 * a01 - a21 * a00)
    c2 = (a01 * a12 - a02 * a11, a02 * a10 - a00 * a12, a00 * a11 - a01 * a10)
    det = 0.0 + a00 * c0[0] + a01 * c0[1] + a02 * c0[2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([(b0 * u + b1 * v + b2 * w) / det for u, v, w in zip(c0, c1, c2)],
                    axis=-1)


def _solve_rows(values):
    """Certified packed M of the inscribed ellipses of bounded rows."""
    R, m = values.shape
    verts, c = _vertices(values), half_edges(values)      # one edge per antipodal pair
    # solve for P' = L^-1 P L^-T, with L L^T the vertex scatter: the ball is
    # about round for P', and containment, multipliers and gap are unchanged
    vx, vy = verts[..., 0], verts[..., 1]
    l11 = np.sqrt(np.sum(vx * vx, axis=-1, keepdims=True))
    l21 = np.sum(vx * vy, axis=-1, keepdims=True) / l11
    l22 = np.linalg.norm(vy - (l21 / l11) * vx, axis=-1, keepdims=True)   # no cancellation
    c = np.stack([l11 * c[..., 0] + l21 * c[..., 1], l22 * c[..., 1]], axis=-1)
    a = _outer(c) * [1.0, 2.0, 1.0]                        # c.P c = a.(p11, p12, p22)

    # start from the longest edge row and the row most across it; a pair basis
    # repeats its second constraint, with multipliers (1, 1, 0)
    rows = np.arange(R)
    first = np.argmax(a[..., 0] + a[..., 2], axis=-1)
    cf = c[rows, first]
    across = np.argmax(np.abs(c[..., 0] * cf[:, None, 1] - c[..., 1] * cf[:, None, 0]), axis=-1)
    basis = np.stack([first, across, across], axis=-1)
    p = _inv2(_outer(cf) + _outer(c[rows, across]))
    lam = np.tile([1.0, 1.0, 0.0], (R, 1))
    todo = rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SWAPS):
            loads = _loads(a[todo], p[todo, None])
            keep = loads.max(axis=-1) > 1.0 + _LOAD_TOL
            todo, enter = todo[keep], np.argmax(loads[keep], axis=-1)
            if not todo.size:
                break
            basis[todo], p[todo], lam[todo] = _exchange(c[todo], a[todo], basis[todo], enter)
        worst = _loads(a, p[:, None]).max(axis=-1)
        solved = worst <= 1.0 + _LOAD_TOL
        p /= np.maximum(worst, 1.0)[:, None]               # into the ball, rounding included
        worst = _loads(a, p[:, None]).max(axis=-1)
        cb = c[rows[:, None], basis]
        w = np.sum(lam[..., None] * _outer(cb), axis=1)
        dual_gap = np.sum(lam, axis=-1) - 2.0 - np.log(packed_det(w) * packed_det(p))
    bad = ~(solved & (worst <= 1.0 + FEAS_TOL) & (dual_gap <= GAP_TOL) & np.all(lam >= 0, axis=-1))
    if np.any(bad):
        raise EllipseNotCertified(f"inscribed-ellipse certificate failed on {int(bad.sum())} of "
                                  f"{R} rows (load {worst[bad][0]}, gap {dual_gap[bad][0]}, "
                                  f"{'' if solved[bad][0] else 'not '}solved)")
    # M = L^-T P'^-1 L^-1: P' is well conditioned, while P = L P' L^T may not
    # be invertible in floating point (a thin ball off the axes)
    m0, m1, m2 = np.split(_inv2(p), 3, axis=-1)
    i11, i21, i22 = 1.0 / l11, -l21 / (l11 * l22), 1.0 / l22      # L^-1
    return np.concatenate([i11 * (i11 * m0 + i21 * m1) + i21 * (i11 * m1 + i21 * m2),
                           i22 * (i11 * m1 + i21 * m2), i22 * i22 * m2], axis=-1)


def _exchange(c, a, basis, enter):
    """The optimum over the basis constraints plus the entering one: of the pairs
    and triples that hold the entering constraint, the largest det P whose P is
    definite, meets those four constraints and has multipliers >= 0.  Returns the
    new (basis, P, multipliers) per row."""
    rows = np.arange(enter.size)[:, None]
    four = np.concatenate([enter[:, None], basis], axis=-1)
    sets = four[:, _CANDIDATES]                              # (T, 6, 3); pairs repeat
    o = _outer(c[rows[..., None], sets])
    tri = _solve3(o[:, 3:] * [1.0, 2.0, 1.0], np.ones(o[:, 3:].shape[:-1]))
    p = np.concatenate([_inv2(o[:, :3, 0] + o[:, :3, 1]), tri], axis=1)
    lam = np.concatenate([np.broadcast_to([1.0, 1.0, 0.0], tri.shape),
                          _solve3(np.swapaxes(o[:, 3:], -1, -2), _inv2(tri))], axis=1)
    det = packed_det(p)
    valid = ((_loads(a[rows, four][:, None], p[:, :, None]).max(axis=-1) <= 1.0 + _LOAD_TOL)
             & (p[..., 0] > 0) & (det > 0) & np.all(lam >= 0, axis=-1))
    best = np.argmax(np.where(valid, det, -np.inf), axis=-1)
    return sets[rows[:, 0], best], p[rows[:, 0], best], lam[rows[:, 0], best]


# -- operations on packed rows of one kind ------------------------------------

def check_rows(kind, rows):
    """Raise ValueError unless every packed row (..., k) of kind is a semi-norm:
    a finite positive semi-definite (q11, q12, q22), or m >= 8 finite nonnegative
    gauge values."""
    if kind == "quadratic":
        if not np.all(np.isfinite(rows)):
            raise ValueError("quadratic form must be finite")
        lmin, lmax, _ = packed_eig(rows)
        if np.any(lmin < -1e-9 * np.fmax(1.0, np.abs(lmax))):
            raise ValueError("quadratic form must be positive semi-definite")
    elif rows.shape[-1] < 8:
        raise ValueError("sampled semi-norm needs m >= 8 gauge values")
    elif np.any(rows < 0) or not np.all(np.isfinite(rows)):
        raise ValueError("gauge values must be finite and nonnegative")


def record_format(kind, k):
    """%-format of the text record of one packed row of k entries."""
    return ("Q" if kind == "quadratic" else f"S {k}") + " %.17g" * k


def row_degenerate(kind, rows):
    """True where the semi-norm vanishes on a direction (relative DEGEN_TOL)."""
    if kind == "quadratic":
        lo, hi, _ = packed_eig(rows)
    else:
        lo, hi = rows.min(axis=-1), rows.max(axis=-1, initial=0.0)
    return ~((hi > 0) & (lo >= DEGEN_TOL * hi))


def row_energy(kind, rows):
    """I_+^2: the max of s(v)^2 over Euclidean unit vectors (sampled: edge_energy)."""
    if kind == "quadratic":
        return np.maximum(packed_eig(rows)[1], 0.0)
    flat = rows.reshape(-1, rows.shape[-1])
    return edge_energy(half_edges(flat)).reshape(rows.shape[:-1])


def row_regularized(kind, rows, delta):
    """Rows of the semi-norm h -> sqrt(s(h)^2 + delta^2 |h|^2)."""
    if kind == "quadratic":
        return np.stack([rows[..., 0] + delta**2, rows[..., 1], rows[..., 2] + delta**2], axis=-1)
    return np.hypot(np.maximum(rows, 0.0), delta)


def row_ellipse(kind, rows, delta=0.0):
    """ellipse_rows of the delta-regularized rows (R, .), norms at delta > 0."""
    return ellipse_rows(kind, row_regularized(kind, rows, delta) if delta else rows, delta > 0)


def ellipse_rows(kind, rows, norm):
    """Packed M (R, 3) of the inscribed ellipses {v.Mv <= 1} of rows (R, .), M = 0 on
    degenerate rows unless norm: a row regularized at delta > 0 is a norm even where
    it tests degenerate.  A quadratic ball is its own ellipse."""
    m = rows if norm else np.where(row_degenerate(kind, rows)[..., None], 0.0, rows)
    return inscribed_ellipses(m) if kind == "sampled" else m


def row_ball_jacobian(kind, rows):
    """pi / (area of the unit ball) per row (R, .); 0 where degenerate.  A
    sampled ball is 2m triangles with vertex radii 1/values."""
    if kind == "quadratic":
        return ellipse_jacobian(row_ellipse(kind, rows))
    v = np.maximum(rows, 0.0)
    with np.errstate(divide="ignore"):
        r = 1.0 / v
        area = math.sin(math.pi / v.shape[-1]) * np.sum(r * np.roll(r, -1, axis=-1), axis=-1)
        return np.where(row_degenerate(kind, v), 0.0, np.pi / area)


def ellipse_jacobian(m):
    """pi / (area of the ellipses {v.Mv <= 1}) = sqrt(det M); 0 where M = 0."""
    return np.sqrt(np.maximum(packed_det(m), 0.0))


# -- operations on one semi-norm ------------------------------------------------

def energy_plus(s):
    """max of s(v)^2 over Euclidean unit vectors."""
    return float(row_energy(s.kind, s.row))


def john_ellipse(s):
    """Maximal-area centered ellipse inscribed in the unit ball of s, as the one-row
    ellipse_rows finds it (DegenerateSemiNorm where M = 0); a = inf where M has
    lost its small eigenvalue, as in ellipse_beltrami."""
    if not (m := ellipse_rows(s.kind, s.row[None], s.delta > 0)[0]).any():
        raise DegenerateSemiNorm("no inscribed ellipse: semi-norm is degenerate")
    lmin, lmax, phi = packed_eig(m)
    return Ellipse2(a=1.0 / math.sqrt(lmin) if lmin > 0 else math.inf,
                    b=1.0 / math.sqrt(lmax), theta=float(phi) + 0.5 * math.pi)


def jacobian_intrinsic(s):
    """pi / (area of the inscribed ellipse); 0 where its M = 0 (see ellipse_rows)."""
    return float(ellipse_jacobian(ellipse_rows(s.kind, s.row[None], s.delta > 0))[0])


def jacobian_hausdorff(s):
    """pi / (area of the unit ball); 0 for degenerate semi-norms."""
    return float(row_ball_jacobian(s.kind, s.row[None])[0])


def isotropy_defect(s):
    """energy_plus(s) - jacobian_intrinsic(s); ~0 exactly for isotropic s."""
    return energy_plus(s) - jacobian_intrinsic(s)


def regularize(s, delta):
    """The semi-norm h -> sqrt(s(h)^2 + delta^2 |h|^2), of delta hypot(s.delta,
    delta): a norm, with an ellipse though it may test degenerate at tiny delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return replace(SemiNorm2.from_row(s.kind, row_regularized(s.kind, s.row, delta)),
                   delta=math.hypot(s.delta, delta))


def beltrami_of(s):
    """Beltrami coefficient of an orientation-preserving linear map rounding the
    inscribed ellipse of s (see ellipse_beltrami); DegenerateSemiNorm where M = 0."""
    if not (m := ellipse_rows(s.kind, s.row[None], s.delta > 0)[0]).any():
        raise DegenerateSemiNorm("Beltrami coefficient needs a non-degenerate norm")
    return complex(ellipse_beltrami(m))
