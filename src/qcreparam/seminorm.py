"""Calculus of semi-norms on the plane.

A semi-norm is carried in one of two representations:

* ``quadratic``: s(v)^2 = v . Q v for a symmetric positive semi-definite
  2x2 matrix Q.  Exact closed forms exist for everything below.
* ``sampled``: gauge values s(theta_j) at m directions evenly spaced on the
  half-circle.  The unit ball is the centrally symmetric polygon through the
  sampled boundary points, so all quantities reduce to polygon geometry.

The operations: the squared-maximal-stretch energy, the inscribed ellipse of
maximal area, the two jacobians (inscribed-ellipse normalization and
unit-ball-area normalization), the isotropy defect, quadratic regularization,
and the Beltrami coefficient of a linear map rounding the inscribed ellipse.
Each is written once, as a row_* function of the kind and a stack of packed
rows, (q11, q12, q22) or the m gauge values; DerivativeField applies it to
its stored rows and the SemiNorm2 operations to one row.  Both representations
hand the inscribed ellipse over as the packed matrix (m11, m12, m22) of
{v : v.Mv <= 1}; the jacobian and the Beltrami coefficient are read from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSemiNorm, EllipseNotCertified, InputFormatError

DEGEN_TOL = 1e-10          # relative floor under which a direction counts as collapsed
FEAS_TOL = 1e-6            # certified containment: max_i c_i.P c_i <= 1 + FEAS_TOL
GAP_TOL = 1e-7             # certified optimality: log-det duality gap of an inscribed ellipse
DEFAULT_SAMPLES = 64       # default m for sampled semi-norms

# inscribed-ellipse solver (see inscribed_ellipses)
_STAGE_GAPS = (1e-3, 1e-5, 1e-8)    # barrier gaps m/t at which a KKT polish is tried
_T_FACTOR = 20.0                    # growth of t once a row is roughly centred
_CENTRED = 2.0                      # half squared Newton decrement that allows t to grow
_CONVERGED = 1e-7                   # half squared Newton decrement that ends the last stage
_MAX_NEWTON = 200                   # Newton steps per stage; unfinished rows leave as they are
_STEPS = 0.5 ** np.arange(6)        # trial step lengths of the Newton line search
_DUP_TOL = 1e-9                     # edges this close (relative) coincide; slacks this close tie
_POLISH_TOL = 1e-9                  # load excess a KKT candidate may carry into rescaling
_TIGHTEST, _MINIMA = 5, 3           # candidate constraints: tightest, then local minima
_SETS = [np.array(list(itertools.combinations(range(_TIGHTEST + _MINIMA), k))) for k in (2, 3)]
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])   # 3x3 symmetric from its 6 entries
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


@dataclass(frozen=True)
class SemiNorm2:
    """A semi-norm on R^2 in quadratic or sampled representation, held as one
    packed row: (q11, q12, q22) or the m gauge values."""

    kind: str
    row: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
            out = _sampled_gauge(self, pts)
        return float(out[0]) if single else out

    def scaled(self, c):
        """The semi-norm c*s for c > 0."""
        if c <= 0:
            raise ValueError("scale must be positive")
        return SemiNorm2.from_row(self.kind, self.row * (c**2 if self.kind == "quadratic" else c))

    def rotated(self, alpha):
        """The semi-norm v -> s(R_alpha v)."""
        c, s = math.cos(alpha), math.sin(alpha)
        r = np.array([[c, -s], [s, c]])
        if self.kind == "quadratic":
            return SemiNorm2.quadratic(r.T @ self.matrix @ r)
        dirs = half_circle_directions(self.m) @ r.T
        return SemiNorm2.sampled(self.__call__(dirs))

    # -- unit-ball polygon (sampled representation) --------------------------

    def _polygon(self):
        """Vertices (2m, 2) and edge rows c_i of the ball {|c_i . x| <= 1} of a
        sampled semi-norm."""
        if "polygon" not in self._cache:
            if self.degenerate:
                raise DegenerateSemiNorm("unit ball of a degenerate semi-norm is unbounded")
            self._cache["polygon"] = tuple(x[0] for x in _polygons(self.values[None]))
        return self._cache["polygon"]

    def ball_area(self):
        """Lebesgue area of the unit ball {s <= 1}."""
        if self.degenerate:
            return math.inf
        return math.pi / float(row_ball_jacobian(self.kind, self.row))

    def is_convex(self, tol=1e-9):
        """True if the sampled ball polygon is convex (quadratic: always)."""
        if self.kind == "quadratic":
            return True
        return bool(convex_rows(self.values[None], tol)[0])

    # -- serialization -------------------------------------------------------

    def record(self):
        """Plain-text record: 'Q a11 a12 a22' or 'S m v1 ... vm'."""
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


def _sampled_gauge(s, pts):
    """Gauge of the polygonal unit ball at each row of pts."""
    if s.degenerate:
        # Fall back to angular interpolation of the samples; only used for
        # degenerate semi-norms, where the polygon is unbounded.
        ang = np.arctan2(pts[:, 1], pts[:, 0]) % np.pi
        idx = ang / (np.pi / s.m)
        i0 = np.floor(idx).astype(int) % s.m
        i1 = (i0 + 1) % s.m
        t = idx - np.floor(idx)
        ray = (1 - t) * s.values[i0] + t * s.values[i1]
        return ray * np.linalg.norm(pts, axis=1)
    return edge_gauge(s._polygon()[1][: s.m], pts)


def edge_gauge(half, pts):
    """max_i |c_i . p| at each row p of pts, for the edge rows half (m, 2) of
    one antipodal half of a unit-ball polygon {|c_i . x| <= 1}."""
    # max(max, -min) over the rows of the (m, N) block gives the same floats
    # as max(abs) with one temporary instead of two, and + 0.0 keeps the zero
    # vector at +0.0.  The matmul is chunked so large point sets stay
    # memory-bounded.
    out = np.empty(pts.shape[0])
    step = 1 << 17
    for k in range(0, pts.shape[0], step):
        blk = half @ pts[k : k + step].T
        chunk = out[k : k + step]
        np.maximum(blk.max(axis=0), -blk.min(axis=0), out=chunk)
        chunk += 0.0
    return out


def _polygons(values):
    """Vertices (..., 2m, 2) and edge rows c_i (..., 2m, 2) of the unit balls
    {x : |c_i . x| <= 1} of non-degenerate gauge rows values (..., m)."""
    dirs = half_circle_directions(values.shape[-1])
    half = dirs * (1.0 / values)[..., None]
    verts = np.concatenate([half, -half], axis=-2)
    edges = np.roll(verts, -1, axis=-2) - verts
    normals = np.stack([edges[..., 1], -edges[..., 0]], axis=-1)
    norm = np.linalg.norm(normals, axis=-1)
    if np.any(norm <= 0):
        raise DegenerateSemiNorm("repeated vertices in sampled unit ball")
    normals /= norm[..., None]
    offsets = np.sum(normals * verts, axis=-1)
    if np.any(offsets <= 0):
        raise ValueError("sampled gauge is not convex (non-star polygon)")
    return verts, normals / offsets[..., None]


def _live_rows(values, fn, tail=(), dtype=float):
    """fn of the non-degenerate gauge rows of values (R, m), _CHUNK rows at a
    time, into an (R,) + tail array of dtype that is zero on degenerate rows."""
    out = np.zeros(values.shape[:1] + tail, dtype=dtype)
    live = np.flatnonzero(~row_degenerate("sampled", values))
    for k in range(0, live.size, _CHUNK):
        rows = live[k : k + _CHUNK]
        out[rows] = fn(values[rows])
    return out


def convex_rows(values, tol=1e-9):
    """True per gauge row of values (R, m) whose ball polygon is convex: every
    turn between consecutive edges is left, up to tol relative; False for
    degenerate rows, whose ball is unbounded."""
    def convex(rows):
        verts = _polygons(rows)[0]
        a = np.roll(verts, -1, axis=-2) - verts
        b = np.roll(a, -1, axis=-2)
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        scale = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
        return np.all(cross >= -tol * np.maximum(scale, 1e-300), axis=-1)
    return _live_rows(values, convex, dtype=bool)


def half_edges(values):
    """Edge rows (R, m, 2) for edge_gauge of the gauge rows values (R, m): one
    antipodal half of each ball polygon, zero for degenerate rows."""
    m = values.shape[1]
    return _live_rows(values, lambda rows: _polygons(rows)[1][:, :m], (m, 2))


# -- inscribed ellipses of sampled unit balls ---------------------------------------

def inscribed_ellipses(values):
    """Packed M (R, 3) of the maximal ellipses {v.Mv <= 1} inscribed in the unit
    balls {|c_i . x| <= 1} of gauge rows values (R, m); M = 0 for degenerate rows.

    P = M^-1 maximizes log det P subject to c_i.P c_i <= 1 (Boyd & Vandenberghe,
    Convex Optimization, 8.4.2): a log barrier with line-searched Newton steps and
    an exact KKT polish on two or three tight edges at each gap of _STAGE_GAPS.
    Each row is certified (max_i c_i.P c_i <= 1 + FEAS_TOL; multipliers >= 0, log-det
    duality gap <= GAP_TOL; else EllipseNotCertified), independently of its batch."""
    values = np.asarray(values, dtype=float)
    return _live_rows(values, lambda rows: _inv2(_solve_rows(rows)), (3,))


def _outer(c):
    """Packed c c^T of vectors c (..., 2)."""
    return np.stack([c[..., 0] ** 2, c[..., 0] * c[..., 1], c[..., 1] ** 2], axis=-1)


def _loads(a, p):
    """c_i.P c_i for constraints a (R, 3, m) and packed P (R, ..., 3)."""
    return np.einsum("rkm,r...k->r...m", a, p)


def _solve3(a, b):
    """Solutions of the 3x3 systems a x = b by Cramer's rule (nan if singular)."""
    c0, c1, c2 = (np.cross(a[..., i, :], a[..., j, :]) for i, j in ((1, 2), (2, 0), (0, 1)))
    det = np.sum(a[..., 0, :] * c0, axis=-1)
    return (b[..., 0, None] * c0 + b[..., 1, None] * c1 + b[..., 2, None] * c2) / det[..., None]


def _solve_rows(values):
    """Certified packed P of the inscribed ellipses of non-degenerate rows."""
    R, m = values.shape
    verts, c = (x[:, :m] for x in _polygons(values))      # one edge per antipodal pair
    prev = np.concatenate([-c[:, -1:], c[:, :-1]], axis=1)   # collinear edges repeat
    distinct = np.abs(c - prev).max(axis=-1) > _DUP_TOL * np.abs(c).max(axis=-1)
    # solve for P' = L^-1 P L^-T, with L L^T the vertex scatter: the ball is
    # about round for P', and containment, multipliers and gap are unchanged
    vx, vy = verts[..., 0], verts[..., 1]
    l11 = np.sqrt(np.sum(vx * vx, axis=-1, keepdims=True))
    l21 = np.sum(vx * vy, axis=-1, keepdims=True) / l11
    l22 = np.sqrt(np.sum(vy * vy, axis=-1, keepdims=True) - l21**2)
    c = np.stack([l11 * c[..., 0] + l21 * c[..., 1], l22 * c[..., 1]], axis=-1)
    a = np.moveaxis(_outer(c) * [1.0, 2.0, 1.0], -1, 1)    # c.P c = a.(p11, p12, p22)
    p = np.outer(0.5 / a[:, [0, 2]].sum(axis=1).max(axis=-1), [1.0, 0.0, 1.0])  # a disc
    t = np.maximum(1.0, 0.5 * np.sum(1.0 / (1.0 - _loads(a, p)) - 1.0, axis=-1))  # ~centred

    pbest, lam, todo = np.empty((R, 3)), np.empty((R, m)), np.arange(R)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for gap in _STAGE_GAPS:
            # the last stage's point stands where no polish succeeds: centre it well
            final = gap == _STAGE_GAPS[-1]
            p, t = _barrier(a[todo], p, t, gap, _CONVERGED if final else _CENTRED)
            pp, ll, ok = _polish(c[todo], a[todo], p, distinct[todo])
            if final:
                pp[~ok] = p[~ok]
                ll[~ok] = 1.0 / (t[~ok, None] * (1.0 - _loads(a[todo[~ok]], p[~ok])))
                ok[:] = True
            pbest[todo[ok]], lam[todo[ok]] = pp[ok], ll[ok]
            todo, p, t = todo[~ok], p[~ok], t[~ok]
            if not todo.size:
                break
        worst = _loads(a, pbest).max(axis=-1)
        w = np.sum(lam[:, None, :] * np.moveaxis(_outer(c), -1, 1), axis=-1)
        dual_gap = np.sum(lam, axis=-1) - 2.0 - np.log(packed_det(w) * packed_det(pbest))
    bad = ~((worst <= 1.0 + FEAS_TOL) & (dual_gap <= GAP_TOL) & np.all(lam >= 0, axis=-1))
    if np.any(bad):
        raise EllipseNotCertified(f"inscribed-ellipse certificate failed on {int(bad.sum())} of "
                                  f"{R} rows (load {worst[bad][0]}, gap {dual_gap[bad][0]})")
    p0, p1, p2 = np.split(pbest, 3, axis=-1)
    return np.concatenate([l11**2 * p0, l11 * (l21 * p0 + l22 * p1),
                           l21**2 * p0 + 2 * l21 * l22 * p1 + l22**2 * p2], axis=-1)


def _barrier(a, p, t, gap, converged):
    """Path-follow t*(-log det P) - sum log(1 - a.p) per row until m/t <= gap and half
    the squared Newton decrement is <= converged.  Rows leave as they finish; after
    _MAX_NEWTON steps (rounding can stall Newton at large t) the rest leave as they are."""
    m = a.shape[-1]
    idx, sa, sp, st = np.arange(len(p)), a, p, t
    for _ in range(_MAX_NEWTON):
        if not idx.size:
            break
        sp, dec = _newton(sa, sp, st)
        reached = m / st <= gap
        st = np.where(~reached & (dec <= _CENTRED), np.minimum(st * _T_FACTOR, 2 * m / gap), st)
        keep = ~(reached & (dec <= converged))
        p[idx[~keep]], t[idx[~keep]] = sp[~keep], st[~keep]
        idx, sa, sp, st = idx[keep], sa[keep], sp[keep], st[keep]
    p[idx], t[idx] = sp, st
    return p, t


def _newton(a, p, t):
    """One line-searched Newton step per row; new points, half squared decrements."""
    s = 1.0 - _loads(a, p)
    aw = a / s[:, None, :]
    u = _inv2(p)
    u11, u12, u22 = u[:, 0], u[:, 1], u[:, 2]
    g = np.sum(aw, axis=-1) - t[:, None] * u * [1.0, 2.0, 1.0]
    # Hessian of -log det P in (p11, p12, p22): tr(U dP U dP) with U = P^-1
    hl = np.stack([u11 * u11, 2.0 * u11 * u12, u12 * u12, 2.0 * (u12 * u12 + u11 * u22),
                   2.0 * u12 * u22, u22 * u22], axis=-1)
    h = aw @ np.swapaxes(aw, 1, 2) + t[:, None, None] * hl[:, _SYM]
    d = -np.linalg.solve(h, g[..., None])[..., 0]
    dec = -np.sum(g * d, axis=-1)
    # first trial step with sufficient decrease, else the (self-concordant) damped step
    trial = p[:, None, :] + _STEPS[:, None] * d[:, None, :]
    st, dt = 1.0 - _loads(a, trial), packed_det(trial)
    f0 = -t * np.log(packed_det(p)) - np.sum(np.log(s), axis=-1)
    ft = -t[:, None] * np.log(dt) - np.sum(np.log(st), axis=-1)
    good = ((dt > 0) & (trial[..., 0] > 0) & np.all(st > 0, axis=-1)      # P stays definite
            & (ft <= f0[:, None] - 0.25 * _STEPS * dec[:, None]))
    step = np.where(np.any(good, axis=-1), _STEPS[np.argmax(good, axis=-1)],
                    1.0 / (1.0 + np.sqrt(dec)))
    return p + step[:, None] * d, 0.5 * dec


def _polish(c, a, p, distinct):
    """Exact KKT points P^-1 = sum lam_l c_l c_l^T, the l tight, on pairs and triples of
    the _TIGHTEST distinct constraints and the _MINIMA next local minima of the slack.
    Those with lam >= 0 and feasible up to _POLISH_TOL are scaled into the ball and
    the largest wins; returns (P, multipliers, found) per row."""
    R, m = distinct.shape
    s = 1.0 - _loads(a, p)
    tight = np.argsort(np.where(distinct, s, np.inf), axis=-1, kind="stable")[:, :_TIGHTEST]
    # cyclic neighbours; repeats of a constraint tie up to rounding
    minimum = (distinct & (s <= np.roll(s, 1, axis=-1) + _DUP_TOL)
               & (s <= np.roll(s, -1, axis=-1) + _DUP_TOL))
    np.put_along_axis(minimum, tight, False, -1)
    minima = np.argsort(np.where(minimum, s, np.inf), axis=-1, kind="stable")[:, :_MINIMA]
    slots = np.concatenate([tight, minima], axis=-1)
    cs = np.take_along_axis(c, slots[..., None], 1)

    pairs, triples = _SETS
    ct = cs[:, triples]                                   # (R, T, 3, 2)
    ptri = _solve3(_outer(ct) * [1.0, 2.0, 1.0], np.ones(ct.shape[:-1]))
    pc = np.concatenate([_inv2(_outer(cs[:, pairs[:, 0]]) + _outer(cs[:, pairs[:, 1]])),
                         ptri], axis=1)
    lc = np.zeros((R, len(pairs) + len(triples), slots.shape[1]))
    lc[:, np.arange(len(pairs))[:, None], pairs] = 1.0
    lc[:, len(pairs) + np.arange(len(triples))[:, None], triples] = _solve3(
        np.swapaxes(_outer(ct), -1, -2), _inv2(ptri))
    worst, det = _loads(a, pc).max(axis=-1), packed_det(pc)
    valid = (worst <= 1.0 + _POLISH_TOL) & (det > 0) & np.all(lc >= 0, axis=-1)
    best = np.argmax(np.where(valid, det / np.maximum(worst, 1.0) ** 2, -np.inf), axis=-1)
    rows, lam = np.arange(R), np.zeros((R, m))
    np.add.at(lam, (rows[:, None], slots), lc[rows, best])    # slots may repeat
    return pc[rows, best] / np.maximum(worst[rows, best], 1.0)[:, None], lam, valid[rows, best]


# -- operations on packed rows of one kind ------------------------------------

def check_rows(kind, rows):
    """Raise ValueError unless every packed row (..., k) of kind is a semi-norm:
    a positive semi-definite (q11, q12, q22), or m >= 8 finite nonnegative
    gauge values."""
    if kind == "quadratic":
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
    """I_+^2: the max of s(v)^2 over Euclidean unit vectors."""
    if kind == "quadratic":
        return np.maximum(packed_eig(rows)[1], 0.0)
    return np.max(rows, axis=-1) ** 2


def row_regularized(kind, rows, delta):
    """Rows of the semi-norm h -> sqrt(s(h)^2 + delta^2 |h|^2)."""
    if kind == "quadratic":
        return np.stack([rows[..., 0] + delta**2, rows[..., 1], rows[..., 2] + delta**2], axis=-1)
    return np.sqrt(np.maximum(rows, 0.0) ** 2 + delta**2)


def row_ellipse(kind, rows, delta=0.0):
    """Packed M (R, 3) of the inscribed ellipses {v.Mv <= 1} of the delta-regularized
    rows (R, .); M = 0 where degenerate.  A quadratic ball is its own ellipse, zeroed
    only at delta = 0: Q + delta^2 I may test degenerate at tiny delta > 0."""
    m = row_regularized(kind, rows, delta)
    if kind == "sampled":
        return inscribed_ellipses(m)
    if delta == 0.0:
        m[row_degenerate(kind, m)] = 0.0
    return m


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
    """Maximal-area centered ellipse inscribed in the unit ball of s: the ball
    itself for quadratic s, a one-row inscribed_ellipses call for sampled s."""
    if s.degenerate:
        raise DegenerateSemiNorm("no inscribed ellipse: semi-norm is degenerate")
    lmin, lmax, phi = packed_eig(row_ellipse(s.kind, s.row[None])[0])
    return Ellipse2(a=1.0 / math.sqrt(lmin), b=1.0 / math.sqrt(lmax),
                    theta=float(phi) + 0.5 * math.pi)


def jacobian_intrinsic(s):
    """pi / (area of the inscribed ellipse); 0 for degenerate semi-norms."""
    return float(ellipse_jacobian(row_ellipse(s.kind, s.row[None]))[0])


def jacobian_hausdorff(s):
    """pi / (area of the unit ball); 0 for degenerate semi-norms."""
    return float(row_ball_jacobian(s.kind, s.row[None])[0])


def isotropy_defect(s):
    """energy_plus(s) - jacobian_intrinsic(s); ~0 exactly for isotropic s."""
    return energy_plus(s) - jacobian_intrinsic(s)


def regularize(s, delta):
    """The semi-norm h -> sqrt(s(h)^2 + delta^2 |h|^2).  Its ball is bounded, yet
    it may test degenerate at tiny delta (rank-1 quadratic s, delta = 2^-40)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return SemiNorm2.from_row(s.kind, row_regularized(s.kind, s.row, delta))


def beltrami_of(s):
    """Beltrami coefficient of an orientation-preserving linear map sending
    the inscribed ellipse of s to a round ball (see ellipse_beltrami)."""
    if s.degenerate:
        raise DegenerateSemiNorm("Beltrami coefficient needs a non-degenerate norm")
    return complex(ellipse_beltrami(row_ellipse(s.kind, s.row[None])[0]))
