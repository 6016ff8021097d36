import tracemalloc

import numpy as np
import pytest

import qcreparam as qc
from qcreparam.seminorm import half_circle_directions


def rand_spd(rng, lam_lo=0.3, lam_hi=4.0):
    """Random symmetric positive definite 2x2 with eigenvalues in range."""
    th = rng.uniform(0, np.pi)
    lams = rng.uniform(lam_lo, lam_hi, size=2)
    c, s = np.cos(th), np.sin(th)
    r = np.array([[c, -s], [s, c]])
    return r @ np.diag(lams) @ r.T


def rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def rand_orientation_matrix(rng, scale=1.0):
    """Random 2x2 with positive determinant bounded away from zero."""
    while True:
        m = rng.normal(scale=scale, size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det > 0.05:
            return m


def linear_wirtinger_oracle(m):
    """(t_z, t_zbar) of a linear map via its action on 1 and i.

    T(h) = t_z h + t_zbar conj(h) gives T(1) = t_z + t_zbar and
    T(i) = i (t_z - t_zbar), so t_z = (T(1) - i T(i)) / 2.
    """
    t1 = complex(m[0, 0], m[1, 0])
    ti = complex(m[0, 1], m[1, 1])
    return 0.5 * (t1 - 1j * ti), 0.5 * (t1 + 1j * ti)


def sweep_energy_oracle(s, num=20001):
    """Dense direction sweep of s(v)^2 over the half circle."""
    ang = np.linspace(0.0, np.pi, num)
    vals = s(np.column_stack([np.cos(ang), np.sin(ang)]))
    return float(np.max(vals) ** 2)


def sector_reference(half, pts):
    """The sector gauge in one unblocked pass: |c_j . p| at each row p of pts,
    with j = floor(atan2(p_y, p_x) m / pi) mod m the edge of the m edge rows
    half whose cone holds p or -p."""
    x, y = pts[:, 0], pts[:, 1]
    j = np.floor(np.arctan2(y, x) * (len(half) / np.pi)).astype(int) % len(half)
    return np.abs(half[j, 0] * x + half[j, 1] * y)


def estimate_rows_reference(u, ii, jj):
    """field._estimate_rows with its stencil run one direction at a time: one
    lattice.blend with scalar weights and one target.distance per direction,
    then the same rows from g."""
    from qcreparam import field as fd
    from qcreparam import lattice

    n = u.grid.n
    flat, k = u.values.reshape(n * n, -1), ii * n + jj
    dirs = fd._stencil_directions(u.target)
    base = flat.take(k, axis=0)
    g = np.empty((len(dirs), len(ii)))
    for kdir, v in enumerate(dirs):
        o = np.floor(v)
        at = lattice.blend(flat, k + int(o[0]) * n + int(o[1]), n, *(v - o))
        g[kdir] = u.target.distance(at, base) / u.grid.h
    if u.target.kind == "polygonal":
        m = len(dirs) // 2
        sym = 0.5 * (g[:m] + g[m:]).T
        e = np.frexp(sym.max(axis=1, keepdims=True))[1] - 1
        uniq, inv = fd.distinct_rows(np.ldexp(np.round(np.ldexp(sym, -e), 12), e))
        return "sampled", fd._convexify_gauges(uniq), inv
    design = np.column_stack([dirs[:, 0] ** 2, 2 * dirs[:, 0] * dirs[:, 1], dirs[:, 1] ** 2])
    pinv = np.linalg.pinv(design)
    coef = sum(g[kdir, :, None] ** 2 * pinv[:, kdir] for kdir in range(len(dirs)))
    return "quadratic", fd._project_psd(coef), np.arange(len(ii))


def edge_max_reference(half, pts):
    """max_i |c_i . p| over all m edge rows half, the gauge formula the sector
    rule replaced: the same gauge on a convex ball, up to rounding."""
    return np.max(np.abs(pts @ half.T), axis=1)


def rand_sampled_norm(rng, m=64, bump=0.3, stretch=None):
    """Random convex sampled norm: perturbed gauge of a random ellipse, of
    axis ratio stretch if given."""
    from qcreparam.field import _convexify_gauges

    if stretch is None:
        q = rand_spd(rng, 0.5, 3.0)
    else:
        r = rotation(rng.uniform(0, np.pi))
        q = r @ np.diag([stretch**2, 1.0]) @ r.T
    base = qc.SemiNorm2.quadratic(q)(half_circle_directions(m))
    return qc.SemiNorm2.sampled(_convexify_gauges((base * (1.0 + rng.uniform(0, bump, m)))[None])[0])


def linear_qcmap(m, box=2.0, n=192):
    """Synthetic QCMap sampling the linear map with matrix m on a box grid."""
    d = 2.0 * box / n
    coords = -box + (np.arange(n) + 0.5) * d
    x, y = np.meshgrid(coords, coords, indexing="ij")
    values = (m[0, 0] * x + m[0, 1] * y) + 1j * (m[1, 0] * x + m[1, 1] * y)
    df = np.broadcast_to(m, (n, n, 2, 2)).copy()
    fz, fzb = qc.mat_to_wirtinger(m)
    dil = (abs(fz) + abs(fzb)) ** 2 / (abs(fz) ** 2 - abs(fzb) ** 2)
    return qc.QCMap(x0=float(coords[0]), y0=float(coords[0]), spacing=d,
                    values=values, df=df, K_certified=float(dil),
                    det_min=float(np.linalg.det(m)), residual_l2=0.0,
                    k_coeff=float(abs(fzb / fz)))


def bump_coefficient(n=256, k=0.2, radius=0.7, box=2.0):
    """Smooth compactly supported coefficient with sup exactly k."""
    f = qc.ComplexField(S=box, values=np.zeros((n, n), dtype=complex))
    x, y = f.meshes()
    r = np.hypot(x, y)
    with np.errstate(over="ignore"):
        vals = k * np.where(r < radius,
                            np.exp(1.0 - 1.0 / np.maximum(1.0 - (r / radius) ** 2, 1e-300)),
                            0.0)
    return qc.ComplexField(S=box, values=vals.astype(complex))


def _random_smooth(x, y, c=np.random.default_rng(0).normal(scale=0.1, size=6)):
    return np.stack([x + c[0] * np.sin(np.pi * x) * np.cos(np.pi * y) + c[1] * x * y,
                     y + c[2] * np.cos(np.pi * x) * np.sin(np.pi * y) + c[3] * x * x
                     + c[4] * y + c[5] * x])


# Euclidean maps whose pipeline coefficients exercise the solver: the stretch
# and random-smooth fixtures, and the anisotropic diag(4, 1)
PIPELINE_MAPS = {
    "stretch": lambda x, y: np.stack([2.0 * x, y]),
    "random-smooth": _random_smooth,
    "diag41": lambda x, y: np.stack([4.0 * x, y]),
}


def pipeline_coefficient(name, n, epsilon=0.2 * np.pi):
    """The smoothed coefficient that epsilon_conformal solves for the map
    PIPELINE_MAPS[name] on DiscGrid(n), on its solver box of n + 2
    solver_padding(n) nodes: the one solver-box field of build_coefficient,
    handed to smooth_coefficient."""
    from qcreparam.reparam import SEARCH_SHARE

    field_ = qc.estimate_field(qc.SampledMap.from_function(
        qc.DiscGrid(n), qc.TargetSpace.euclidean(2), PIPELINE_MAPS[name]))
    eps_i = qc.epsilon_internal(qc.area_intrinsic(field_), epsilon)
    delta = qc.choose_delta(field_, SEARCH_SHARE * eps_i)
    thr = qc.choose_threshold(field_, delta, SEARCH_SHARE * eps_i)
    mu = qc.build_coefficient(field_, delta, thr)
    return qc.smooth_coefficient(mu, eps_i, field_).mu_tilde


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
