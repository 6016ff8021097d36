"""Complex-analytic grid calculus and a Beltrami-equation solver.

Derivatives follow the complex conventions f_z = (f_x - i f_y)/2 and
f_zbar = (f_x + i f_y)/2, so a real differential [[a, b], [c, d]] carries
the pair (f_z, f_zbar) = (((a+d) + i(c-b))/2, ((a-d) + i(c+b))/2) and the
operator norm, minimal stretch and determinant are |f_z| + |f_zbar|,
| |f_z| - |f_zbar| | and |f_z|^2 - |f_zbar|^2.

The solver produces an orientation-preserving map f with f_zbar = mu f_z
for a compactly supported coefficient with sup |mu| = k < 1.  It iterates
h <- mu (1 + S h) with the two-dimensional singular integral S applied
spectrally on a periodic box (S has operator norm 1, so the iteration
contracts at rate k), then integrates h through the spectral antiderivative.
The mean of h cannot live in a periodic antiderivative, so it is carried by
an affine term:  f(z) = z + mean(h) zbar + (periodic part).  Certificates
(equation residual, orientation, dilatation) are measured from independent
central finite differences, not from the spectral construction.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import lattice
from .errors import (
    CoefficientTooLarge,
    DegenerateDerivative,
    GridTooSmall,
    InputFormatError,
    NewtonDiverged,
    NoConvergence,
    OrientationViolation,
    SupportTooClose,
)

MAX_ITER = 200
ITER_TOL = 1e-12
K_MARGIN = 0.02
DET_FLOOR = 1e-12
INV_TOL = 1e-8
NEWTON_MAX = 50
PAD = 2.0          # invert's margin around rho(unit circle), in rho's grid spacings


# -- pointwise complex calculus -------------------------------------------------

def mat_to_wirtinger(df):
    """(f_z, f_zbar) of real 2x2 differentials (stacked in the last two axes)."""
    df = np.asarray(df, dtype=float)
    a, b = df[..., 0, 0], df[..., 0, 1]
    c, d = df[..., 1, 0], df[..., 1, 1]
    return 0.5 * ((a + d) + 1j * (c - b)), 0.5 * ((a - d) + 1j * (c + b))


def wirtinger_to_mat(fz, fzb):
    """Real 2x2 differentials from the complex derivative pair."""
    fz = np.asarray(fz)
    out = np.empty(fz.shape + (2, 2))
    out[..., 0, 0] = (fz + fzb).real
    out[..., 0, 1] = -(fz - fzb).imag
    out[..., 1, 0] = (fz + fzb).imag
    out[..., 1, 1] = (fz - fzb).real
    return out


def wirtinger(values, spacing):
    """Central-difference (f_z, f_zbar) of a complex map sampled on a uniform
    grid, one-sided at the boundary layer.  Axis 0 is x, axis 1 is y."""
    values = np.asarray(values, dtype=complex)
    if values.ndim != 2 or min(values.shape) < 3:
        raise GridTooSmall("need at least 3 nodes per axis")
    fx = np.gradient(values, spacing, axis=0, edge_order=2)
    fy = np.gradient(values, spacing, axis=1, edge_order=2)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def beltrami_coefficient(values, spacing):
    """mu_f = f_zbar / f_z of a sampled orientation-preserving map."""
    fz, fzb = wirtinger(values, spacing)
    if np.any(np.abs(fz) <= np.abs(fzb)):
        raise OrientationViolation("|f_z| <= |f_zbar| at a node")
    return fzb / fz


def det_dilatation(fz, fzb, floor=0.0):
    """det = |f_z|^2 - |f_zbar|^2 and K = (|f_z| + |f_zbar|)^2 / det of
    derivative pairs; OrientationViolation where det <= floor."""
    det = np.abs(fz) ** 2 - np.abs(fzb) ** 2
    if np.any(det <= floor):
        raise OrientationViolation(f"det Df = {det.min():.3e} at a node")
    return det, (np.abs(fz) + np.abs(fzb)) ** 2 / det


def distortion(df):
    """Operator-norm-squared over determinant of 2x2 differentials."""
    return det_dilatation(*mat_to_wirtinger(df))[1]


def distortion_from_mu(mu):
    return (1.0 + np.abs(mu)) / (1.0 - np.abs(mu))


def compose_coefficient(mu_f, mu_g, f_z):
    """Beltrami coefficient of g . f^{-1} at w = f(z), from the coefficients
    of f and g and from f_z, all evaluated at z."""
    mu_f = np.asarray(mu_f, dtype=complex)
    mu_g = np.asarray(mu_g, dtype=complex)
    f_z = np.asarray(f_z, dtype=complex)
    if np.any(f_z == 0):
        raise DegenerateDerivative("f_z = 0 in composition formula")
    phase = (f_z / np.abs(f_z)) ** 2
    out = (mu_g - mu_f) / (1.0 - mu_g * np.conj(mu_f)) * phase
    return complex(out) if out.ndim == 0 else out


# -- fields on the solver box ----------------------------------------------------

@dataclass(frozen=True)
class ComplexField:
    """Complex values on the cell-centered periodic box [-S, S]^2."""

    S: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.S) and self.S > 1.0):
            raise ValueError(f"box half-width must be finite and exceed 1, got {self.S}")
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("field must be a square grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.S / self.n

    @property
    def coords(self):
        return lattice.centers(-self.S, self.spacing, self.n)

    def meshes(self):
        return np.meshgrid(self.coords, self.coords, indexing="ij")

    def support_radius(self):
        """max |z| over nodes where the field is nonzero (0 if empty)."""
        x, y = self.meshes()
        hot = self.values != 0
        if not np.any(hot):
            return 0.0
        return float(np.hypot(x[hot], y[hot]).max())

    def sup_norm(self):
        return float(np.abs(self.values).max(initial=0.0))

    def save(self, path):
        """Binary layout: float64 S, int64 n, row-major complex128 values."""
        with open(path, "wb") as fh:
            fh.write(struct.pack("<dq", self.S, self.n))
            fh.write(np.ascontiguousarray(self.values, dtype=complex).tobytes())

    @staticmethod
    def load(path):
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) != 16:
                raise InputFormatError("truncated field header")
            S, n = struct.unpack("<dq", head)
            data = np.frombuffer(fh.read(), dtype=complex)
        if data.size != n * n:
            raise InputFormatError("field payload size mismatch")
        return ComplexField(S=S, values=data.reshape(n, n).copy())


def mollify(mu, eta):
    """Convolution with the unit-mass radial bump of radius eta.

    Requires eta < distance(support, unit circle) so the smoothed support
    stays compactly inside the disc.  A radius below the grid spacing, or a
    zero coefficient, reduces to the identity; the sup norm never increases.
    """
    if eta <= 0:
        raise ValueError("mollification radius must be positive")
    rad = mu.support_radius()
    if rad >= 1.0:
        raise SupportTooClose("coefficient support reaches the unit circle")
    if eta >= 1.0 - rad:
        raise SupportTooClose(
            f"radius {eta} exceeds distance {1.0 - rad:.3g} from support to the circle")
    d = mu.spacing
    r_cells = int(math.floor(eta / d))
    if r_cells < 1 or not np.any(mu.values):
        return ComplexField(S=mu.S, values=mu.values.copy())
    offs = np.arange(-r_cells, r_cells + 1) * d
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    rr = np.hypot(ox, oy) / eta
    kernel = np.where(rr < 1.0, np.exp(-1.0 / np.maximum(1.0 - rr**2, 1e-300)), 0.0)
    kernel /= kernel.sum()
    out = _periodic_convolve(mu.values, kernel)
    # confine to the eta-neighborhood of the input support (kills fft dust);
    # counting support nodes under the footprint dilates exactly at any radius
    footprint = (rr < 1.0).astype(float)
    region = _periodic_convolve((mu.values != 0).astype(float), footprint).real > 0.5
    out = np.where(region, out, 0.0)
    return ComplexField(S=mu.S, values=out)


def _periodic_convolve(values, kernel):
    """Convolution of a periodic (n, n) grid with a centred odd-sized kernel.
    On the solver box it equals the plain convolution, since the support plus
    the kernel radius stays inside the unit disc, away from the box edge."""
    r = kernel.shape[0] // 2
    wrapped = np.zeros(values.shape)
    wrapped[: 2 * r + 1, : 2 * r + 1] = kernel
    wrapped = np.roll(wrapped, (-r, -r), axis=(0, 1))
    return np.fft.ifft2(np.fft.fft2(values) * np.fft.fft2(wrapped))


# -- sampled quasiconformal maps ---------------------------------------------------

@dataclass(frozen=True)
class QCMap:
    """Sampled orientation-preserving map with differentials and certificates.

    Values and 2x2 differentials live on a cell-centered grid (origin is the
    coordinate of node (0, 0)); `mask` restricts partial domains such as an
    inverted image region.  Certificates are measured, not assumed.
    """

    x0: float
    y0: float
    spacing: float
    values: np.ndarray              # complex (N, M)
    df: np.ndarray                  # (N, M, 2, 2)
    mask: np.ndarray | None = None
    K_certified: float = math.nan
    det_min: float = math.nan
    residual_l2: float = math.nan
    k_coeff: float = math.nan
    iterations: int = 0
    contraction_rate: float = math.nan
    inv_residual_max: float = math.nan
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def shape(self):
        return self.values.shape

    def node_coords(self):
        xs = self.x0 + np.arange(self.shape[0]) * self.spacing
        ys = self.y0 + np.arange(self.shape[1]) * self.spacing
        return np.meshgrid(xs, ys, indexing="ij")

    def domain_samples(self):
        """(values, differentials, cell area) over masked nodes."""
        if self.mask is None:
            return self.values.ravel(), self.df.reshape(-1, 2, 2), self.spacing**2
        return self.values[self.mask], self.df[self.mask], self.spacing**2

    def value_at(self, pts):
        """Bilinear interpolation of the map at points (K, 2) -> complex."""
        t = (np.atleast_2d(pts) - (self.x0, self.y0)) / self.spacing     # node origin
        return lattice.bilinear(self.values, t[:, 0], t[:, 1])

    def df_at(self, pts):
        """Bilinear interpolation of the differential at points (K, 2)."""
        t = (np.atleast_2d(pts) - (self.x0, self.y0)) / self.spacing
        return lattice.bilinear(self.df, t[:, 0], t[:, 1])

    def image_of_circle(self, radius=1.0, num=4096):
        t = np.linspace(0.0, 2.0 * np.pi, num, endpoint=False)
        pts = radius * np.column_stack([np.cos(t), np.sin(t)])
        return self.value_at(pts)

    def rotated(self, alpha):
        """Post-composition with the rotation by alpha (same domain grid)."""
        rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                        [math.sin(alpha), math.cos(alpha)]])
        return replace(self, values=np.exp(1j * alpha) * self.values,
                       df=np.einsum("ab,ijbc->ijac", rot, self.df))

    def save(self, path):
        """Binary layout: header doubles (x0, y0, spacing, K, det_min, res, k),
        int64 shape, mask bytes, complex values, differentials."""
        with open(path, "wb") as fh:
            fh.write(struct.pack(
                "<7d2q", self.x0, self.y0, self.spacing,
                self.K_certified, self.det_min, self.residual_l2,
                self.k_coeff, *self.shape))
            mask = (np.ones(self.shape, dtype=bool) if self.mask is None else self.mask)
            fh.write(mask.astype(np.uint8).tobytes())
            fh.write(np.ascontiguousarray(self.values, dtype=complex).tobytes())
            fh.write(np.ascontiguousarray(self.df, dtype=float).tobytes())

    @staticmethod
    def load(path):
        with open(path, "rb") as fh:
            head = fh.read(7 * 8 + 2 * 8)
            x0, y0, sp, kc, dm, rl, kk, n, m = struct.unpack("<7d2q", head)
            mask = np.frombuffer(fh.read(n * m), dtype=np.uint8).reshape(n, m).astype(bool)
            values = np.frombuffer(fh.read(n * m * 16), dtype=complex).reshape(n, m).copy()
            df = np.frombuffer(fh.read(n * m * 32), dtype=float).reshape(n, m, 2, 2).copy()
        return QCMap(x0=x0, y0=y0, spacing=sp, values=values, df=df,
                     mask=None if mask.all() else mask,
                     K_certified=kc, det_min=dm, residual_l2=rl, k_coeff=kk)


def _spectral_multipliers(n, spacing):
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    zeta = kx + 1j * ky
    safe = np.where(zeta == 0, 1.0, zeta)
    beurling = np.where(zeta == 0, 0.0, np.conj(zeta) / safe)
    cauchy = np.where(zeta == 0, 0.0, -2j / safe)
    return beurling, cauchy


def _periodic_wirtinger(values, spacing):
    """2nd-order central differences with periodic wrap (for periodic fields)."""
    fx = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * spacing)
    fy = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * spacing)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _support_block(m):
    """(rows, columns) slices of the smallest block that holds every nonzero
    of m (empty slices for a zero m)."""
    def span(hot):
        idx = np.flatnonzero(hot)
        return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)
    hot = m != 0
    return span(hot.any(axis=1)), span(hot.any(axis=0))


def _neumann(m, beurling):
    """(h, iterations, contraction rate) of h <- m (1 + S h) from h = 0.

    Only the block of m's support is iterated: h vanishes off it, so the
    forward transform runs along axis 1 over the block's rows only and the
    inverse transform along axis 0 over its columns only.  The axis order is
    that of fft2 / ifft2 and numpy transforms each line on its own, so S h on
    the block has the bits of the full-box transform.  The update is written
    (1 + S h) * m, the operand order numpy uses when it reuses the temporary
    1 + S h of a box of 128^2 nodes or more.
    """
    n = m.shape[0]
    r, c = _support_block(m)
    mb = m[r, c]
    hb = np.zeros_like(mb)
    rows = np.zeros((mb.shape[0], n), dtype=complex)      # the block's rows, full width
    spec = np.zeros((n, n), dtype=complex)
    inc, prev, rate, it = 0.0, None, math.nan, 0
    for it in range(1, MAX_ITER + 1):
        rows[:, c] = hb
        spec[r] = np.fft.fft(rows, axis=1)
        half = np.fft.ifft(beurling * np.fft.fft(spec, axis=0), axis=1)[:, c]
        h_new = (1.0 + np.fft.ifft(half, axis=0)[r]) * mb
        diff = h_new - hb
        inc = math.sqrt(np.vdot(diff, diff).real / n**2)
        if prev is not None and prev > 0:
            rate = inc / prev
        prev = inc
        hb = h_new
        if inc <= ITER_TOL:
            break
    if inc > ITER_TOL:
        raise NoConvergence(
            f"iteration increment {inc:.3e} above {ITER_TOL} after {MAX_ITER} steps")
    h = np.zeros_like(m)
    h[r, c] = hb
    return h, it, rate


def solve_beltrami(mu):
    """Solve f_zbar = mu f_z for a compactly supported coefficient.

    Returns a QCMap on the solver box normalized to f(z) ~ z + mean(h) zbar
    far from the support.  The residual certificate ||f_zbar - mu f_z||
    (root mean square over nodes, derivatives by central differences) and
    the dilatation bound are stored on the result; they are meaningful
    whenever mu is resolved by the grid, and they are measured rather than
    trusted either way.

    The Neumann iteration (`_neumann`) runs on the smallest block that holds
    mu's support, and computes the update as (1 + S h) * mu; the mean of h
    and the spectral antiderivative are taken over the whole box.  On boxes
    of 128^2 nodes and more, the result has the bits of the full-box loop
    h <- mu * (1 + S h); on smaller boxes it can differ in the last bit.
    """
    k = mu.sup_norm()
    if k >= 1.0 - K_MARGIN:
        raise CoefficientTooLarge(f"sup |mu| = {k} >= {1.0 - K_MARGIN}")
    if mu.support_radius() >= 1.0:
        raise SupportTooClose("coefficient must be supported inside the unit disc")

    n, d = mu.n, mu.spacing
    beurling, cauchy = _spectral_multipliers(n, d)
    m = mu.values
    h, it, rate = _neumann(m, beurling)

    a = complex(np.mean(h))
    part = np.fft.ifft2(cauchy * np.fft.fft2(h))
    x, y = mu.meshes()
    z = x + 1j * y
    f = z + a * np.conj(z) + part

    # independent certificate: central differences of the periodic part plus
    # the exact derivatives of the affine part
    px, pzb = _periodic_wirtinger(part, d)
    fz_fd = 1.0 + px
    fzb_fd = a + pzb
    residual = fzb_fd - m * fz_fd
    residual_l2 = float(np.sqrt(np.mean(np.abs(residual) ** 2)))
    det, dil = det_dilatation(fz_fd, fzb_fd, DET_FLOOR)
    det_min = float(det.min())
    df = wirtinger_to_mat(fz_fd, fzb_fd)

    return QCMap(
        x0=float(mu.coords[0]), y0=float(mu.coords[0]), spacing=d,
        values=f, df=df,
        K_certified=float(dil.max()), det_min=det_min,
        residual_l2=residual_l2, k_coeff=k, iterations=it,
        contraction_rate=float(rate),
        meta={"mu_f": np.abs(fzb_fd / fz_fd), "dilatation": dil,
              "residual": np.abs(residual), "affine": a},
    )


def _nearest_offered(p, x0, y0, spacing, n):
    """Per node of the n x n lattice (x0 + i spacing, y0 + j spacing), flat in
    row-major order: the index of the nearest of the points p (complex) that
    lie in one of the node's four lattice cells, the smallest index on ties,
    or -1 where no point lies in them."""
    i0 = np.floor((p.real - x0) / spacing).astype(int)
    j0 = np.floor((p.imag - y0) / spacing).astype(int)
    q = np.flatnonzero((i0 >= -1) & (i0 < n) & (j0 >= -1) & (j0 < n))
    ii = (i0[q, None] + (0, 1, 0, 1)).ravel()             # the cell's four corners
    jj = (j0[q, None] + (0, 0, 1, 1)).ravel()
    q = np.repeat(q, 4)
    ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
    ii, jj, q = ii[ok], jj[ok], q[ok]
    d2 = (p.real[q] - (x0 + ii * spacing)) ** 2 + (p.imag[q] - (y0 + jj * spacing)) ** 2
    node = ii * n + jj
    best = np.full(n * n, np.inf)
    np.minimum.at(best, node, d2)
    win = d2 == best[node]
    out = np.full(n * n, p.size)
    np.minimum.at(out, node[win], q[win])
    return np.where(out < p.size, out, -1)


def invert(rho, *, n=256):
    """Newton inversion of rho restricted to the image of the unit disc.

    Returns phi sampled on an n x n cell grid over the padded bounding box of
    rho(unit circle); cells whose preimage falls outside the disc are
    unmasked.  Per masked node, |rho(phi(w)) - w| <= INV_TOL and
    Dphi(w) = Drho(phi(w))^{-1}.

    Newton starts each node w at the rho node whose image is nearest among
    those whose images lie in one of w's four cells (`_nearest_offered`).  A
    node offered none lies more than a cell from rho's whole sampled image,
    so it starts at the inverse (w - a conj(w)) / (1 - |a|^2) of rho's far
    field z + a conj(z), a = meta["affine"] (0 for a map without one).
    rho's value and differential come from one bilinear gather per step.
    """
    img, pad = rho.image_of_circle(), PAD * rho.spacing
    lo_x, hi_x = img.real.min() - pad, img.real.max() + pad
    lo_y, hi_y = img.imag.min() - pad, img.imag.max() + pad
    spacing = max(hi_x - lo_x, hi_y - lo_y) / n
    shape = (n, n)
    x0, y0 = lo_x + 0.5 * spacing, lo_y + 0.5 * spacing

    xs = x0 + np.arange(shape[0]) * spacing
    ys = y0 + np.arange(shape[1]) * spacing
    wx, wy = np.meshgrid(xs, ys, indexing="ij")
    w = (wx + 1j * wy).ravel()

    gx, gy = rho.node_coords()
    near = _nearest_offered(rho.values.ravel(), x0, y0, spacing, n)
    a = rho.meta.get("affine", 0)
    z = np.where(near >= 0, gx.ravel()[near] + 1j * gy.ravel()[near],
                 (w - a * np.conj(w)) / (1 - abs(a) ** 2))

    # value (real, imag) and differential of rho in one (N, M, 6) stack
    stack = np.concatenate([rho.values.real[..., None], rho.values.imag[..., None],
                            rho.df.reshape(rho.shape + (4,))], axis=-1)

    def sample(p):
        s = lattice.bilinear(stack, (p.real - rho.x0) / rho.spacing,
                             (p.imag - rho.y0) / rho.spacing)
        return s[:, 0] + 1j * s[:, 1], s[:, 2:].reshape(-1, 2, 2)

    resid = np.full(w.shape, np.inf)
    active = np.ones(w.shape, dtype=bool)
    for _ in range(NEWTON_MAX):
        fval, dfs = sample(z[active])
        r = fval - w[active]
        resid[active] = np.abs(r)
        still = np.abs(r) > INV_TOL
        idx = np.nonzero(active)[0]
        active[idx[~still]] = False
        if not np.any(still):
            break
        sub = idx[still]
        d = dfs[still]
        det = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
        rr = r[still]
        dx = (d[:, 1, 1] * rr.real - d[:, 0, 1] * rr.imag) / det
        dy = (-d[:, 1, 0] * rr.real + d[:, 0, 0] * rr.imag) / det
        # step limiter keeps Newton stable across interpolation kinks
        step = dx + 1j * dy
        big = np.abs(step) > 10 * rho.spacing
        step[big] *= (10 * rho.spacing) / np.abs(step[big])
        z[sub] = z[sub] - step

    converged = resid <= INV_TOL
    inside = np.abs(z) < 1.0
    failed_interior = ~converged & (np.abs(z) <= 0.95)
    if np.any(failed_interior):
        raise NewtonDiverged(
            f"{int(failed_interior.sum())} interior nodes failed to invert")
    mask = (converged & inside).reshape(shape)

    drho = sample(z)[1]
    det = drho[:, 0, 0] * drho[:, 1, 1] - drho[:, 0, 1] * drho[:, 1, 0]
    det = np.where(det == 0, 1.0, det)
    dphi = np.stack([drho[:, 1, 1], -drho[:, 0, 1], -drho[:, 1, 0], drho[:, 0, 0]], axis=-1)
    dphi = (dphi / det[:, None]).reshape(-1, 2, 2)

    values = z.reshape(shape)
    df = dphi.reshape(shape + (2, 2))
    det_phi, dil = det_dilatation(*mat_to_wirtinger(df[mask]))
    return QCMap(
        x0=x0, y0=y0, spacing=spacing, values=values, df=df, mask=mask,
        K_certified=float(dil.max(initial=1.0)),            # K >= 1 on every node
        det_min=float(det_phi.min()) if det_phi.size else 1.0,
        residual_l2=rho.residual_l2, k_coeff=rho.k_coeff,
        inv_residual_max=float(resid[mask.ravel()].max()) if mask.any() else 0.0,
        meta={"rho_K_certified": rho.K_certified},
    )
