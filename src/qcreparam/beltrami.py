"""Complex-analytic grid calculus and a Beltrami-equation solver.

Derivatives follow the complex conventions f_z = (f_x - i f_y)/2 and
f_zbar = (f_x + i f_y)/2, so a real differential [[a, b], [c, d]] carries
the pair (f_z, f_zbar) = (((a+d) + i(c-b))/2, ((a-d) + i(c+b))/2) and the
operator norm, minimal stretch and determinant are |f_z| + |f_zbar|,
| |f_z| - |f_zbar| | and |f_z|^2 - |f_zbar|^2.

The solver produces an orientation-preserving map f with f_zbar = mu f_z
for a coefficient mu = mu_0 + nu on a periodic box: mu_0 is one complex
constant, the value on the box edge, and nu is supported inside the unit
disc, with sup |mu| = k < 1.  With S the two-dimensional singular integral
(the Fourier multiplier sigma = conj(zeta)/zeta, of modulus 1), the equation
for h = f_zbar reads h = mu (1 + S h).  Its constant-coefficient part is
inverted exactly: with T = 1/(1 - mu_0 sigma) and M = sigma T, h = mu_0 + T q
where q solves q = nu (1 + M q).  The solver iterates that equation, which
contracts at rate sup |nu| / (1 - |mu_0|), so an affine map (nu = 0) solves
in one step; for mu_0 = 0, M = sigma and T = 1 give the plain iteration
h <- mu (1 + S h).  The mean of h, mu_0 + mean(q), cannot live in a periodic
antiderivative, so it is carried by an affine term:
f(z) = z + mean(h) zbar + (periodic part), the periodic part being the
spectral antiderivative of T q.  The exact derivative of f at the nodes,
f_z = 1 + M q and f_zbar = mu_0 + T q = mu_0 f_z + q, satisfies the equation
there to the iteration's tolerance; its coefficient mu_0 + q / f_z is
returned as QCMap.mu_exact.  Certificates (equation residual,
orientation, dilatation) are measured from independent central finite
differences, not from the spectral construction; where mu jumps, as at the
edge of its support, those differences straddle the jump and read a
coefficient between the two sides.
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
PAD = 2.0          # invert's margin around rho(unit circle), in rho's grid spacings
CELL_TOL = 1e-12   # rounding allowance on a cell preimage's offsets s, t in [0, 1]
CELL_BLOCK = 8192  # rho cells per pass of cell_preimages, which bounds its candidates
ROUNDING_FLOOR = 64 * np.finfo(float).eps   # |nu| up to this times max(1, |mu_0| + sup |nu|) is rounding


# -- pointwise complex calculus -------------------------------------------------

def mat_to_wirtinger(df):
    """(f_z, f_zbar) of real 2x2 differentials (stacked in the last two axes)."""
    df = np.asarray(df, dtype=float)
    a, b = df[..., 0, 0], df[..., 0, 1]
    c, d = df[..., 1, 0], df[..., 1, 1]
    return 0.5 * ((a + d) + 1j * (c - b)), 0.5 * ((a - d) + 1j * (c + b))


def wirtinger_to_mat(fz, fzb):
    """Real 2x2 differentials from the complex derivative pair (arrays or
    scalars, broadcast against each other)."""
    fz, fzb = np.asarray(fz), np.asarray(fzb)
    out = np.empty(np.broadcast(fz, fzb).shape + (2, 2))
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

@dataclass(frozen=True, eq=False)
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

    @property
    def offset(self):
        """mu_0, the field's value at the box corner: for a field mu_0 + nu with
        nu supported inside the disc, its value on the whole box edge."""
        return complex(self.values[0, 0])

    def support_radius(self):
        """max |z| over nodes where |nu| = |values - offset| exceeds the rounding
        floor, ROUNDING_FLOOR max(1, |offset| + sup |nu|) (0 if there are none)."""
        mu0 = self.offset
        size = np.abs(self.values - mu0)
        i, j = np.nonzero(size > ROUNDING_FLOOR * max(1.0, abs(mu0) + float(size.max())))
        if not i.size:
            return 0.0
        c = self.coords
        return float(np.hypot(c[i], c[j]).max())

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
    """mu_0 plus the convolution of nu with the unit-mass radial bump of
    radius eta, for mu = mu_0 + nu (ComplexField.offset).

    Requires eta < distance(support of nu, unit circle) so the smoothed
    support stays compactly inside the disc.  A radius below the grid
    spacing, or a nu no larger than rounding (support_radius 0), reduces to
    the identity; each value is an average of values of mu, so the sup norm
    never increases.
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
    if r_cells < 1 or rad == 0.0:           # no nu above the rounding floor
        return ComplexField(S=mu.S, values=mu.values.copy())
    mu0 = mu.offset
    nu = mu.values - mu0
    offs = np.arange(-r_cells, r_cells + 1) * d
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    rr = np.hypot(ox, oy) / eta
    kernel = np.where(rr < 1.0, np.exp(-1.0 / np.maximum(1.0 - rr**2, 1e-300)), 0.0)
    kernel /= kernel.sum()
    out = _periodic_convolve(nu, kernel)
    # confine to the eta-neighborhood of the input support (kills fft dust);
    # counting support nodes under the footprint dilates exactly at any radius
    footprint = (rr < 1.0).astype(float)
    region = _periodic_convolve((nu != 0).astype(float), footprint).real > 0.5
    out = np.where(region, out, 0.0)
    return ComplexField(S=mu.S, values=out + mu0 if mu0 else out)


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

@dataclass(frozen=True, eq=False)
class QCMap:
    """Sampled orientation-preserving map with differentials and certificates.

    Values and 2x2 differentials live on a cell-centered grid (origin is the
    coordinate of node (0, 0)); `mask` restricts partial domains such as an
    inverted image region.  Certificates are measured, not assumed.
    `mu_exact`, where a map has it, is the Beltrami coefficient f_zbar / f_z
    of the exact derivative, at the nodes, of the function the values sample
    (solve_beltrami's spectral solution); `df` is then the central
    differences its certificates are measured from.  The file layout holds
    `df` only.
    """

    x0: float
    y0: float
    spacing: float
    values: np.ndarray              # complex (N, M)
    df: np.ndarray                  # (N, M, 2, 2)
    mask: np.ndarray | None = None
    mu_exact: np.ndarray | None = None     # complex (N, M)
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

    @property
    def node_mu(self):
        """Beltrami coefficient at the nodes: mu_exact where the map has one,
        else f_zbar / f_z of df."""
        if self.mu_exact is not None:
            return self.mu_exact
        fz, fzb = mat_to_wirtinger(self.df)
        return fzb / fz

    def node_coords(self):
        xs = self.x0 + np.arange(self.shape[0]) * self.spacing
        ys = self.y0 + np.arange(self.shape[1]) * self.spacing
        return np.meshgrid(xs, ys, indexing="ij")

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
        """Post-composition with the rotation by alpha (same domain grid),
        which keeps the Beltrami coefficient, mu_exact included."""
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


def _spectral_multipliers(n, spacing, mu0=0.0):
    """(M, C T): the multiplier M = sigma / (1 - mu0 sigma) of the iteration
    and the spectral antiderivative C = -2i / zeta times T = 1 / (1 - mu0 sigma),
    with sigma = conj(zeta) / zeta the Beurling transform (sigma = C = 0 at
    zeta = 0).  For mu0 = 0, T = 1 and they are sigma and C."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    zeta = k[:, None] + 1j * k
    zeta[0, 0] = 1.0                        # zeta = 0 only at the origin
    beurling = np.conj(zeta) / zeta
    cauchy = -2j / zeta
    beurling[0, 0] = cauchy[0, 0] = 0.0
    t = 1.0 / (1.0 - mu0 * beurling)
    return beurling * t, cauchy * t


def _periodic_wirtinger(values, spacing):
    """2nd-order central differences with periodic wrap (for periodic fields)."""
    fx = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * spacing)
    fy = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * spacing)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _neumann(m, multiplier, bound):
    """(q, iterations, contraction rate) of q <- m (1 + M q) from q = 0 on the
    whole box, with M the Fourier multiplier given and bound < 1 the
    contraction bound sup |m| sup |M|.

    The loop stops once a step moves q by at most ITER_TOL (root mean square
    over the box), or at the first step, q = m, when that lies within
    bound / (1 - bound) |m| <= ITER_TOL of the fixed point: an m at the
    rounding of the coefficient's ellipses would otherwise take a second
    step only to see its first one confirmed, and m = 0 stops there too.
    The update is written (1 + M q) * m, the operand order numpy uses when it
    reuses the temporary 1 + M q of a box of 128^2 nodes or more.
    """
    n = m.shape[0]
    if bound / (1.0 - bound) * math.sqrt(np.vdot(m, m).real / n**2) <= ITER_TOL:
        return m, 1, math.nan       # what the first step computes
    q = np.zeros_like(m)
    inc, prev, rate, it = 0.0, None, math.nan, 0
    for it in range(1, MAX_ITER + 1):
        q_new = (1.0 + np.fft.ifft2(multiplier * np.fft.fft2(q))) * m
        diff = q_new - q
        inc = math.sqrt(np.vdot(diff, diff).real / n**2)
        if prev is not None and prev > 0:
            rate = inc / prev
        prev = inc
        q = q_new
        if inc <= ITER_TOL:
            break
    if inc > ITER_TOL:
        raise NoConvergence(
            f"iteration increment {inc:.3e} above {ITER_TOL} after {MAX_ITER} steps")
    return q, it, rate


def solve_beltrami(mu):
    """Solve f_zbar = mu f_z for mu = mu_0 + nu, nu supported inside the disc.

    Returns a QCMap on the solver box normalized to f(z) ~ z + mean(h) zbar
    far from the support, with the coefficient of f's exact node derivative
    as mu_exact and f's central differences as df.  The residual certificate
    ||f_zbar - mu f_z|| (root mean square over nodes, derivatives by central
    differences) and the dilatation bound are stored on the result; they are
    meaningful whenever mu is resolved by the grid, and they are measured
    rather than trusted either way.

    mu_0 is read as ComplexField.offset.  The iteration q <- nu (1 + M q)
    (see the module docstring) runs on the whole box (`_neumann`), as do the
    mean of q and the spectral antiderivative of T q.  For mu_0 = 0 this is
    the loop h <- mu (1 + S h), with its bits on boxes of 128^2 nodes and
    more; on smaller boxes the product can differ in the last bit.
    CoefficientTooLarge where sup |mu| >= 1 - K_MARGIN, or where the
    contraction bound sup |nu| / (1 - |mu_0|) is.
    """
    k = mu.sup_norm()
    if k >= 1.0 - K_MARGIN:
        raise CoefficientTooLarge(f"sup |mu| = {k} >= {1.0 - K_MARGIN}")
    if mu.support_radius() >= 1.0:
        raise SupportTooClose("coefficient must be supported inside the unit disc")
    mu0 = mu.offset
    bound = float(np.abs(mu.values - mu0).max()) / (1.0 - abs(mu0))
    if bound >= 1.0 - K_MARGIN:
        raise CoefficientTooLarge(f"contraction bound sup |nu| / (1 - |mu_0|) = {bound} "
                                  f">= {1.0 - K_MARGIN}")

    n, d = mu.n, mu.spacing
    multiplier, antiderivative = _spectral_multipliers(n, d, mu0)
    m = mu.values
    q, it, rate = _neumann(m - mu0, multiplier, bound)

    a = mu0 + complex(np.mean(q))
    spec = np.fft.fft2(q)
    # part from a fresh copy of the spectrum: numpy may reuse such a temporary
    # for the product and then rounds it as it did the product with fft2(q)
    part = np.fft.ifft2(antiderivative * spec.copy())
    # the exact node derivative of f: f_z = 1 + M q and, as T = 1 + mu_0 M,
    # f_zbar = mu_0 + T q = mu_0 f_z + q, so its coefficient is mu_0 + q / f_z
    exact = mu0 + q / (1.0 + np.fft.ifft2(multiplier * spec))
    del multiplier, antiderivative, q, spec     # box arrays the certificate never reads
    c = mu.coords
    z = c[:, None] + 1j * c
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
        values=f, df=df, mu_exact=exact,
        K_certified=float(dil.max()), det_min=det_min,
        residual_l2=residual_l2, k_coeff=k, iterations=it,
        contraction_rate=float(rate),
        meta={"mu_f": np.abs(fzb_fd / fz_fd), "dilatation": dil,
              "residual": np.abs(residual), "affine": a},
    )


def _cross(a, b):
    return a.real * b.imag - a.imag * b.real


def cell_preimages(values, x0, y0, spacing, shape):
    """Preimages of lattice nodes under the bilinear interpolant of values.

    The lattice has its node (i, j) at (x0 + i spacing) + 1j (y0 + j spacing),
    i < shape[0], j < shape[1].  Returns (k, ti, tj): the flat numbers
    i shape[1] + j of the nodes w that the image of some cell of values
    holds, and the fractional node indices (ti, tj) in values, in the frame
    of lattice.bilinear, at which that cell's patch takes the value w.

    The patch of the cell with corners P00, P10, P01, P11 (lattice.bilinear's
    order) is P00 + E s + F t + G s t with E = P10 - P00, F = P01 - P00 and
    G = P00 - P10 - P01 + P11.  Its candidates are the nodes in the bounding
    box of the four corners, which holds the patch.  With H = w - P00,
    cross(H - F t, E + G t) = 0 is the quadratic k2 t^2 + k1 t + k0 = 0,
    k2 = cross(G, F), k1 = cross(E, F) + cross(H, G), k0 = cross(H, E); s
    follows from the larger component of E + G t, and a root counts where
    s and t lie in [0, 1] up to CELL_TOL.  A node that several cells hold
    takes one of their preimages.  CELL_BLOCK cells are solved at a time.
    """
    values = np.asarray(values, dtype=complex)
    ni, nj = values.shape[0] - 1, values.shape[1] - 1      # cells per axis
    # the nodes of values in the lattice's fractional node indices
    u, v = (values.real - x0) / spacing, (values.imag - y0) / spacing
    rows = max(1, CELL_BLOCK // nj)
    found = []
    for a in range(0, ni, rows):
        b = min(a + rows, ni)
        # each cell's candidates, as ranges of lattice indices per axis
        span = []
        for c, size in ((u[a:b + 1], shape[0]), (v[a:b + 1], shape[1])):
            lo, hi = np.minimum(c[:-1], c[1:]), np.maximum(c[:-1], c[1:])
            first = np.ceil(np.minimum(lo[:, :-1], lo[:, 1:])).clip(0, size).astype(int).ravel()
            last = np.floor(np.maximum(hi[:, :-1], hi[:, 1:])).clip(-1, size - 1).astype(int)
            span.append((first, np.maximum(last.ravel() - first + 1, 0)))
        (fi, ci), (fj, cj) = span
        count = ci * cj
        cell = np.repeat(np.arange(count.size), count)
        off = np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
        i, j = fi[cell] + off // cj[cell], fj[cell] + off % cj[cell]
        p00, p10 = values[a:b, :-1].ravel()[cell], values[a + 1:b + 1, :-1].ravel()[cell]
        p01, p11 = values[a:b, 1:].ravel()[cell], values[a + 1:b + 1, 1:].ravel()[cell]
        e, f, g = p10 - p00, p01 - p00, p00 - p10 - p01 + p11
        h = ((x0 + i * spacing) + 1j * (y0 + j * spacing)) - p00
        k2, k1, k0 = _cross(g, f), _cross(e, f) + _cross(h, g), _cross(h, e)
        root = np.sqrt(np.maximum(k1 * k1 - 4.0 * k2 * k0, 0.0))
        q = -0.5 * (k1 + np.copysign(root, k1))
        s = t = np.full(cell.size, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            # where both roots count, the later one, k0 / q, wins: it is the
            # one that a near-parallelogram (k2 -> 0) keeps
            for tt in (q / k2, k0 / q):
                den, num = e + g * tt, h - f * tt
                ss = np.where(np.abs(den.real) >= np.abs(den.imag),
                              num.real / den.real, num.imag / den.imag)
                ok = ((ss >= -CELL_TOL) & (ss <= 1.0 + CELL_TOL)
                      & (tt >= -CELL_TOL) & (tt <= 1.0 + CELL_TOL))
                s, t = np.where(ok, ss, s), np.where(ok, tt, t)
        hit = ~np.isnan(s)
        cell_i, cell_j = np.divmod(cell[hit], nj)
        found.append((i[hit] * shape[1] + j[hit], a + cell_i + s[hit], cell_j + t[hit]))
    return tuple(np.concatenate(x) for x in zip(*found))


def invert(rho, *, n=256):
    """Inversion of rho restricted to the image of the unit disc.

    Returns phi sampled on an n x n cell grid over the padded bounding box of
    rho(unit circle); cells whose preimage falls outside the disc are
    unmasked.  Per masked node, |rho(phi(w)) - w| <= INV_TOL and
    Dphi(w) = Drho(phi(w))^{-1}.

    Each node w takes its exact preimage under rho's bilinear interpolant,
    solved in closed form in the rho cell whose image holds w
    (`cell_preimages`).  Where rho lies within INV_TOL of its far field
    z + a conj(z), a = meta["affine"] (0 for a map without one), on every
    node, as an affine rho does, every node takes that far field's inverse
    (w - a conj(w)) / (1 - |a|^2) instead and the cell pass is skipped:
    bilinear interpolation reproduces the affine part, so that start is
    within tolerance too.  A node that no cell holds keeps the far field's
    inverse: the cells tile rho's box, which holds the disc, so such a node
    lies outside rho(disc).  One bilinear gather checks every node: rho's
    value gives its residual |rho(z) - w| and the mask, and rho's
    differential, left 0 where the residual is not finite, gives Dphi.
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

    a = rho.meta.get("affine", 0)
    z = (w - a * np.conj(w)) / (1 - abs(a) ** 2)
    # z + a conj(z) = (1 + a) x + (1 - a) i y over rho's nodes
    xr = rho.x0 + np.arange(rho.shape[0]) * rho.spacing
    yr = rho.y0 + np.arange(rho.shape[1]) * rho.spacing
    far = ((1 + a) * xr)[:, None] + ((1 - a) * 1j * yr)
    held = np.ones(w.size, dtype=bool)          # every node of an affine rho
    if np.abs(rho.values - far).max() > INV_TOL:
        k, ti, tj = cell_preimages(rho.values, x0, y0, spacing, shape)
        z[k] = (rho.x0 + ti * rho.spacing) + 1j * (rho.y0 + tj * rho.spacing)
        held = np.zeros(w.size, dtype=bool)
        held[k] = True

    # value (real, imag) and differential of rho in one (N, M, 6) stack
    stack = np.concatenate([rho.values.real[..., None], rho.values.imag[..., None],
                            rho.df.reshape(rho.shape + (4,))], axis=-1)
    s = lattice.bilinear(stack, (z.real - rho.x0) / rho.spacing,
                         (z.imag - rho.y0) / rho.spacing)
    resid = np.abs(s[:, 0] + 1j * s[:, 1] - w)
    drho = np.where((resid < np.inf)[:, None, None], s[:, 2:].reshape(-1, 2, 2), 0.0)

    converged = resid <= INV_TOL
    failed_interior = held & ~converged & (np.abs(z) <= 0.95)
    if np.any(failed_interior):
        raise NewtonDiverged(
            f"{int(failed_interior.sum())} interior nodes failed to invert")
    mask = (converged & (np.abs(z) < 1.0)).reshape(shape)

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
    )
