"""The near-conformal reparametrization pipeline.

Given a sampled map u on the disc and a budget epsilon, the pipeline builds
a quasiconformal change of variables phi with

    energy(u . phi)  <=  intrinsic area(u) + epsilon (+ quadrature budget),

and emits a report in which every intermediate estimate is a checked
inequality with explicit left/right values:

1. a regularization scale delta with the regularized jacobian integral
   within e = epsilon_internal of the area;
2. a threshold L and the cell set A (bounded stretch, away from the
   boundary) whose complement carries at most e / K_L of energy, where
   K_L = (1 + k_L) / (1 - k_L) and k_L is the largest |mu| over A;
   both searches aim at SEARCH_SHARE of these allowances first (see below);
3. the Beltrami coefficient mu of the inscribed-ellipse normalizer of the
   regularized derivative on A, and one constant mu_0 on every other node,
   inside the disc and outside it: mu = mu_0 + nu with nu supported on A.
   mu_0 is the midrange of mu's real and imaginary parts over A where that
   lowers the solver's contraction bound sup_A |mu - mu_0| / (1 - |mu_0|)
   below sup_A |mu| (and |mu_0| <= sup_A |mu|), else 0;
4. a mollified coefficient (nu mollified, mu_0 kept) and the cell set B on
   which it is uniformly close to the raw one, with the off-B energy within
   e / K;
5. a solved Beltrami map rho, its inverse phi on Omega = rho(disc),
   and the composed energy, integrated over the disc cells by the change of
   variables w = rho(z): E(u . phi) = integral of I_+^2(s_z . Drho^-1) det Drho.

The bound.  The mollifier averages values of mu over A and mu_0, so the
solved coefficient keeps |mu| <= k = k_L, and rho is K-quasiconformal.  Per
disc cell z, with B = Drho(z)^-1, the density I_+^2(s_z . B) det Drho(z) is
at most (1 + e) J(s_z, delta) on A and B, where the mollified coefficient is
within (1 - k^2) e / (2 + e) of the normalizer's; and it is at most
K I_+^2(s_z) on every cell, as I_+^2(s . B) <= I_+^2(s) |B|^2 and
|Drho^-1|^2 det Drho is rho's dilatation.  So

    E(u . phi) <= (1 + e)(area + e) + K off_A + K off_B
               <= (1 + e)(area + e) + 2 e
               <= (1 + e)(area + e) + (1 + e) e + e  =  bound_claimed,

and epsilon_internal is the largest e with bound_claimed <= area + epsilon.
Cells off A carry mu_0, not the normalizer's coefficient, which is why their
energy is charged at K, and why step 2 asks K_L off_A <= e.

The bound is the ceiling, not the result.  The composed density depends on
rho only through its Beltrami coefficient, the solved one, so the energy
reached is about J(s_z, delta) on A plus the excess of the cells off A, and
the dyadic searches of steps 1 and 2 land that anywhere in a factor of 4
below what they are allowed.  Steps 1 and 2 therefore search with
SEARCH_SHARE e first: the excess over the area is then a small fraction of
epsilon on every map, instead of wandering up to e with the step each map
lands on, and the reported inequalities keep the full allowances.  A smaller
delta makes the coefficient of a nearly degenerate derivative more
eccentric; where the solver refuses it or does not converge, or the inverse
fails its check (NewtonDiverged), steps 1 to 5 run again with the full e, whose delta is the
largest the budget admits.

The box.  Step 5 solves on the periodic box that pads the disc grid by
solver_padding(n) whole cells per side, N = n + 2p nodes (144 for n = 128).
The energy does not depend on the box.  Two
solutions rho_1 and rho_2 of the same coefficient on two boxes that hold the
disc both solve f_zbar = mu f_z on it, so g = rho_2 . rho_1^-1 is conformal
on rho_1(disc), and Drho_2 = g'(rho_1) Drho_1 there: a similarity follows
Drho_1.  The density I_+^2(s_z . Drho^-1) det Drho does not see it, as the
factor |g'|^2 cancels, so both give one integral.  On the grid the same holds
node by node: composed_energy reads rho only through its node coefficient,
mu_0 + q / (1 + M q) (QCMap.mu_exact), which at the solver's fixed point is
the mollified coefficient on any box.  Only the solver's own lines move with
the box: its root-mean-square tolerance and residual are taken over the box
nodes, and omega_area and phi follow rho's normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import field as fd
from .beltrami import (
    ComplexField,
    distortion_from_mu,
    invert,
    mollify,
    solve_beltrami,
    wirtinger_to_mat,
)
from .errors import (
    AuditFailed,
    CoefficientTooLarge,
    NewtonDiverged,
    NoConvergence,
    PipelineBudgetExceeded,
    SearchExhausted,
)

DELTA_MAX_HALVINGS = 60
THRESHOLD_MAX_DOUBLINGS = 60
QUAD_BUDGET_REL = 0.05
AUDIT_TOL = 0.05
SOLVER_PAD_MIN = 2         # fewest cells the solver box adds on each side of the disc grid
SEARCH_SHARE = 1.0 / 16    # share of e that the delta and L searches aim at first


def epsilon_internal(area, epsilon):
    """Largest e with (1+e)(area+e) + (1+e)e + e <= area + epsilon."""
    b = 3.0 + area
    disc = b * b + 8.0 * epsilon
    root = (-b + math.sqrt(disc)) / 4.0
    if not math.isfinite(root) or root <= 0:
        root = epsilon / (area + 4.0)
    return root


def choose_delta(field_, eps):
    """Largest delta in {1, 1/2, 1/4, ...} whose regularized jacobian
    integral stays within eps of the intrinsic area: the first that fits in a
    scan from delta = 1 down.

    J_delta integrates the jacobian of the ellipse that seminorm.ellipse_rows
    builds at delta from the delta = 0 ellipses area_intrinsic solved: one pass
    over the regularized rows' edge rows per delta, and an exact solve only on
    rows whose delta = 0 ellipse is zero.  The report's soundness needs only
    that the returned delta fits, which the scan checked on the ellipses the
    report reads.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = field_.grid
    target = fd.area_intrinsic(field_) + eps
    for k in range(DELTA_MAX_HALVINGS + 1):
        val = grid.integrate(field_.jacobian_intrinsic_density(0.5**k))
        if val <= target:
            return 0.5**k
    raise SearchExhausted("no regularization scale fits the area budget",
                          achieved=val)


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    L: float
    mask: np.ndarray            # cells of A (subset of the disc cells)
    off_energy: float
    K_ecc: float


def choose_threshold(field_, delta, eps):
    """Smallest L in {1, 2, 4, ...} with the off-A energy at most eps / K_L.

    A collects the disc cells with |z| <= 1 - 1/L whose stretch
    sqrt(I_+^2) is at most L; K_L = (1 + k_L) / (1 - k_L), with k_L the
    largest |mu| over A of the delta-regularized Beltrami density, charges
    the cells off A, which carry mu_0 (see build_coefficient).  The
    eccentricity of the inscribed ellipse of the delta-regularized
    derivative on A is at most K_ecc = sqrt(2 L^2 / delta^2 + 2).
    """
    grid = field_.grid
    dens = field_.energy_density()
    stretch = np.sqrt(np.maximum(dens, 0.0))
    modulus = np.abs(field_.beltrami_density(delta))
    disc = grid.disc_mask
    L = 1.0
    for _ in range(THRESHOLD_MAX_DOUBLINGS + 1):
        mask = disc & (grid.radius <= 1.0 - 1.0 / L) & (stretch <= L)
        off = float(np.sum(dens[disc & ~mask]) * grid.weight)
        k = float(modulus[mask].max(initial=0.0))
        if k < 1.0 and off <= eps / distortion_from_mu(k):
            K_ecc = math.sqrt(2.0 * L**2 / delta**2 + 2.0)
            return ThresholdResult(L=L, mask=mask, off_energy=off, K_ecc=K_ecc)
        L *= 2.0
    raise SearchExhausted("no stretch threshold fits the energy budget",
                          achieved=off)


def coefficient_offset(mu_a):
    """mu_0 for the coefficient values mu_a on A: the midrange c of their real
    and imaginary parts where |c| <= sup |mu_a| and c lowers the contraction
    bound sup |mu_a - c| / (1 - |c|) below sup |mu_a|, its value at 0; else 0."""
    if not mu_a.size:
        return 0j
    k = np.abs(mu_a).max()
    re, im = mu_a.real, mu_a.imag
    c = complex(0.5 * (re.min() + re.max()), 0.5 * (im.min() + im.max()))
    size = np.abs(c)
    if size <= k and np.abs(mu_a - c).max() / (1.0 - size) < k:
        return c
    return 0j


def solver_padding(n):
    """Cells p per side by which the solver box pads the disc grid of n cells:
    the fewest p >= SOLVER_PAD_MIN that make N = n + 2p 5-smooth (a product
    of 2, 3 and 5), a length numpy's FFT transforms without a slow prime
    factor.  The box is [-S, S]^2 with S = N / n, so its spacing 2S / N is
    the grid's h up to rounding: N = 144, 72, 36 for n = 128, 64, 32."""
    p = SOLVER_PAD_MIN
    while True:
        m = n + 2 * p
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return p
        p += 1


def build_coefficient(field_, delta, thr):
    """Beltrami coefficient of the regularized derivative on A, mu_0 elsewhere
    (coefficient_offset), as the one field the pipeline carries from here to
    the solve.

    Returned on the solver box, the disc grid padded by solver_padding(n)
    whole cells per side: every box node over the disc grid is a cell center
    and takes its cell's value, so no radius cut is needed, A lying in
    |z| <= 1 - 1/L already.  Every node off A, inside the disc and outside
    it, holds mu_0 (+0.0 where mu_0 = 0).
    """
    n = field_.grid.n
    mu = field_.beltrami_density(delta)
    mu0 = coefficient_offset(mu[thr.mask])
    mu = np.where(thr.mask, mu, mu0)
    p = solver_padding(n)
    return ComplexField(S=(n + 2 * p) / n, values=np.pad(mu, p, constant_values=mu0))


@dataclass(frozen=True, eq=False)
class SmoothingResult:
    mu_tilde: ComplexField
    mask: np.ndarray            # cells of B
    eta: float
    off_energy: float
    max_dev_on_B: float
    k: float


def smooth_coefficient(mu, eps, field_):
    """Mollify mu, the solver-box field of build_coefficient, at the largest
    radius whose off-B energy fits eps / K, with k = sup |mu|.

    B is the a-posteriori set of disc cells where the mollified coefficient
    stays within (1 - k^2) eps / (2 + eps) of mu, both read at the cell
    centers; the search decreases eta geometrically from just under the
    support-to-circle distance and always terminates because a sub-grid
    radius reproduces mu exactly on the nodes.
    """
    grid = field_.grid
    k = mu.sup_norm()
    mu_cells = grid.box_cells(mu.values)
    K = distortion_from_mu(k)
    budget = eps / K
    bound = (1.0 - k * k) * eps / (2.0 + eps)
    dens = field_.energy_density()
    disc = grid.disc_mask

    dist = 1.0 - mu.support_radius()
    eta0 = 0.9 * dist
    etas = []
    e = eta0
    while e >= mu.spacing:
        etas.append(e)
        e *= 0.5
    etas.append(min(eta0, 0.5 * mu.spacing))

    least = math.inf
    for eta in etas:
        mu_t = mollify(mu, eta)
        mu_t_cells = grid.box_cells(mu_t.values)
        dev = np.abs(mu_cells - mu_t_cells)
        bmask = disc & (dev <= bound)
        off = float(np.sum(dens[disc & ~bmask]) * grid.weight)
        if off <= budget:
            return SmoothingResult(
                mu_tilde=mu_t, mask=bmask, eta=eta, off_energy=off,
                max_dev_on_B=float(dev[bmask].max()) if bmask.any() else 0.0,
                k=max(k, mu_t.sup_norm()))
        least = min(least, off)
    raise SearchExhausted("off-B energy budget unreachable at the grid floor",
                          achieved=least)


@dataclass(eq=False)
class ReparamReport:
    """Machine-checkable transcript of the reparametrization estimates."""

    epsilon_target: float
    epsilon_internal: float
    delta: float
    L_threshold: float
    k: float
    K: float
    K_ecc: float
    eta: float
    measure_off_A: float
    measure_off_B: float
    term_regularized_area: float
    term_offA_energy: float
    term_offB_energy: float
    max_dev_on_B: float
    energy_before: float
    area_before: float
    area_hausdorff: float
    energy_after: float
    bound_claimed: float
    quad_budget: float
    n: int
    solver_n: int
    solver_residual_l2: float
    solver_iterations: int
    solver_K_certified: float
    solver_det_min: float
    phi_K_certified: float
    phi_inv_residual: float
    omega_area: float
    seed: int | None = None
    extras: dict = dfield(default_factory=dict)

    def inequalities(self):
        e = self.epsilon_internal
        rows = [
            ("int_sz_almost_area", self.term_regularized_area,
             self.area_before + e),
            ("small_int_energy_A", self.term_offA_energy, e / self.K),
            ("small_int_energy_B", self.term_offB_energy, e / self.K),
            ("approx_unif_coeff_on_B", self.max_dev_on_B,
             (1.0 - self.k**2) * e / (2.0 + e)),
            ("final_integrated_bound", self.energy_after,
             self.bound_claimed + self.quad_budget),
            ("headline", self.energy_after,
             self.area_before + self.epsilon_target + self.quad_budget),
        ]
        return [(name, lhs, rhs, rhs - lhs) for name, lhs, rhs in rows]

    def failures(self):
        # a NaN slack fails too: only a checked slack >= 0 passes
        return [name for name, _, _, slack in self.inequalities() if not slack >= 0]

    def render(self):
        f = lambda v: format(float(v), ".17g")
        lines = ["reparam-report 1", "[config]", f"n = {self.n}", f"solver_n = {self.solver_n}",
                 f"epsilon = {f(self.epsilon_target)}",
                 f"seed = {'none' if self.seed is None else self.seed}"]
        for section, names in (
                ("parameters", ("epsilon_internal", "delta", "L_threshold", "k", "K",
                                "K_ecc", "eta")),
                ("measurements", ("energy_before", "area_before", "area_hausdorff",
                                  "term_regularized_area", "term_offA_energy",
                                  "term_offB_energy", "max_dev_on_B", "measure_off_A",
                                  "measure_off_B", "energy_after", "bound_claimed",
                                  "quad_budget", "omega_area")),
                ("certificates", ("solver_residual_l2", "solver_K_certified",
                                  "solver_det_min", "phi_K_certified", "phi_inv_residual"))):
            lines.append(f"[{section}]")
            lines += [f"{name} = {f(getattr(self, name))}" for name in names]
        lines.append(f"solver_iterations = {self.solver_iterations}")
        lines.append("[inequalities]")
        for name, lhs, rhs, slack in self.inequalities():
            lines.append(f"{name} : lhs = {f(lhs)} ; rhs = {f(rhs)} ; slack = {f(slack)}")
        fails = self.failures()
        lines.append(f"status = {'ok' if not fails else 'budget-exceeded ' + ','.join(fails)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class OmegaRegion:
    """The image region Omega = rho(disc): boundary polyline and its area."""

    boundary: np.ndarray        # complex samples of rho(unit circle)
    area: float


def _shoelace(pts):
    x, y = pts.real, pts.imag
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def epsilon_conformal(u, epsilon, *, quad_rel=QUAD_BUDGET_REL, seed=None):
    """Run the full pipeline on a sampled map; see the module docstring.

    Returns (phi, omega, report).  Raises PipelineBudgetExceeded (with the
    report attached) if any reported inequality fails.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if not (math.isfinite(quad_rel) and quad_rel >= 0):
        raise ValueError(f"quad budget must be finite and non-negative, got {quad_rel}")
    field_ = fd.estimate_field(u)
    return epsilon_conformal_from_field(field_, epsilon, quad_rel=quad_rel, seed=seed)


def epsilon_conformal_from_field(field_, epsilon, *, quad_rel=QUAD_BUDGET_REL,
                                 seed=None):
    grid = field_.grid
    e_before = fd.energy(field_)
    a_before = fd.area_intrinsic(field_)
    a_haus = fd.area_hausdorff(field_)
    eps_i = epsilon_internal(a_before, epsilon)

    for share in (SEARCH_SHARE, 1.0):
        delta = choose_delta(field_, share * eps_i)
        thr = choose_threshold(field_, delta, share * eps_i)
        mu = build_coefficient(field_, delta, thr)
        smooth = smooth_coefficient(mu, eps_i, field_)
        # the report keeps mu's disc cells, not its solver box through the solve
        mu_cells = grid.box_cells(mu.values).copy()
        del mu
        try:
            rho = solve_beltrami(smooth.mu_tilde)
            phi = invert(rho, n=grid.n)
            break
        except (CoefficientTooLarge, NoConvergence, NewtonDiverged):
            # the smaller delta's coefficient is too eccentric to solve; the
            # full allowance's is the least eccentric the budget admits
            if share == 1.0:
                raise
    k = smooth.k
    K = distortion_from_mu(k)
    e_after = fd.composed_energy(field_, rho)

    term_reg = grid.integrate(field_.jacobian_intrinsic_density(delta))
    disc = grid.disc_mask
    boundary = rho.image_of_circle(1.0, 2048)
    omega = OmegaRegion(boundary=boundary, area=_shoelace(boundary))

    bound_claimed = (1.0 + eps_i) * (a_before + eps_i) + (1.0 + eps_i) * eps_i + eps_i
    quad_budget = quad_rel * (a_before + epsilon)

    report = ReparamReport(
        epsilon_target=epsilon, epsilon_internal=eps_i, delta=delta,
        L_threshold=thr.L, k=k, K=K, K_ecc=thr.K_ecc, eta=smooth.eta,
        measure_off_A=float(np.sum(disc & ~thr.mask) * grid.weight),
        measure_off_B=float(np.sum(disc & ~smooth.mask) * grid.weight),
        term_regularized_area=term_reg,
        term_offA_energy=thr.off_energy,
        term_offB_energy=smooth.off_energy,
        max_dev_on_B=smooth.max_dev_on_B,
        energy_before=e_before, area_before=a_before, area_hausdorff=a_haus,
        energy_after=e_after, bound_claimed=bound_claimed,
        quad_budget=quad_budget, n=grid.n, solver_n=smooth.mu_tilde.n,
        solver_residual_l2=rho.residual_l2,
        solver_iterations=rho.iterations,
        solver_K_certified=rho.K_certified,
        solver_det_min=rho.det_min,
        phi_K_certified=phi.K_certified,
        phi_inv_residual=phi.inv_residual_max,
        omega_area=omega.area,
        seed=seed,
        extras={"A_mask": thr.mask, "B_mask": smooth.mask,
                "mu_cells": mu_cells,
                "mu_tilde_cells": grid.box_cells(smooth.mu_tilde.values),
                "field": field_, "rho": rho},
    )
    if report.failures():
        raise PipelineBudgetExceeded(
            f"inequalities failed: {', '.join(report.failures())}", report=report)
    return phi, omega, report


# -- pointwise case audit ----------------------------------------------------------

def audit_cases(report, phi, rng, num=64):
    """Re-derive the pointwise composition bound at random sampled disc cells.

    Per sampled cell z, with the composed density I_+^2(s_z . Drho^-1) det Drho
    that composed_energy integrates, and mu_rho, rho's Beltrami coefficient at
    z (QCMap.node_mu), from which composed_energy reads it:

      on A and B:   density <= J(s_z,delta) (1+m)/(1-m) (1+tol)
      on A off B:   density <= K I2(s_z) (1+tol)
      off A:        density <= I2(s_z) (1+|mu_rho|)/(1-|mu_rho|) (1+tol)

    where m = |mu_z - mu_rho| / |1 - mu_z conj(mu_rho)| is the measured
    coefficient of the normalized composition, mu_z the coefficient of
    build_coefficient at z (mu_0 off A).  Off A the bound is rho's own
    dilatation at z.  On B, m itself is checked against
    epsilon_internal/(2+epsilon_internal) plus the solver deviation
    |mu_rho - mu_tilde| at z (scaled by 1/(1-k^2)), which for a solved rho
    is the iteration's tolerance; the central-difference residual is the
    report's solver_residual_l2.  phi, the inverse the
    report certifies, is not read: every cell's check is made at its solver
    node.  Returns the number of cells checked.  Raises AuditFailed at the
    first failing cell in sample order, naming the cell and the failed check.
    """
    field_ = report.extras["field"]
    grid = field_.grid
    eps_i = report.epsilon_internal
    k = report.k

    ii, jj = np.nonzero(grid.disc_mask)
    take = rng.choice(len(ii), size=min(num, len(ii)), replace=False)
    i, j = ii[take], jj[take]
    on_a, on_b = report.extras["A_mask"][i, j], report.extras["B_mask"][i, j]
    mu_rho = grid.box_cells(report.extras["rho"].node_mu)[i, j]
    # composed integrand, exactly as the energy quadrature evaluates it
    lhs = fd.composed_density(field_, field_.index[i, j], wirtinger_to_mat(1.0, mu_rho))
    mu_z = report.extras["mu_cells"][i, j]
    m = np.abs(mu_z - mu_rho) / np.abs(1.0 - mu_z * np.conj(mu_rho))
    dev = np.abs(report.extras["mu_tilde_cells"][i, j] - mu_rho)
    m_bound = eps_i / (2.0 + eps_i) + dev / (1.0 - k * k) + 1e-9
    en = field_.energy_density()[i, j]
    jd = field_.jacobian_intrinsic_density(report.delta)[i, j]
    rhs = np.where(on_a, np.where(on_b, jd * distortion_from_mu(m), report.K * en),
                   en * distortion_from_mu(mu_rho)) * (1.0 + AUDIT_TOL)

    m_fails = on_b & ~(m <= m_bound)
    fails = m_fails | ~(lhs <= rhs + 1e-12)
    if fails.any():
        t = int(np.argmax(fails))
        at = f"case audit failed at cell ({i[t]},{j[t]})"
        if m_fails[t]:
            raise AuditFailed(f"{at}: coefficient {m[t]} > {m_bound[t]}")
        raise AuditFailed(f"{at}: {lhs[t]} > {rhs[t]}")
    return len(take)
