"""The near-conformal reparametrization pipeline.

Given a sampled map u on the disc and a budget epsilon, the pipeline builds
a quasiconformal change of variables phi with

    energy(u . phi)  <=  intrinsic area(u) + epsilon (+ quadrature budget),

and emits a report in which every intermediate estimate is a checked
inequality with explicit left/right values:

1. a regularization scale delta with the regularized jacobian integral
   within epsilon_internal of the area;
2. a threshold L and the cell set A (bounded stretch, away from the
   boundary) whose complement carries at most epsilon_internal of energy;
3. the Beltrami coefficient of the inscribed-ellipse normalizer of the
   regularized derivative on A (zero elsewhere), with a certified sup bound;
4. a mollified coefficient and the cell set B on which it is uniformly
   close to the raw one, with the off-B energy within epsilon_internal / K;
5. a solved Beltrami map rho, its Newton inverse phi on Omega = rho(disc),
   and the independently quadratured composed energy.

epsilon_internal is calibrated so that the composed bound
(1+e)(area+e) + (1+e)e + e lands below area + epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import field as fd
from .beltrami import (
    ComplexField,
    invert,
    mat_to_wirtinger,
    mollify,
    solve_beltrami,
)
from .errors import AuditFailed, PipelineBudgetExceeded, SearchExhausted

DELTA_MAX_HALVINGS = 60
THRESHOLD_MAX_DOUBLINGS = 60
QUAD_BUDGET_REL = 0.05
AUDIT_TOL = 0.05
SOLVER_BOX = 2.0           # [-2, 2]^2: the disc grid padded by n/2 cells per side


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
    integral stays within eps of the intrinsic area.

    The regularized semi-norm sqrt(s^2 + delta^2 |.|^2) grows with delta, so
    its ball and the inscribed ellipse shrink, and J_delta, the integral of
    the inscribed-ellipse jacobian, rises with delta: fits(delta) and not
    fits(2 delta) make delta the largest dyadic fit.  The search starts at the
    first delta from the top whose estimate fits (jacobian_estimate, from the
    delta = 0 ellipses that area_intrinsic solved), checks it and 2 delta with
    exact solves, and walks down or up one halving at a time while either
    check fails.  The report's soundness needs only fits(delta), which the
    exact solve at the returned delta shows.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = field_.grid
    target = fd.area_intrinsic(field_) + eps

    def value(k):
        return grid.integrate(field_.jacobian_intrinsic_density(0.5**k))

    k = next((k for k in range(DELTA_MAX_HALVINGS + 1)
              if field_.jacobian_estimate(0.5**k) <= target), DELTA_MAX_HALVINGS)
    val = value(k)
    if val <= target:
        while k > 0 and value(k - 1) <= target:
            k -= 1
        return 0.5**k
    while k < DELTA_MAX_HALVINGS:
        k += 1
        val = value(k)
        if val <= target:
            return 0.5**k
    raise SearchExhausted("no regularization scale fits the area budget",
                          achieved=val)


@dataclass(frozen=True)
class ThresholdResult:
    L: float
    mask: np.ndarray            # cells of A (subset of the disc cells)
    off_energy: float
    K_ecc: float
    k_apriori: float


def choose_threshold(field_, delta, eps):
    """Smallest L in {1, 2, 4, ...} with the off-A energy at most eps.

    A collects the disc cells with |z| <= 1 - 1/L whose stretch
    sqrt(I_+^2) is at most L; the eccentricity of the inscribed ellipse of
    the delta-regularized derivative is then at most
    K_ecc = sqrt(2 L^2 / delta^2 + 2).
    """
    grid = field_.grid
    dens = field_.energy_density()
    stretch = np.sqrt(np.maximum(dens, 0.0))
    disc = grid.disc_mask
    L = 1.0
    for _ in range(THRESHOLD_MAX_DOUBLINGS + 1):
        mask = disc & (grid.radius <= 1.0 - 1.0 / L) & (stretch <= L)
        off = float(np.sum(dens[disc & ~mask]) * grid.weight)
        if off <= eps:
            K_ecc = math.sqrt(2.0 * L**2 / delta**2 + 2.0)
            return ThresholdResult(L=L, mask=mask, off_energy=off, K_ecc=K_ecc,
                                   k_apriori=(K_ecc - 1.0) / (K_ecc + 1.0))
        L *= 2.0
    raise SearchExhausted("no stretch threshold fits the energy budget",
                          achieved=off)


def build_coefficient(field_, delta, thr):
    """Beltrami coefficient field of the regularized derivative on A.

    Returned on the solver box, the disc grid padded by n/2 cells per side:
    nodes with |z| <= 1 - 1/L take the coefficient of their disc cell when
    that cell is in A, all other nodes are zero.  Also returns the per-cell
    coefficient used for the set-B comparison.
    """
    mu_cells = field_.beltrami_density(delta) * thr.mask
    mu = ComplexField(S=SOLVER_BOX, values=np.pad(mu_cells, field_.grid.n // 2))
    x, y = mu.meshes()
    mu.values[np.hypot(x, y) > 1.0 - 1.0 / thr.L] = 0.0
    return mu, mu_cells


def _cells_from_solver(mu_field, grid):
    """Values of a solver-box field at the disc cell centers (see build_coefficient)."""
    o = (mu_field.n - grid.n) // 2
    return mu_field.values[o : o + grid.n, o : o + grid.n]


@dataclass(frozen=True)
class SmoothingResult:
    mu_tilde: ComplexField
    mask: np.ndarray            # cells of B
    eta: float
    off_energy: float
    max_dev_on_B: float
    k: float


def smooth_coefficient(mu, k, eps, field_, *, mu_cells):
    """Mollify mu at the largest radius whose off-B energy fits eps / K.

    B is the a-posteriori set of disc cells where the mollified coefficient
    stays within (1 - k^2) eps / (2 + eps) of the raw one; the search
    decreases eta geometrically from just under the support-to-circle
    distance and always terminates because a sub-grid radius reproduces mu
    exactly on the nodes.  mu_cells is mu on the disc cells, as
    build_coefficient returns it.
    """
    grid = field_.grid
    K = (1.0 + k) / (1.0 - k)
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
        mu_t_cells = _cells_from_solver(mu_t, grid)
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


@dataclass
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
            ("small_int_energy_A", self.term_offA_energy, e),
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


@dataclass(frozen=True)
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
    if grid.n % 2:
        # solver nodes coincide with cell centers only for even n; a
        # half-node offset breaks the coefficient comparison on the B set
        raise ValueError("pipeline needs an even grid resolution")
    e_before = fd.energy(field_)
    a_before = fd.area_intrinsic(field_)
    a_haus = fd.area_hausdorff(field_)
    eps_i = epsilon_internal(a_before, epsilon)

    delta = choose_delta(field_, eps_i)
    thr = choose_threshold(field_, delta, eps_i)
    mu, mu_cells = build_coefficient(field_, delta, thr)
    k_meas = mu.sup_norm()
    smooth = smooth_coefficient(mu, k_meas, eps_i, field_, mu_cells=mu_cells)
    k = smooth.k
    K = (1.0 + k) / (1.0 - k)

    rho = solve_beltrami(smooth.mu_tilde)
    phi = invert(rho, n=grid.n)
    e_after = fd.composed_energy(field_, phi)

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
                "mu_tilde_cells": _cells_from_solver(smooth.mu_tilde, grid),
                "k_apriori": thr.k_apriori, "k_measured": k_meas,
                "field": field_, "rho": rho},
    )
    if report.failures():
        raise PipelineBudgetExceeded(
            f"inequalities failed: {', '.join(report.failures())}", report=report)
    return phi, omega, report


# -- pointwise case audit ----------------------------------------------------------

def audit_cases(report, phi, rng, num=64):
    """Re-derive the pointwise composition bound at random sampled nodes.

    Per sampled node w of phi's domain (z the nearest disc cell of phi(w)):

      on B and A:   I2(s_z . Dphi) <= J(s_z,delta) det Dphi * (1+m)/(1-m) * (1+tol)
      on B off A:   I2(s_z . Dphi) <= I2(s_z) det Dphi * (1+m)/(1-m) * (1+tol)
      off B:        I2(s_z . Dphi) <= K * I2(s_z) det Dphi * (1+tol)

    where m is the measured coefficient of the normalized composition,
    sourced from the stored differentials rather than assumed; m itself is
    checked against epsilon_internal/(2+epsilon_internal) plus the measured
    solver deviation |mu_rho - mu_tilde| at z (scaled by 1/(1-k^2)).
    Returns the number of nodes checked.  Raises AuditFailed on failure.
    """
    field_ = report.extras["field"]
    grid = field_.grid
    amask = report.extras["A_mask"]
    bmask = report.extras["B_mask"]
    mu_cells = report.extras["mu_cells"]
    mu_t_cells = report.extras["mu_tilde_cells"]
    eps_i = report.epsilon_internal
    delta = report.delta
    k = report.k
    K = report.K

    vals, dfs, _ = phi.domain_samples()
    take = rng.choice(len(vals), size=min(num, len(vals)), replace=False)
    jd = field_.jacobian_intrinsic_density(delta)
    en = field_.energy_density()
    cells = zip(*grid.nearest_cell(vals[take].real, vals[take].imag))
    # composed integrand, exactly as the energy quadrature evaluates it
    composed = fd.composed_density(field_, vals[take], dfs[take])

    checked = 0
    for t, (i, j), lhs in zip(take, cells, composed):
        dphi = dfs[t]
        det = dphi[0, 0] * dphi[1, 1] - dphi[0, 1] * dphi[1, 0]

        # measured coefficient of rho at z, from the stored inverse differential
        drho = np.linalg.inv(dphi)
        fz, fzb = mat_to_wirtinger(drho)
        mu_rho = fzb / fz
        if bmask[i, j]:
            mu_z = mu_cells[i, j] if amask[i, j] else 0.0      # off A, m = |mu_rho|
            m = abs(mu_z - mu_rho) / abs(1.0 - mu_z * np.conj(mu_rho))
            dev = abs(mu_t_cells[i, j] - mu_rho)
            if not m <= eps_i / (2.0 + eps_i) + dev / (1.0 - k * k) + 1e-9:
                raise AuditFailed()
            rhs = ((jd if amask[i, j] else en)[i, j] * det * (1.0 + m) / (1.0 - m)
                   * (1.0 + AUDIT_TOL))
        else:
            rhs = K * en[i, j] * det * (1.0 + AUDIT_TOL)
        if not lhs <= rhs + 1e-12:
            raise AuditFailed(f"case audit failed at cell ({i},{j}): {lhs} > {rhs}")
        checked += 1
    return checked
