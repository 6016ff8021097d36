import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import qcreparam as qc
from qcreparam import field as fd
from qcreparam import lattice
from qcreparam import reparam as rp
from qcreparam.errors import AuditFailed, CoefficientTooLarge, QcreparamError, SearchExhausted

from conftest import PIPELINE_MAPS, edge_max_reference, sector_reference

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

EUCLID = qc.TargetSpace.euclidean(2)


def make_map(n, fn, target=EUCLID):
    return qc.SampledMap.from_function(qc.DiscGrid(n), target, fn)


@pytest.fixture(scope="module")
def stretch_field():
    u = make_map(96, lambda x, y: np.stack([2.0 * x, y]))
    return qc.estimate_field(u)


@pytest.fixture(scope="module")
def iso_field():
    u = make_map(96, lambda x, y: np.stack([x, y]))
    return qc.estimate_field(u)


@pytest.fixture(scope="module")
def linf_field():
    return qc.estimate_field(make_map(64, _bending, qc.TargetSpace.linf()))


class TestEpsilonInternal:
    def test_bound_satisfied(self, rng):
        for _ in range(100):
            a = rng.uniform(0.1, 50.0)
            eps = rng.uniform(1e-4, 5.0)
            e = rp.epsilon_internal(a, eps)
            assert e > 0
            assert (1 + e) * (a + e) + (1 + e) * e + e <= a + eps + 1e-9

    def test_more_generous_than_fallback(self, rng):
        for _ in range(50):
            a = rng.uniform(0.1, 50.0)
            eps = rng.uniform(1e-4, 1.0)
            assert rp.epsilon_internal(a, eps) >= eps / (a + 4.0) - 1e-15


class TestChooseDelta:
    def test_generous_budget_returns_one(self, iso_field):
        # regularizing the Euclidean field at delta=1 doubles the jacobian,
        # so any budget past the area itself accepts the first candidate
        a = qc.area_intrinsic(iso_field)
        assert rp.choose_delta(iso_field, a + 1.0) == 1.0

    def test_certified_by_direct_evaluation(self, stretch_field):
        eps = 0.1
        d = rp.choose_delta(stretch_field, eps)
        val = stretch_field.grid.integrate(
            stretch_field.jacobian_intrinsic_density(d))
        assert val <= qc.area_intrinsic(stretch_field) + eps
        # and the next-larger candidate fails (d is the largest accepted)
        if d < 1.0:
            val2 = stretch_field.grid.integrate(
                stretch_field.jacobian_intrinsic_density(2 * d))
            assert val2 > qc.area_intrinsic(stretch_field) + eps

    def test_monotone_in_eps(self, stretch_field):
        deltas = [rp.choose_delta(stretch_field, e) for e in (1.0, 0.3, 0.05)]
        assert deltas == sorted(deltas, reverse=True)


def choose_delta_reference(field_, eps):
    """choose_delta as an exact solve at every delta from 1 downward: the first
    delta whose regularized jacobian integral fits area + eps."""
    target = qc.area_intrinsic(field_) + eps
    delta = 1.0
    for _ in range(rp.DELTA_MAX_HALVINGS + 1):
        val = field_.grid.integrate(field_.jacobian_intrinsic_density(delta))
        if val <= target:
            return delta
        delta *= 0.5
    raise SearchExhausted("no regularization scale fits the area budget", achieved=val)


def fresh(field_):
    """The same field with no ellipse solved yet."""
    return fd.DerivativeField(grid=field_.grid, kind=field_.kind, rows=field_.rows,
                              index=field_.index)


def _bending(x, y):
    return np.stack([x + 0.2 * x * y, y + 0.1 * x * x])


# fields of both representations: the fixtures, the nonlinear map into l-inf
# and l1, an anisotropic linear map into l-inf and a constant (degenerate) map
DELTA_FIELDS = {
    "stretch": (EUCLID, lambda x, y: np.stack([2.0 * x, y])),
    "random-smooth": (EUCLID, PIPELINE_MAPS["random-smooth"]),
    "linf-identity": (qc.TargetSpace.linf(), lambda x, y: np.stack([x, y])),
    "linf-bending": (qc.TargetSpace.linf(), _bending),
    "l1-bending": (qc.TargetSpace.l1(), _bending),
    "linf-diag41": (qc.TargetSpace.linf(), lambda x, y: np.stack([4.0 * x, y])),
    "linf-constant": (qc.TargetSpace.linf(), lambda x, y: np.stack([0 * x + 1.0, 0 * y])),
}


@pytest.fixture(scope="module", params=sorted(DELTA_FIELDS))
def delta_field(request):
    target, fn = DELTA_FIELDS[request.param]
    return qc.estimate_field(make_map(64, fn, target))


class TestChooseDeltaSearch:
    @pytest.mark.parametrize("epsilon", [0.2 * np.pi, 0.05])
    def test_matches_top_down_search(self, delta_field, epsilon, monkeypatch):
        # the estimate from the delta = 0 ellipses, then at most two exact
        # solves, give the delta of a solve at every delta from 1 downward
        eps = rp.epsilon_internal(qc.area_intrinsic(delta_field), epsilon)
        want = choose_delta_reference(fresh(delta_field), eps)
        solves, row_ellipse = [], rp.fd.sn.row_ellipse
        monkeypatch.setattr(rp.fd.sn, "row_ellipse",
                            lambda kind, rows, delta=0.0: solves.append(delta)
                            or row_ellipse(kind, rows, delta))
        field_ = fresh(delta_field)
        assert rp.choose_delta(field_, eps) == want
        assert len([d for d in solves if d > 0]) <= 2
        # the exact check of the returned delta is the one the report shows
        val = field_.grid.integrate(field_.jacobian_intrinsic_density(want))
        assert val <= qc.area_intrinsic(field_) + eps

    @pytest.mark.parametrize("scale", [0.25, 4.0])
    def test_walks_from_a_wrong_estimate(self, delta_field, scale, monkeypatch):
        # an estimate read at 4 delta or delta / 4 starts the search two halvings
        # off; the walk down or up from there still ends at the largest fit
        eps = rp.epsilon_internal(qc.area_intrinsic(delta_field), 0.05)
        want = choose_delta_reference(fresh(delta_field), eps)
        estimate = fd.DerivativeField.jacobian_estimate
        monkeypatch.setattr(fd.DerivativeField, "jacobian_estimate",
                            lambda self, delta: estimate(self, scale * delta))
        assert rp.choose_delta(fresh(delta_field), eps) == want

    @pytest.mark.parametrize("target, rank", [(EUCLID, 0), (EUCLID, 1),
                                              (qc.TargetSpace.linf(), 0)])
    def test_exhausted_reports_the_last_value(self, target, rank):
        # a degenerate field keeps J_delta - area at delta^2 or more at every
        # delta, so no delta fits a budget of 1e-300
        f = qc.estimate_field(make_map(32, lambda x, y: np.stack([rank * x, 0 * y]), target))
        with pytest.raises(SearchExhausted) as want:
            choose_delta_reference(fresh(f), 1e-300)
        with pytest.raises(SearchExhausted) as got:
            rp.choose_delta(fresh(f), 1e-300)
        assert got.value.achieved == want.value.achieved


class TestChooseThreshold:
    def test_bounded_field_annulus(self, stretch_field):
        delta = 0.125
        thr = rp.choose_threshold(stretch_field, delta, 0.2)
        grid = stretch_field.grid
        # stretch bound 2 <= L everywhere, so A is exactly the radius cut
        expected = grid.disc_mask & (grid.radius <= 1.0 - 1.0 / thr.L)
        assert np.array_equal(thr.mask, expected)
        dens = stretch_field.energy_density()
        off = float(np.sum(dens[grid.disc_mask & ~thr.mask]) * grid.weight)
        assert off == pytest.approx(thr.off_energy)
        assert off <= 0.2

    def test_huge_budget_accepts_l_one(self, stretch_field):
        thr = rp.choose_threshold(stretch_field, 0.5, 2 * qc.energy(stretch_field))
        assert thr.L == 1.0

    def test_membership_monotone_in_l(self, stretch_field):
        grid = stretch_field.grid
        dens = np.sqrt(stretch_field.energy_density())
        masks = [grid.disc_mask & (grid.radius <= 1 - 1 / L) & (dens <= L)
                 for L in (2.0, 8.0, 64.0)]
        assert np.all(masks[0] <= masks[1]) and np.all(masks[1] <= masks[2])

    def test_off_a_energy_charged_at_k(self, stretch_field):
        # cells off A carry mu_0, so their energy counts K times: a budget
        # that the off-A energy of some L meets, but not K_L times it, needs a
        # larger L than the rule off_A <= eps picked
        grid, delta = stretch_field.grid, 0.125
        dens = stretch_field.energy_density()
        modulus = np.abs(stretch_field.beltrami_density(delta))

        def off_and_k(L):
            mask = grid.disc_mask & (grid.radius <= 1 - 1 / L) & (np.sqrt(dens) <= L)
            off = float(np.sum(dens[grid.disc_mask & ~mask]) * grid.weight)
            return off, float(modulus[mask].max(initial=0.0))

        eps, k4 = off_and_k(4.0)
        assert k4 > 0                   # so K_4 off_A(4) exceeds eps
        old_L = next(L for L in 2.0 ** np.arange(20) if off_and_k(L)[0] <= eps)
        assert old_L == 4.0
        thr = rp.choose_threshold(stretch_field, delta, eps)
        assert thr.L > old_L
        off, k = off_and_k(thr.L)
        assert thr.off_energy == off and off <= eps / ((1 + k) / (1 - k))
        assert off_and_k(thr.L / 2)[0] > eps / ((1 + k) / (1 - k))

    def test_eccentricity_formula(self, stretch_field):
        thr = rp.choose_threshold(stretch_field, 0.25, 0.1)
        assert thr.K_ecc == pytest.approx(np.sqrt(2 * thr.L**2 / 0.25**2 + 2))


class TestBuildCoefficient:
    def test_isotropic_field_zero(self, iso_field):
        thr = rp.choose_threshold(iso_field, 0.5, 0.1)
        mu = rp.build_coefficient(iso_field, 0.5, thr)
        assert mu.sup_norm() <= 1e-12

    def test_constant_field_modulus_shrinks_with_delta(self, stretch_field):
        values = []
        for delta in (0.125, 0.5, 2.0):
            thr = rp.choose_threshold(stretch_field, delta, 0.2)
            mu_cells = stretch_field.grid.box_cells(
                rp.build_coefficient(stretch_field, delta, thr).values)
            on = thr.mask & (np.abs(mu_cells) > 0)
            vals = np.abs(mu_cells[on])
            assert vals.max() < 1 / 3
            assert vals.max() == pytest.approx(vals.min(), rel=1e-9)
            values.append(vals.max())
        assert values == sorted(values, reverse=True)

    def test_sup_bounded_by_apriori(self, rng):
        c = rng.normal(scale=0.2, size=4)
        u = make_map(64, lambda x, y: np.stack([
            x + c[0] * np.sin(np.pi * x) + c[1] * y**2,
            y + c[2] * np.cos(np.pi * y) + c[3] * x * y]))
        f = qc.estimate_field(u)
        delta = rp.choose_delta(f, 0.3)
        thr = rp.choose_threshold(f, delta, 0.3)
        mu = rp.build_coefficient(f, delta, thr)
        assert mu.sup_norm() <= (thr.K_ecc - 1) / (thr.K_ecc + 1) + 1e-12

    @pytest.mark.parametrize("name", ["stretch_field", "linf_field"], ids=["quadratic", "linf"])
    def test_matches_the_nearest_cell_gather(self, name, request):
        # the padded disc grid against the gathers it replaced: each box
        # node took its nearest disc cell, then the radius cut applied, and
        # each disc cell read its nearest box node.  A holds the cells that
        # choose_threshold's rule keeps at L = 2, so the cut |z| = 1/2 runs
        # through disc cells, and on the stretch field (stretch 2 up to
        # rounding) A also leaves out cells inside the cut.  Every node off A
        # holds mu_0.
        f = request.getfixturevalue(name)
        grid, L = f.grid, 2.0
        cut = 1.0 - 1.0 / L
        mask = grid.disc_mask & (grid.radius <= cut) & (np.sqrt(f.energy_density()) <= L)
        assert np.any(grid.disc_mask & (grid.radius > cut))
        thr = rp.ThresholdResult(L=L, mask=mask, off_energy=0.0, K_ecc=0.0)
        mu = rp.build_coefficient(f, 0.125, thr)
        mu0 = rp.coefficient_offset(f.beltrami_density(0.125)[mask])
        assert mu0 != 0 and mu.offset == mu0
        x, y = mu.meshes()
        ref = np.where(mask, f.beltrami_density(0.125), mu0)[grid.nearest_cell(x, y)]
        beyond = np.hypot(x, y) > cut
        ref[beyond] = mu0
        assert mu.values.tobytes() == ref.tobytes()
        assert np.all(mu.values[beyond] == mu0)
        i, j = (lattice.nearest(c, -mu.S, mu.spacing, mu.n) for c in (grid.x, grid.y))
        assert grid.box_cells(mu.values).tobytes() == mu.values[i, j].tobytes()

    def test_offset_lowers_the_contraction_bound(self, rng):
        # the midrange where it lowers sup |mu - mu_0| / (1 - |mu_0|) below
        # sup |mu|, else 0
        mu = 0.4 + 0.1j + 0.05 * (rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500))
        mu0 = rp.coefficient_offset(mu)
        re, im = mu.real, mu.imag
        assert mu0 == complex(0.5 * (re.min() + re.max()), 0.5 * (im.min() + im.max()))
        assert np.abs(mu - mu0).max() / (1 - abs(mu0)) < 0.125 < np.abs(mu).max()
        # values around 0: no offset lowers the bound
        assert rp.coefficient_offset(np.array([0.3, -0.3, 0.3j, -0.3j])) == 0
        assert rp.coefficient_offset(np.array([0.5, -0.5, 0.49j])) == 0
        assert rp.coefficient_offset(np.zeros(0, dtype=complex)) == 0
        # a constant is its own offset
        assert rp.coefficient_offset(np.full(7, 0.2 - 0.3j)) == 0.2 - 0.3j

    def test_support_inside_radius_cut(self, stretch_field):
        thr = rp.choose_threshold(stretch_field, 0.125, 0.2)
        mu = rp.build_coefficient(stretch_field, 0.125, thr)
        assert mu.support_radius() <= 1.0 - 1.0 / thr.L + 1e-12


def five_smooth(m):
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


class TestSolverBox:
    """The solver box pads the disc grid by solver_padding(n) whole cells."""

    def test_padding_rule_on_every_grid(self):
        # every even n that reparam accepts: the fewest p >= 2 with n + 2p
        # 5-smooth, a box [-S, S]^2 with S > 1 whose spacing is h to rounding,
        # and the nearest box node of disc cell i is i + p
        for n in range(32, 1025, 2):
            p = rp.solver_padding(n)
            N = n + 2 * p
            assert p >= rp.SOLVER_PAD_MIN and (N - n) % 2 == 0 and five_smooth(N)
            assert not any(five_smooth(n + 2 * q) for q in range(rp.SOLVER_PAD_MIN, p))
            grid, S = qc.DiscGrid(n), N / n
            spacing = 2.0 * S / N                       # as ComplexField.spacing
            assert S > 1 and abs(spacing - grid.h) <= 1e-12 * grid.h
            coords = lattice.centers(-S, spacing, N)
            assert np.abs(coords[p:p + n] - grid.centers).max() <= 1e-12 * grid.h
            assert np.array_equal(lattice.nearest(grid.centers, -S, spacing, N),
                                  np.arange(n) + p)
        assert [rp.solver_padding(n) * 2 + n for n in (32, 64, 128)] == [36, 72, 144]

    def test_build_coefficient_box(self, stretch_field):
        thr = rp.choose_threshold(stretch_field, 0.125, 0.2)
        mu = rp.build_coefficient(stretch_field, 0.125, thr)
        n, p = 96, rp.solver_padding(96)
        assert mu.n == n + 2 * p == 100 and mu.S == 100 / 96
        ring = np.ones(mu.values.shape, dtype=bool)
        ring[p:p + n, p:p + n] = False
        assert np.all(mu.values[ring] == mu.offset)

    @pytest.mark.parametrize("n", [36, 42, 54, 70])
    def test_reparam_where_the_box_spacing_rounds(self, capsys, tmp_path, n):
        # on n = 36 and 54 the box spacing 2S / N misses h = 2 / n by an ulp,
        # and a padding of n // 8 cells missed it on all four: composed_energy's
        # spacing check admits that rounding
        from qcreparam.cli import main

        path, out = tmp_path / "st.map", tmp_path / "out"
        assert main(["fixture", "--kind", "stretch", "--n", str(n), "--out", str(path)]) == 0
        assert main(["reparam", "--input", str(path), "--epsilon", "0.6283",
                     "--outdir", str(out)]) == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        assert "\nstatus = ok\n" in report
        assert f"\nsolver_n = {n + 2 * rp.solver_padding(n)}\n" in report

    def test_composed_energy_refuses_rho_off_the_cells(self):
        from dataclasses import replace

        from conftest import linear_qcmap

        f = qc.estimate_field(make_map(54, lambda x, y: np.stack([x, y])))
        p = rp.solver_padding(54)
        rho = linear_qcmap(np.eye(2), box=(54 + 2 * p) / 54, n=54 + 2 * p)
        assert qc.composed_energy(f, rho) == qc.energy(f)
        h = f.grid.h
        for bad in (replace(rho, x0=rho.x0 + 0.5 * h),                 # half a cell
                    replace(rho, x0=rho.x0 + 0.5 * h, y0=rho.y0 + 0.5 * h),
                    replace(rho, spacing=rho.spacing * (1 + 1e-6)),     # another spacing
                    linear_qcmap(np.eye(2), box=(54 + 2 * p) / 54 * (1 + 1e-6),
                                 n=54 + 2 * p)):
            with pytest.raises(ValueError, match="disc cell centres"):
                qc.composed_energy(f, bad)

    def test_grid_range_unchanged(self):
        # reparam accepts the n whose [-2, 2]^2 box of 2n nodes had a solver
        # resolution in [64, 2048], and no other
        from qcreparam import cli
        from qcreparam.errors import ConfigError

        for n in range(1, 2100):
            try:
                cli._check_grid_resolution(n)
                accepted = True
            except ConfigError:
                accepted = False
            assert accepted == (64 <= 2 * n <= 2048)

    @pytest.mark.parametrize("name", ["stretch", "random-smooth", "quad-linf", "half-collapse"])
    def test_energy_does_not_depend_on_the_box(self, monkeypatch, name):
        # the pipeline's mollified coefficient, solved on its own box and on the
        # disc grid padded by n/2 cells ([-2, 2]^2): the two solutions differ by a
        # map conformal on the disc, which the composed energy does not see
        from dataclasses import replace

        from qcreparam import beltrami

        target, fn = {
            "stretch": (EUCLID, PIPELINE_MAPS["stretch"]),
            "random-smooth": (EUCLID, PIPELINE_MAPS["random-smooth"]),
            "quad-linf": (qc.TargetSpace.linf(),
                          lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x])),
            "half-collapse": (EUCLID, lambda x, y: np.stack([np.minimum(x, 0.0), y])),
        }[name]
        n, p = 64, rp.solver_padding(64)
        phi, _, rep = qc.epsilon_conformal(make_map(n, fn, target), 0.2 * np.pi)
        f, rho, cells = rep.extras["field"], rep.extras["rho"], rep.extras["mu_tilde_cells"]
        mu0 = cells[0, 0]                       # a corner cell, outside the disc
        fitted = qc.ComplexField(S=(n + 2 * p) / n, values=np.pad(cells, p, constant_values=mu0))
        wide = qc.ComplexField(S=2.0, values=np.pad(cells, n // 2, constant_values=mu0))
        # the coefficient rho solved, rebuilt from its disc cells
        assert qc.solve_beltrami(fitted).values.tobytes() == rho.values.tobytes()
        rho_wide = qc.solve_beltrami(wide)
        assert (rho.shape[0], rho_wide.shape[0]) == (72, 128)
        rng = np.random.default_rng(7)
        assert rp.audit_cases(rep, phi, rng) == 64
        assert rp.audit_cases(replace(rep, extras={**rep.extras, "rho": rho_wide}), None, rng) == 64
        # both solves stop within ITER_TOL of their fixed points; the energies'
        # gap follows that tolerance (1.0e-12 relative on the half collapse at
        # the default 1e-12, 1.3e-14 at 1e-14), so compare at 1e-14
        monkeypatch.setattr(beltrami, "ITER_TOL", 1e-14)
        e_fitted = qc.composed_energy(f, qc.solve_beltrami(fitted))
        e_wide = qc.composed_energy(f, qc.solve_beltrami(wide))
        assert e_wide == pytest.approx(e_fitted, rel=1e-12, abs=0)
        assert e_fitted == pytest.approx(rep.energy_after, rel=1e-12, abs=0)


class TestSmoothCoefficient:
    def test_zero_coefficient(self, iso_field):
        thr = rp.choose_threshold(iso_field, 0.5, 0.1)
        mu = rp.build_coefficient(iso_field, 0.5, thr)
        sm = rp.smooth_coefficient(mu, 0.1, iso_field)
        assert sm.mu_tilde.sup_norm() <= 1e-12
        assert np.all(sm.mask[iso_field.grid.disc_mask])
        assert sm.off_energy == 0.0

    def test_sup_never_grows(self, stretch_field):
        delta = 0.125
        thr = rp.choose_threshold(stretch_field, delta, 0.2)
        mu = rp.build_coefficient(stretch_field, delta, thr)
        sm = rp.smooth_coefficient(mu, 0.2, stretch_field)
        assert sm.mu_tilde.sup_norm() <= sm.k + 1e-15
        assert sm.k >= mu.sup_norm()

    def test_budget_certified(self, stretch_field):
        delta = 0.125
        thr = rp.choose_threshold(stretch_field, delta, 0.2)
        mu = rp.build_coefficient(stretch_field, delta, thr)
        sm = rp.smooth_coefficient(mu, 0.2, stretch_field)
        assert sm.off_energy <= 0.2 / ((1 + sm.k) / (1 - sm.k))
        assert sm.max_dev_on_B <= (1 - sm.k**2) * 0.2 / 2.2 + 1e-15

    def test_exhausted_search_reports_least_off_energy(self, iso_field, monkeypatch):
        # mu = 0.3 on |z| <= 0.7 gives five radii; the k-th comes back off by
        # 0.5 on a disc of radius radii[k], so none fits and the least off-B
        # energy is neither the first nor the last try's
        grid, eps, k = iso_field.grid, 1e-3, 0.3
        x, y = qc.ComplexField(S=2.0, values=np.zeros((2 * grid.n, 2 * grid.n))).meshes()
        mu = qc.ComplexField(S=2.0, values=np.where(np.hypot(x, y) <= 0.7, k, 0.0) + 0j)
        mu_cells = grid.box_cells(mu.values)
        radii, tried = [0.2, 0.1, 0.6, 0.05, 0.9], []
        mollify = rp.mollify

        def perturbed(m, eta):
            bump = 0.5 * (np.hypot(x, y) < radii[len(tried)])
            tried.append(qc.ComplexField(S=m.S, values=mollify(m, eta).values + bump))
            return tried[-1]

        monkeypatch.setattr(rp, "mollify", perturbed)
        with pytest.raises(SearchExhausted) as info:
            rp.smooth_coefficient(mu, eps, iso_field)
        bound = (1 - k * k) * eps / (2 + eps)
        dens = iso_field.energy_density()
        offs = []
        for mu_t in tried:
            dev = np.abs(mu_cells - grid.box_cells(mu_t.values))
            offs.append(float(np.sum(dens[grid.disc_mask & ~(dev <= bound)]) * grid.weight))
        assert len(tried) == len(radii) and min(offs) < min(offs[0], offs[-1])
        assert info.value.achieved == min(offs)


class TestPipeline:
    def test_identity_map(self):
        u = make_map(96, lambda x, y: np.stack([x, y]))
        phi, omega, rep = qc.epsilon_conformal(u, 0.5)
        assert rep.failures() == []
        assert rep.energy_after == pytest.approx(np.pi, rel=0.02)
        assert rep.k <= 1e-9
        assert omega.area == pytest.approx(np.pi, rel=0.02)

    def test_stretch_map_report(self):
        u = make_map(96, lambda x, y: np.stack([2.0 * x, y]))
        eps = 0.2 * np.pi
        phi, omega, rep = qc.epsilon_conformal(u, eps)
        assert rep.failures() == []
        for name, lhs, rhs, slack in rep.inequalities():
            assert slack >= 0, name
        assert rep.energy_before == pytest.approx(4 * np.pi, rel=0.02)
        assert rep.energy_after <= rep.area_before + eps + rep.quad_budget
        # the claimed bound composes to at most area + epsilon
        assert rep.bound_claimed <= rep.area_before + eps + 1e-9
        # internal consistency of the reported constants
        assert 0 <= rep.k < 1
        assert rep.K == pytest.approx((1 + rep.k) / (1 - rep.k), rel=1e-12)
        assert rep.K_ecc == pytest.approx(
            np.sqrt(2 * rep.L_threshold**2 / rep.delta**2 + 2), rel=1e-12)
        assert rep.k <= (rep.K_ecc - 1) / (rep.K_ecc + 1) + 1e-12

    def test_monotone_certified_bound(self):
        u = make_map(64, lambda x, y: np.stack([2.0 * x, y]))
        _, _, r1 = qc.epsilon_conformal(u, 0.9)
        _, _, r2 = qc.epsilon_conformal(u, 0.45)
        assert r2.bound_claimed <= r1.bound_claimed + 1e-12

    def test_gauge_rotation_invariance(self):
        # a rotation after rho leaves I2(s . Drho^-1) det Drho cell by cell
        u = make_map(96, lambda x, y: np.stack([2.0 * x, y]))
        f = qc.estimate_field(u)
        phi, _, rep = qc.epsilon_conformal(u, 0.2 * np.pi)
        rho = rep.extras["rho"]
        e_rot = qc.composed_energy(f, rho.rotated(1.1))
        assert e_rot == pytest.approx(rep.energy_after, rel=1e-12)

    def test_case_audit(self, rng):
        u = make_map(96, lambda x, y: np.stack([2.0 * x, y]))
        phi, _, rep = qc.epsilon_conformal(u, 0.2 * np.pi)
        assert qc.audit_cases(rep, phi, rng, num=96) == 96

    def test_case_audit_failure_is_typed(self, monkeypatch):
        # both checks fail with AuditFailed, also under python -O, which strips
        # assert statements: a NaN mollified coefficient on B leaves m no bound
        # to meet, and a composed integrand far above every bound fails the
        # energy check
        script = textwrap.dedent("""
            import numpy as np
            import qcreparam as qc
            from qcreparam import field as fd

            u = qc.SampledMap.from_function(qc.DiscGrid(32), qc.TargetSpace.euclidean(2),
                                            lambda x, y: np.stack([2.0 * x, y]))
            phi, _, rep = qc.epsilon_conformal(u, 0.2 * np.pi)

            def audit():
                try:
                    qc.audit_cases(rep, phi, np.random.default_rng(0), num=16)
                except qc.errors.AuditFailed as exc:
                    print(__debug__, type(exc).__name__, exc)

            cells = rep.extras["mu_tilde_cells"]
            rep.extras["mu_tilde_cells"] = np.where(rep.extras["B_mask"], np.nan, cells)
            audit()
            rep.extras["mu_tilde_cells"] = cells
            fd.composed_density = lambda field_, pts, df: np.full(len(pts), 1e9)
            audit()
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        coeff, energy = run.stdout.splitlines()
        assert re.fullmatch(r"False AuditFailed case audit failed at cell \(\d+,\d+\): "
                            r"coefficient \S+ > nan", coeff)
        assert re.fullmatch(r"False AuditFailed case audit failed at cell \(\d+,\d+\): "
                            r"\S+ > \S+", energy)

        u = make_map(32, lambda x, y: np.stack([2.0 * x, y]))
        phi, _, rep = qc.epsilon_conformal(u, 0.2 * np.pi)
        cells = rep.extras["mu_tilde_cells"]
        rep.extras["mu_tilde_cells"] = np.where(rep.extras["B_mask"], np.nan, cells)
        with pytest.raises(AuditFailed, match=r"case audit failed at cell .*: coefficient"):
            qc.audit_cases(rep, phi, np.random.default_rng(0), num=16)
        rep.extras["mu_tilde_cells"] = cells
        monkeypatch.setattr(fd, "composed_density",
                            lambda field_, pts, df: np.full(len(pts), 1e9))
        with pytest.raises(AuditFailed, match="case audit failed at cell") as err:
            qc.audit_cases(rep, phi, np.random.default_rng(0), num=16)
        assert isinstance(err.value, QcreparamError)
        assert isinstance(err.value, AssertionError)

    def test_report_rendering_marks_failures(self):
        u = make_map(64, lambda x, y: np.stack([x, y]))
        _, _, rep = qc.epsilon_conformal(u, 0.5)
        assert "status = ok" in rep.render()
        rep.energy_after = 1e9
        assert "budget-exceeded" in rep.render()
        assert "final_integrated_bound" in ",".join(rep.failures())
        rep.energy_after = np.nan           # a NaN slack is no pass
        assert rep.render().endswith(
            "status = budget-exceeded final_integrated_bound,headline\n")

    def test_determinism(self):
        u = make_map(64, lambda x, y: np.stack([2.0 * x, y]))
        _, _, r1 = qc.epsilon_conformal(u, 0.5, seed=11)
        _, _, r2 = qc.epsilon_conformal(u, 0.5, seed=11)
        assert r1.render() == r2.render()

    def test_rejects_nonpositive_epsilon(self):
        u = make_map(64, lambda x, y: np.stack([x, y]))
        with pytest.raises(ValueError):
            qc.epsilon_conformal(u, 0.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_epsilon(self, epsilon):
        u = make_map(32, lambda x, y: np.stack([x, y]))
        with pytest.raises(ValueError, match="finite and positive"):
            qc.epsilon_conformal(u, epsilon)

    @pytest.mark.parametrize("quad_rel", [np.nan, np.inf, -0.5])
    def test_rejects_bad_quad_budget(self, quad_rel):
        u = make_map(32, lambda x, y: np.stack([x, y]))
        with pytest.raises(ValueError, match="finite and non-negative"):
            qc.epsilon_conformal(u, 0.5, quad_rel=quad_rel)

    @pytest.mark.parametrize("target", [EUCLID, qc.TargetSpace.linf()], ids=["quadratic", "linf"])
    def test_cells_beyond_the_ring_are_never_read(self, target):
        # every cell off the disc, |z| >= 1, points to an appended NaN row:
        # the report keeps its bytes, as build_coefficient selects the
        # Beltrami density on A rather than multiplying it by the A mask
        f = qc.estimate_field(make_map(64, _bending, target))
        grid = f.grid
        beyond = ~grid.disc_mask
        assert np.count_nonzero(beyond) == 868
        sentinel = np.full((1, f.rows.shape[1]), np.nan)
        g = fd.DerivativeField(grid=grid, kind=f.kind, rows=np.vstack([f.rows, sentinel]),
                               index=np.where(beyond, len(f.rows), f.index))
        want = rp.epsilon_conformal_from_field(f, 0.2 * np.pi)[2].render()
        assert rp.epsilon_conformal_from_field(g, 0.2 * np.pi)[2].render() == want


class TestSearchFailure:
    def test_search_exhausted_carries_achieved(self):
        err = SearchExhausted("nope", achieved=0.7)
        assert err.achieved == 0.7


class TestMollificationBand:
    def test_band_width_scales_with_eta(self):
        # constant coefficient supported on a wide disc: the set where the
        # mollified field strays from the raw one is a boundary band whose
        # measure scales linearly with the radius
        n = 192
        f0 = qc.ComplexField(S=2.0, values=np.zeros((2 * n, 2 * n), dtype=complex))
        x, y = f0.meshes()
        mu = qc.ComplexField(S=2.0, values=np.where(np.hypot(x, y) <= 0.75,
                                                    0.3, 0.0).astype(complex))
        field = qc.estimate_field(qc.SampledMap.from_function(
            qc.DiscGrid(n), qc.TargetSpace.euclidean(2),
            lambda a, b: np.stack([a, b])))
        grid = field.grid
        mu_cells = grid.box_cells(mu.values)
        bound = 0.05
        measures = []
        for eta in (0.2, 0.1, 0.05):
            sm = qc.mollify(mu, eta)
            dev = np.abs(mu_cells - grid.box_cells(sm.values))
            band = grid.disc_mask & (dev > bound)
            measures.append(float(np.sum(band) * grid.weight))
        ratios = [measures[i] / measures[i + 1] for i in range(2)]
        assert all(1.4 <= r <= 2.8 for r in ratios)

    def test_smooth_coefficient_accepts_wide_eta_when_budget_allows(self):
        # with a generous budget the search accepts a genuinely smoothing
        # radius (well above the grid spacing)
        n = 96
        field = qc.estimate_field(qc.SampledMap.from_function(
            qc.DiscGrid(n), qc.TargetSpace.euclidean(2),
            lambda a, b: np.stack([a, b])))
        f0 = qc.ComplexField(S=2.0, values=np.zeros((2 * n, 2 * n), dtype=complex))
        x, y = f0.meshes()
        mu = qc.ComplexField(S=2.0, values=np.where(np.hypot(x, y) <= 0.7,
                                                    0.3, 0.0).astype(complex))
        sm = rp.smooth_coefficient(mu, 2.0, field)
        assert sm.eta > 2 * mu.spacing
        assert sm.off_energy <= 2.0 / ((1 + 0.3) / (1 - 0.3))


class TestPipelineVaryingFields:
    """Non-constant derivative fields exercise the coefficient construction
    spatially; the acceptance fixtures are all constant-derivative."""

    @pytest.mark.parametrize("seed", [0, 2])
    def test_random_smooth_pushforward(self, seed):
        r = np.random.default_rng(seed)
        c = r.normal(scale=0.1, size=6)
        u = make_map(128, lambda x, y: np.stack([
            x + c[0] * np.sin(np.pi * x) * np.cos(np.pi * y) + c[1] * x * y,
            y + c[2] * np.cos(np.pi * x) * np.sin(np.pi * y) + c[3] * x * x
            + c[4] * y + c[5] * x]))
        phi, omega, rep = qc.epsilon_conformal(u, 0.3)
        assert rep.failures() == []
        assert rep.energy_after <= rep.area_before + 0.3 + rep.quad_budget
        assert qc.audit_cases(rep, phi, np.random.default_rng(5), num=64) == 64

    def test_strong_anisotropy(self):
        u = make_map(128, lambda x, y: np.stack([3.0 * x, 0.5 * y]))
        phi, omega, rep = qc.epsilon_conformal(u, 0.5)
        assert rep.failures() == []
        # energy collapses from 9 pi to within epsilon of 1.5 pi
        assert rep.energy_before == pytest.approx(9 * np.pi, rel=0.02)
        assert rep.energy_after <= rep.area_before + 0.5 + rep.quad_budget

    def test_l1_identity_is_fixed_point(self):
        u = make_map(128, lambda x, y: np.stack([x, y]), qc.TargetSpace.l1())
        phi, omega, rep = qc.epsilon_conformal(u, 0.4)
        assert rep.failures() == []
        assert np.max(np.abs(rep.extras["mu_cells"])) <= 1e-9
        assert rep.energy_after == pytest.approx(rep.energy_before, rel=0.02)


class TestChooseDeltaClosedForm:
    def test_scaled_identity_inflation(self):
        # derivative 3*Id: regularizing at delta inflates the jacobian from
        # 9 to sqrt((9 + d^2)(9 + d^2)); delta = 1 fits a budget past pi
        u = make_map(96, lambda x, y: np.stack([3.0 * x, 3.0 * y]))
        f = qc.estimate_field(u)
        assert qc.area_intrinsic(f) == pytest.approx(9 * np.pi, rel=0.02)
        assert rp.choose_delta(f, 1.1 * np.pi) == 1.0
        assert rp.choose_delta(f, 0.5 * np.pi) == 0.5


def _workload_maps():
    """(label, target, n, fn) of the benchmark's map pools at seeds 2026 and 4711
    (bench/workloads.py, read by path)."""
    import importlib.util

    path = os.path.join(os.path.dirname(SRC), "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads          # its dataclass looks its module up
    spec.loader.exec_module(workloads)
    for seed in (2026, 4711):
        for w in workloads.WORKLOADS.values():
            target = EUCLID if w.target == "euclidean" else qc.TargetSpace.linf()
            for k, fn in enumerate(w.make(np.random.default_rng(seed), w.pool, w.n)):
                yield f"{w.name} {seed} map{k}", target, w.n, fn


def _rotation(t):
    return lambda x, y: np.stack([np.cos(t) * x - np.sin(t) * y, np.sin(t) * x + np.cos(t) * y])


class TestDiscEnergy:
    """energy_after integrates over the disc cells, as the areas do."""

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("name", ["rotation-R2", "swap-linf", "rotation-linf"])
    def test_conformal_maps_keep_energy_equal_to_area(self, name, n):
        # mu = 0 up to rounding: rho is the identity up to rounding and the
        # reparametrized energy is the area, cell by cell
        target, fn = {"rotation-R2": (EUCLID, _rotation(0.3)),
                      "swap-linf": (qc.TargetSpace.linf(), lambda x, y: np.stack([-y, x])),
                      "rotation-linf": (qc.TargetSpace.linf(), _rotation(0.3))}[name]
        rep = qc.epsilon_conformal(make_map(n, fn, target), 0.2 * np.pi)[2]
        assert rep.failures() == []
        assert rep.energy_after == pytest.approx(rep.area_before, rel=1e-12, abs=0)
        assert rep.solver_iterations == 1

    def test_rotated_linf_identity_gets_the_identity_eta(self):
        # the rotated field's mu is rounding noise, which no longer counts as
        # coefficient support (it set eta = 0.0086 instead of 0.9)
        reps = [qc.epsilon_conformal(make_map(64, fn, qc.TargetSpace.linf()), 0.2 * np.pi)[2]
                for fn in (lambda x, y: np.stack([x, y]), _rotation(0.3))]
        assert 0 < np.abs(reps[1].extras["mu_cells"]).max() < 1e-14
        assert reps[0].eta == reps[1].eta == 0.9

    def test_fixture_and_pool_energies_dominate_area(self):
        # I2(s . B) det B^-1 >= J(s) on every cell, up to the ellipse
        # certificate's GAP_TOL
        from qcreparam.seminorm import GAP_TOL

        fixtures = [(f"{kind} n={n}", target, n, fn)
                    for kind, target, fn in (("stretch", EUCLID, PIPELINE_MAPS["stretch"]),
                                             ("random-smooth", EUCLID,
                                              PIPELINE_MAPS["random-smooth"]),
                                             ("identity", EUCLID, lambda x, y: np.stack([x, y])),
                                             ("linf-identity", qc.TargetSpace.linf(),
                                              lambda x, y: np.stack([x, y])))
                    for n in (64, 128)]
        for label, target, n, fn in fixtures + list(_workload_maps()):
            rep = qc.epsilon_conformal(make_map(n, fn, target), 0.2 * np.pi)[2]
            assert rep.failures() == [], label
            assert rep.energy_after >= (1 - GAP_TOL) * rep.area_before, label

    def test_energy_reads_the_solved_coefficient(self):
        # the composed density depends on Drho only through its Beltrami
        # coefficient, and at the nodes rho's exact derivative carries the
        # solved one: energy_after integrates I2(s_z . A^-1) det A with A the
        # map v -> v + mu_tilde(z) conj(v), the same for every Drho with that
        # coefficient
        rep = qc.epsilon_conformal(make_map(64, PIPELINE_MAPS["random-smooth"]),
                                   0.2 * np.pi)[2]
        f = rep.extras["field"]
        disc = f.grid.disc_mask
        mu_t = rep.extras["mu_tilde_cells"][disc]
        dens = np.zeros(disc.shape)
        for fz in (1.0, 0.7 - 1.9j):
            dens[disc] = fd.composed_density(f, f.index[disc],
                                             qc.wirtinger_to_mat(np.full_like(mu_t, fz), fz * mu_t))
            assert rep.energy_after == pytest.approx(f.grid.integrate(dens), rel=1e-9)

    def test_searches_aim_at_a_share_of_the_budget(self):
        for fn in (PIPELINE_MAPS["random-smooth"], PIPELINE_MAPS["stretch"]):
            rep = qc.epsilon_conformal(make_map(64, fn), 0.2 * np.pi)[2]
            share = rp.SEARCH_SHARE * rep.epsilon_internal
            assert rep.term_regularized_area - rep.area_before <= share
            k_a = np.abs(rep.extras["mu_cells"][rep.extras["A_mask"]]).max()
            assert rep.term_offA_energy * (1 + k_a) / (1 - k_a) <= share

    def test_euclid_pool_excess_is_a_small_share_of_epsilon(self):
        # the excess over the area, a max over the pool, was 0.05-0.10 epsilon
        # by seed, with the dyadic step each map's searches landed on and with
        # the central differences across mu's jump; over seeds 11-20,
        # 1301-1310 and 2001-2010 its max is now 0.0023-0.0039 epsilon
        eps = 0.2 * np.pi
        for label, target, n, fn in _workload_maps():
            if label.startswith("euclid"):
                rep = qc.epsilon_conformal(make_map(n, fn, target), eps)[2]
                assert rep.energy_after - rep.area_before <= 0.01 * eps, label

    def test_degenerate_map_falls_back_to_the_full_allowance(self):
        # (x, 0): at SEARCH_SHARE e the regularized coefficient reaches
        # sup |mu| >= 0.98, which the solver refuses; with the full e it
        # solves in one step, as before the share
        u = make_map(32, lambda x, y: np.stack([x, 0 * y]))
        rep = qc.epsilon_conformal(u, 0.2 * np.pi)[2]
        assert rep.failures() == [] and rep.solver_iterations == 1
        f, e = rep.extras["field"], rep.epsilon_internal
        assert rep.delta == rp.choose_delta(f, e)
        share = rp.SEARCH_SHARE * e
        delta = rp.choose_delta(f, share)
        mu = rp.build_coefficient(f, delta, rp.choose_threshold(f, delta, share))
        with pytest.raises(CoefficientTooLarge):
            qc.solve_beltrami(rp.smooth_coefficient(mu, e, f).mu_tilde)

    @pytest.mark.parametrize("k", [6, 7])
    def test_anisotropic_sweep_maps_now_pass(self, k):
        # maps 6 (stretch 25.2 into R^2, NoConvergence before) and 7 (stretch
        # 16.4 into l-inf, NewtonDiverged before) of the sweep of 40 linear
        # maps drawn from default_rng(12345): each now solves in one step
        a, eps, target = {
            6: ([[-0.777361343810768, 0.8286331955673406],
                 [0.9589883130180109, -1.2093882869743162]], 1.1957071891025877, EUCLID),
            7: ([[-0.5415468299050529, 0.7519393955576869],
                 [0.6587603195674528, -1.2286749856452768]], 0.13726855649538858,
                qc.TargetSpace.linf())}[k]
        a = np.array(a)
        u = make_map(64, lambda x, y: np.einsum("ab,bij->aij", a, np.stack([x, y])), target)
        phi, _, rep = qc.epsilon_conformal(u, eps)
        assert rep.failures() == []
        assert rep.solver_iterations == 1
        assert rep.phi_inv_residual <= qc.beltrami.INV_TOL
        assert rep.area_before <= rep.energy_after
        assert qc.audit_cases(rep, phi, np.random.default_rng(0), num=64) == 64


class TestPipelineEdges:
    def test_constant_map_degenerate_field(self):
        u = make_map(64, lambda x, y: np.stack([0 * x + 1.0, 0 * y]))
        phi, omega, rep = qc.epsilon_conformal(u, 0.5)
        assert rep.failures() == []
        assert rep.energy_after == 0.0
        assert rep.k == 0.0

    @pytest.mark.parametrize("n", [32, 64])
    def test_constant_map_into_linf_keeps_its_energy(self, n):
        # the field of a constant map is rounding noise, and some of its rows
        # are dented and degenerate, so the field leaves them as measured; the
        # max over all edges then read energy_after 400 times energy_before
        u = make_map(n, lambda x, y: np.stack([0 * x + 0.3, 0 * y - 0.2]), qc.TargetSpace.linf())
        rep = qc.epsilon_conformal(u, 0.2 * np.pi)[2]
        assert rep.failures() == []
        assert rep.energy_after <= rep.energy_before * (1.0 + 1e-9)

    def test_localized_spike_binds_stretch_cut(self):
        def spike(x, y):
            r2 = ((x - 0.2) ** 2 + y**2) / 0.05**2
            return np.stack([x + 3.0 * np.exp(-r2) * (x - 0.2), y])
        u = make_map(128, spike)
        phi, omega, rep = qc.epsilon_conformal(u, 0.4)
        assert rep.failures() == []
        assert rep.energy_after <= rep.area_before + 0.4 + rep.quad_budget

    @pytest.mark.parametrize("n", [33, 45, 97])
    @pytest.mark.parametrize("name", ["stretch", "random-smooth", "linf-identity"])
    def test_odd_resolution(self, name, n):
        # an odd grid pads to an odd 5-smooth solver box (45, 75 and 125 nodes),
        # whose nodes sit on the cell centres as an even grid's do
        target, fn = DELTA_FIELDS[name]
        phi, _, rep = qc.epsilon_conformal(make_map(n, fn, target), 0.2 * np.pi)
        assert rep.failures() == []
        assert qc.audit_cases(rep, phi, np.random.default_rng(0), num=256) == 256

    def test_anisotropic_polygonal_target(self):
        # (2x, y) into the sup-norm plane: cell balls are the rectangle
        # [-1/2, 1/2] x [-1, 1] (inscribed ellipse semi-axes (1/2, 1), ball
        # area 2), so E = 4pi, intrinsic area 2pi, ball-area pi^2/2, and the
        # rounding coefficient matches the quadratic diag(4, 1) case
        u = make_map(128, lambda x, y: np.stack([2.0 * x, y]),
                     qc.TargetSpace.linf())
        f = qc.estimate_field(u)
        assert f.kind == "sampled"
        assert qc.energy(f) == pytest.approx(4 * np.pi, rel=0.02)
        assert qc.area_intrinsic(f) == pytest.approx(2 * np.pi, rel=0.02)
        assert qc.area_hausdorff(f) == pytest.approx(np.pi**2 / 2, rel=0.02)
        phi, omega, rep = qc.epsilon_conformal(u, 0.2 * np.pi)
        assert rep.failures() == []
        assert rep.energy_after <= rep.area_before + 0.2 * np.pi + rep.quad_budget
        assert rep.k == pytest.approx(1 / 3, abs=0.01)
        assert qc.audit_cases(rep, phi, np.random.default_rng(5), num=48) == 48


def report_numbers(text):
    """{key: float} of every number in a rendered report, each inequality's
    lhs, rhs and slack under "name.lhs" and so on."""
    out = {}
    for line in text.splitlines():
        if " : " in line:
            name, terms = line.split(" : ")
            out.update((f"{name}.{k}", float(v)) for k, v in
                       (term.split(" = ") for term in terms.split(" ; ")))
        elif " = " in line and not line.startswith(("seed", "status")):
            key, value = line.split(" = ")
            out[key] = float(value)
    return out


class TestSampledLayerDifferential:
    """The sampled field layer against plain numpy forms: np.unique(axis=0)
    row dedup, the sector gauge in one unblocked pass and the edge energy
    max_i |a^T c_i|^2 in a per-id mask loop give the same report bytes;
    max(abs(pts @ half.T)), the gauge the sector rule replaced, gives the same
    report to rounding."""

    @staticmethod
    def _patch_reference(monkeypatch, calls, gauge=sector_reference):
        from qcreparam import field as fd
        from qcreparam import seminorm as sn

        def unique_rows(rows):
            calls.add("dedup")
            return np.unique(rows, axis=0, return_inverse=True)

        def edge_gauge(half, pts):
            calls.add("gauge")
            return gauge(half, pts)

        def edge_energy(edges, ids=None, a=None):
            calls.add("energy" if a is None else "composed")
            ids = np.arange(len(edges)) if ids is None else ids
            a = np.broadcast_to(np.eye(2), (len(ids), 2, 2)) if a is None else a
            dens = np.empty(len(ids))
            for r in np.unique(ids):
                c, sel = edges[r], ids == r
                x = a[sel, None, 0, 0] * c[:, 0] + a[sel, None, 1, 0] * c[:, 1]
                y = a[sel, None, 0, 1] * c[:, 0] + a[sel, None, 1, 1] * c[:, 1]
                dens[sel] = np.max(x * x + y * y, axis=1)
            return dens

        monkeypatch.setattr(fd, "distinct_rows", unique_rows)
        monkeypatch.setattr(sn, "edge_gauge", edge_gauge)
        monkeypatch.setattr(sn, "edge_energy", edge_energy)

    def _reports(self, monkeypatch, name, gauge=sector_reference):
        def bump(x, y):
            w = np.exp(-((x - 0.1) ** 2 + y**2) / 0.08)
            return np.stack([x + 0.15 * w * y, y + 0.1 * w * x])

        fn = {"shared": lambda x, y: np.stack([-y, 2.0 * x]), "bump": bump}[name]
        u = make_map(32, fn, qc.TargetSpace.linf())
        fast = qc.epsilon_conformal(u, 0.2 * np.pi)[2].render()
        calls = set()
        with monkeypatch.context() as mp:
            self._patch_reference(mp, calls, gauge)
            ref = qc.epsilon_conformal(u, 0.2 * np.pi)[2].render()
        assert calls == {"dedup", "gauge", "energy", "composed"}
        return fast, ref

    @pytest.mark.parametrize("name", ["bump", "nonlinear"])
    def test_report_independent_of_row_order(self, name):
        # distinct_rows leaves the order of the distinct rows unspecified: the
        # field with its rows permuted, and its index remapped, gives the same
        # report bytes
        def bump(x, y):
            w = np.exp(-((x - 0.1) ** 2 + y**2) / 0.08)
            return np.stack([x + 0.15 * w * y, y + 0.1 * w * x])

        fn = {"bump": bump,
              "nonlinear": lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x])}[name]
        f = qc.estimate_field(make_map(32, fn, qc.TargetSpace.linf()))
        assert len(f.rows) > 8
        want = rp.epsilon_conformal_from_field(f, 0.2 * np.pi)[2].render()
        for perm in (np.arange(len(f.rows))[::-1],
                     np.random.default_rng(1).permutation(len(f.rows))):
            g = qc.DerivativeField(grid=f.grid, kind=f.kind, rows=f.rows[perm],
                                   index=np.argsort(perm)[f.index])
            assert np.array_equal(g.rows[g.index], f.rows[f.index])
            assert rp.epsilon_conformal_from_field(g, 0.2 * np.pi)[2].render() == want

    @pytest.mark.parametrize("name", ["shared", "bump"])
    def test_report_bytes_match_reference(self, monkeypatch, name):
        fast, ref = self._reports(monkeypatch, name)
        assert fast == ref

    @pytest.mark.parametrize("name", ["shared", "bump"])
    def test_report_near_edge_max_gauge(self, monkeypatch, name):
        # the fields' rows are convex or degenerate, so the two gauges differ
        # by rounding: 1e-9 relative on every number, 1e-7 on the slacks
        # (differences of near values) and on phi_inv_residual (a Newton
        # residual at the 1e-8 tolerance)
        fast, ref = (report_numbers(r) for r in self._reports(monkeypatch, name,
                                                              edge_max_reference))
        assert fast.keys() == ref.keys()
        for key, value in fast.items():
            loose = key.endswith(".slack") or key == "phi_inv_residual"
            assert value == pytest.approx(ref[key], rel=1e-7 if loose else 1e-9, abs=0.0), key
