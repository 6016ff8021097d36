"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Stated time budgets are
desk-scale targets; the suite asserts them with a 10x machine-variance
allowance and prints the measured times.
"""

import time

import numpy as np
import pytest

import qcreparam as qc
from qcreparam.seminorm import half_circle_directions

from conftest import bump_coefficient, rand_sampled_norm, rand_spd

BUDGET_FACTOR = 10.0
EUCLID = qc.TargetSpace.euclidean(2)


def make_map(n, fn, target=EUCLID):
    return qc.SampledMap.from_function(qc.DiscGrid(n), target, fn)


@pytest.fixture(scope="module")
def stretch_pipeline():
    """Criterion 5 artifact, shared with the determinism criterion."""
    u = make_map(256, lambda x, y: np.stack([2.0 * x, y]))
    t0 = time.time()
    phi, omega, report = qc.epsilon_conformal(u, 0.2 * np.pi, seed=20240817)
    return u, phi, omega, report, time.time() - t0


def report_line(name, elapsed, budget, detail=""):
    print(f"\n{name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) {detail}")


def test_criterion_1_seminorm_calculus():
    rng = np.random.default_rng(101)
    t0 = time.time()
    dirs = half_circle_directions(64)

    worst_gap_q = -np.inf
    for _ in range(1000):
        s = qc.SemiNorm2.quadratic(rand_spd(rng, 0.0, 4.0))
        i2, ji = qc.energy_plus(s), qc.jacobian_intrinsic(s)
        defect = qc.isotropy_defect(s)
        assert ji <= i2 + 1e-9
        assert (abs(i2 - ji) <= 1e-9) == (defect <= 1e-9)
        jh = qc.jacobian_hausdorff(s)
        assert (np.pi / 4) * ji - 1e-9 <= jh <= ji + 1e-9
        worst_gap_q = max(worst_gap_q, ji - i2)

    for _ in range(200):
        s = rand_sampled_norm(rng)
        i2, ji = qc.energy_plus(s), qc.jacobian_intrinsic(s)
        defect = qc.isotropy_defect(s)
        assert ji <= i2 + 1e-3
        assert (abs(i2 - ji) <= 1e-3) == (defect <= 1e-3)
        jh = qc.jacobian_hausdorff(s)
        assert (np.pi / 4) * ji - 1e-9 <= jh <= ji + 1e-9
        ell = qc.john_ellipse(s)
        r_ball = 1.0 / s.values
        r_ell = ell.radial(dirs)
        assert np.all(r_ell <= r_ball * (1 + 1e-6))
        assert np.all(r_ball <= np.sqrt(2) * r_ell * (1 + 1e-6))

    linf = qc.SemiNorm2.sampled(np.abs(dirs).max(axis=1))
    ratio = qc.jacobian_hausdorff(linf) / qc.jacobian_intrinsic(linf)
    assert ratio == pytest.approx(np.pi / 4, abs=1e-3)

    elapsed = time.time() - t0
    assert elapsed < 1.0 * BUDGET_FACTOR
    report_line("criterion 1 (semi-norm calculus)", elapsed, 1,
                f"linf ratio {ratio:.6f}")


def test_criterion_2_beltrami_identities():
    rng = np.random.default_rng(202)
    t0 = time.time()
    res_dist = res_sing = res_comp = 0.0
    for _ in range(1000):
        while True:
            f = rng.normal(size=(2, 2))
            if f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0] > 0.05:
                break
        while True:
            g = rng.normal(size=(2, 2))
            if g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] > 0.05:
                break
        fz, fzb = qc.mat_to_wirtinger(f)
        mu_f = fzb / fz
        d = qc.distortion(f)
        sv = np.linalg.svd(f, compute_uv=False)
        res_dist = max(res_dist, abs(d - qc.distortion_from_mu(mu_f)))
        res_sing = max(res_sing, abs(d - sv[0] / sv[1]))
        # K-equivalence, both directions
        assert abs(mu_f) <= (d - 1) / (d + 1) + 1e-12
        assert d <= (1 + abs(mu_f)) / (1 - abs(mu_f)) + 1e-9

        gz, gzb = qc.mat_to_wirtinger(g)
        comp = g @ np.linalg.inv(f)
        cz, czb = qc.mat_to_wirtinger(comp)
        formula = qc.compose_coefficient(mu_f, gzb / gz, fz)
        res_comp = max(res_comp, abs(formula - czb / cz))

    assert res_dist <= 1e-9
    assert res_sing <= 1e-9
    assert res_comp <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0 * BUDGET_FACTOR
    report_line("criterion 2 (distortion identities)", elapsed, 1,
                f"residuals {res_dist:.1e} {res_sing:.1e} {res_comp:.1e}")


def test_criterion_3_solver_certification():
    t0 = time.time()
    # zero coefficient: exact identity
    zero = qc.ComplexField(S=2.0, values=np.zeros((512, 512), dtype=complex))
    out0 = qc.solve_beltrami(zero)
    x, y = zero.meshes()
    assert np.array_equal(out0.values, x + 1j * y)

    # smooth k = 0.2 bump at 512^2
    mu = bump_coefficient(n=512, k=0.2, radius=0.7)
    out = qc.solve_beltrami(mu)
    assert out.residual_l2 <= 1e-3
    det = out.det_min
    assert det > 0                                   # 100 percent of nodes
    dil = out.meta["dilatation"]
    frac = float(np.mean(dil <= (1.2 / 0.8) * 1.01))
    assert frac >= 0.999
    far = np.hypot(x, y) > 0.85                      # outside support + margin
    mu_f_far = float(np.max(out.meta["mu_f"][far]))
    assert mu_f_far <= 1e-3

    elapsed = time.time() - t0
    assert elapsed < 10.0 * BUDGET_FACTOR
    report_line("criterion 3 (solver certification)", elapsed, 10,
                f"residual {out.residual_l2:.2e}, det_min {det:.3f}, "
                f"dil ok {100 * frac:.2f}%, far mu {mu_f_far:.1e}")


def test_criterion_4_quadrature():
    t0 = time.time()
    f_id = qc.estimate_field(make_map(256, lambda x, y: np.stack([x, y])))
    assert qc.energy(f_id) == pytest.approx(np.pi, rel=0.02)
    assert qc.area_intrinsic(f_id) == pytest.approx(np.pi, rel=0.02)

    f_st = qc.estimate_field(make_map(256, lambda x, y: np.stack([2 * x, y])))
    assert qc.energy(f_st) == pytest.approx(4 * np.pi, rel=0.02)
    assert qc.area_intrinsic(f_st) == pytest.approx(2 * np.pi, rel=0.02)
    assert qc.area_hausdorff(f_st) == pytest.approx(2 * np.pi, rel=0.02)
    assert qc.area_hausdorff(f_st) == pytest.approx(qc.area_intrinsic(f_st), rel=1e-9)
    main_elapsed = time.time() - t0

    # first-order convergence of the error under grid refinement
    errs = []
    for n in (64, 128, 256, 512):
        f = qc.estimate_field(make_map(n, lambda x, y: np.stack([2 * x, y])))
        err = abs(qc.energy(f) - 4 * np.pi)
        h = 2.0 / n
        assert err <= 0.5 * h * 4 * np.pi          # error below a C*h envelope
        errs.append(err)
    assert errs[-1] <= 0.25 * errs[0]              # at least first-order decay

    elapsed = time.time() - t0
    assert main_elapsed < 5.0 * BUDGET_FACTOR
    report_line("criterion 4 (energy/area quadrature)", elapsed, 5,
                f"convergence errors {['%.1e' % e for e in errs]}")


def test_criterion_5_pipeline_headline(stretch_pipeline):
    u, phi, omega, report, elapsed = stretch_pipeline
    eps = 0.2 * np.pi

    # independently audited composed energy against the analytic area
    assert report.energy_after <= 2 * np.pi + eps + 0.05 * (2.2 * np.pi)
    assert report.energy_before == pytest.approx(4 * np.pi, rel=0.02)
    assert report.area_before == pytest.approx(2 * np.pi, rel=0.02)

    # every reported inequality holds with nonnegative slack
    slacks = {name: slack for name, _, _, slack in report.inequalities()}
    for name in ("int_sz_almost_area", "small_int_energy_A",
                 "small_int_energy_B", "approx_unif_coeff_on_B",
                 "final_integrated_bound", "headline"):
        assert slacks[name] >= 0, name

    # pointwise case audit on a random node sample
    rng = np.random.default_rng(505)
    assert qc.audit_cases(report, phi, rng, num=128) == 128

    assert elapsed < 60.0 * BUDGET_FACTOR
    report_line("criterion 5 (pipeline headline)", elapsed, 60,
                f"energy {report.energy_before:.3f} -> {report.energy_after:.3f} "
                f"vs area {report.area_before:.3f} (+{eps:.3f})")


def test_criterion_6_isotropy_fixed_point():
    t0 = time.time()
    results = []
    for label, target in (("euclidean", EUCLID), ("linf", qc.TargetSpace.linf())):
        u = make_map(256, lambda x, y: np.stack([x, y]), target)
        phi, omega, report = qc.epsilon_conformal(u, 0.2 * np.pi)
        assert np.max(np.abs(report.extras["mu_cells"])) <= 1e-9
        assert report.energy_after == pytest.approx(report.energy_before, rel=0.02)
        # sqrt(2)-quasiconformality holds cell by cell
        field = report.extras["field"]
        if field.kind == "quadratic":
            p = field.rows[field.index[field.grid.disc_mask]]
            tr = p[:, 0] + p[:, 2]
            gap = np.hypot(p[:, 0] - p[:, 2], 2 * p[:, 1])
            ratio2 = (tr + gap) / np.maximum(tr - gap, 1e-300)
            assert np.all(ratio2 <= 2.0 + 1e-9)
        else:
            for row in field.rows:
                assert row.max() <= np.sqrt(2) * row.min() + 1e-9
        results.append(f"{label}: {report.energy_before:.4f} -> "
                       f"{report.energy_after:.4f}")
    elapsed = time.time() - t0
    assert elapsed < 60.0 * BUDGET_FACTOR
    report_line("criterion 6 (isotropy fixed point)", elapsed, 60,
                "; ".join(results))


def test_criterion_7_determinism(stretch_pipeline):
    u, _, _, report, _ = stretch_pipeline
    t0 = time.time()
    _, _, report2 = qc.epsilon_conformal(u, 0.2 * np.pi, seed=20240817)
    assert report2.render().encode() == report.render().encode()
    elapsed = time.time() - t0
    report_line("criterion 7 (determinism)", elapsed, 60, "byte-identical reports")
