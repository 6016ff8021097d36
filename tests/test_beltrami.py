import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcreparam as qc
from qcreparam.errors import (
    CoefficientTooLarge,
    DegenerateDerivative,
    GridTooSmall,
    OrientationViolation,
    SupportTooClose,
)

from conftest import (
    bump_coefficient,
    linear_qcmap,
    linear_wirtinger_oracle,
    rand_orientation_matrix,
)


def grid_samples(fn, n=64, lo=-1.0, hi=1.0):
    xs = np.linspace(lo, hi, n)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    z = x + 1j * y
    return fn(z), xs[1] - xs[0]


class TestWirtinger:
    def test_identity(self):
        f, sp = grid_samples(lambda z: z)
        fz, fzb = qc.wirtinger(f, sp)
        assert np.allclose(fz, 1.0, atol=1e-12)
        assert np.allclose(fzb, 0.0, atol=1e-12)

    def test_conjugate(self):
        f, sp = grid_samples(lambda z: np.conj(z))
        fz, fzb = qc.wirtinger(f, sp)
        assert np.allclose(fz, 0.0, atol=1e-12)
        assert np.allclose(fzb, 1.0, atol=1e-12)

    def test_affine_exact(self):
        # hand Wirtinger calculus: d/dz = 1, d/dzbar = 0.5, exactly at
        # every node because the map is linear
        f, sp = grid_samples(lambda z: z + 0.5 * np.conj(z))
        fz, fzb = qc.wirtinger(f, sp)
        assert np.allclose(fz, 1.0, atol=1e-12)
        assert np.allclose(fzb, 0.5, atol=1e-12)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            qc.wirtinger(np.ones((2, 2), dtype=complex), 0.1)


class TestBeltramiCoefficient:
    def test_affine(self):
        f, sp = grid_samples(lambda z: z + 0.5 * np.conj(z))
        assert np.allclose(qc.beltrami_coefficient(f, sp), 0.5, atol=1e-12)

    def test_conformal_polynomial(self):
        # quadratic polynomials differentiate exactly under central stencils
        f, sp = grid_samples(lambda z: z**2 + z, lo=0.5, hi=1.5)
        assert np.max(np.abs(qc.beltrami_coefficient(f, sp))) < 1e-12

    def test_conformal_postcomposition_keeps_mu(self):
        g_mat = np.array([[1.0, 0.3], [0.1, 0.8]])
        gz, gzb = linear_wirtinger_oracle(g_mat)
        mu_g = gzb / gz

        def composed(z):
            w = (g_mat[0, 0] * z.real + g_mat[0, 1] * z.imag
                 + 1j * (g_mat[1, 0] * z.real + g_mat[1, 1] * z.imag))
            return w**2 + 4.0 * w     # conformal where 2w + 4 != 0

        f, sp = grid_samples(composed, lo=0.2, hi=1.2)
        mu = qc.beltrami_coefficient(f, sp)
        assert np.allclose(mu, mu_g, atol=1e-10)

    def test_orientation_violation(self):
        f, sp = grid_samples(lambda z: np.conj(z))
        with pytest.raises(OrientationViolation):
            qc.beltrami_coefficient(f, sp)


class TestDistortion:
    def test_affine_three(self):
        m = qc.wirtinger_to_mat(np.array(1.0 + 0j), np.array(0.5 + 0j))
        assert qc.distortion(m) == pytest.approx(3.0, abs=1e-12)

    def test_conformal_one(self):
        c, s = np.cos(0.7), np.sin(0.7)
        assert qc.distortion(2.0 * np.array([[c, -s], [s, c]])) == pytest.approx(1.0)

    def test_diag21_all_three_expressions(self):
        m = np.diag([2.0, 1.0])
        assert qc.distortion(m) == pytest.approx(2.0, abs=1e-12)
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[0] / sv[1] == pytest.approx(2.0)
        fz, fzb = qc.mat_to_wirtinger(m)
        assert abs(fzb / fz) == pytest.approx(1 / 3, abs=1e-12)
        assert qc.distortion_from_mu(fzb / fz) == pytest.approx(2.0, abs=1e-12)

    def test_identity_on_random_linear(self, rng):
        for _ in range(200):
            m = rand_orientation_matrix(rng)
            fz, fzb = qc.mat_to_wirtinger(m)
            d = qc.distortion(m)
            sv = np.linalg.svd(m, compute_uv=False)
            assert d == pytest.approx(qc.distortion_from_mu(fzb / fz), rel=1e-9)
            assert d == pytest.approx(sv[0] / sv[1], rel=1e-9)

    def test_k_equivalence_both_directions(self, rng):
        for _ in range(200):
            m = rand_orientation_matrix(rng)
            fz, fzb = qc.mat_to_wirtinger(m)
            k_mu = abs(fzb / fz)
            bigk = qc.distortion(m)
            assert k_mu <= (bigk - 1) / (bigk + 1) + 1e-12
            # and conversely the distortion is within any K with mu-bound
            assert bigk <= (1 + k_mu) / (1 - k_mu) + 1e-9

    def test_orientation_violation(self):
        with pytest.raises(OrientationViolation):
            qc.distortion(np.diag([1.0, -1.0]))

    def test_det_dilatation_floor(self):
        # one det/K helper for distortion, the solver (floor DET_FLOOR) and invert
        from qcreparam.beltrami import det_dilatation

        fz, fzb = np.array([1.0 + 0j, 1j]), np.array([0.5 + 0j, 0j])
        det, K = det_dilatation(fz, fzb)
        assert det.tolist() == [0.75, 1.0] and K.tolist() == [3.0, 1.0]
        assert np.array_equal(K, qc.distortion(qc.wirtinger_to_mat(fz, fzb)))
        with pytest.raises(OrientationViolation, match="det Df = 7.500e-01"):
            det_dilatation(fz, fzb, 0.75)
        det, K = det_dilatation(fz[:0], fzb[:0])
        assert det.size == K.size == 0


class TestComposeCoefficient:
    def test_equal_coefficients_conformal(self):
        assert qc.compose_coefficient(0.3 + 0.1j, 0.3 + 0.1j, 1.0 + 2j) == 0

    def test_mu_f_zero_collapse(self):
        fz = 1.0 + 1.0j
        out = qc.compose_coefficient(0.0, 0.25j, fz)
        assert out == pytest.approx(0.25j * (fz / abs(fz)) ** 2)

    def test_degenerate_derivative(self):
        with pytest.raises(DegenerateDerivative):
            qc.compose_coefficient(0.1, 0.2, 0.0)

    def test_against_linear_brute_force(self, rng):
        for _ in range(300):
            f = rand_orientation_matrix(rng)
            g = rand_orientation_matrix(rng)
            fz, fzb = qc.mat_to_wirtinger(f)
            gz, gzb = qc.mat_to_wirtinger(g)
            comp = g @ np.linalg.inv(f)
            cz, czb = qc.mat_to_wirtinger(comp)
            formula = qc.compose_coefficient(fzb / fz, gzb / gz, fz)
            assert formula == pytest.approx(czb / cz, abs=1e-10)


class TestMollify:
    def test_constant_region_unchanged_deep_inside(self):
        n = 128
        field = qc.ComplexField(S=2.0, values=np.zeros((n, n), dtype=complex))
        x, y = field.meshes()
        vals = np.where(np.hypot(x, y) < 0.6, 0.3 + 0.1j, 0.0)
        field = qc.ComplexField(S=2.0, values=vals)
        eta = 0.1
        sm = qc.mollify(field, eta)
        deep = np.hypot(x, y) < 0.6 - eta - 2 * field.spacing
        assert np.allclose(sm.values[deep], 0.3 + 0.1j, atol=1e-12)

    def test_sup_norm_never_increases(self, rng):
        n = 96
        vals = np.zeros((n, n), dtype=complex)
        field0 = qc.ComplexField(S=2.0, values=vals)
        x, y = field0.meshes()
        inside = np.hypot(x, y) < 0.5
        vals[inside] = rng.normal(size=inside.sum()) + 1j * rng.normal(size=inside.sum())
        field = qc.ComplexField(S=2.0, values=vals)
        for eta in (0.05, 0.2, 0.4):
            assert qc.mollify(field, eta).sup_norm() <= field.sup_norm() * (1 + 1e-12)

    def test_support_growth_bounded(self):
        field = bump_coefficient(n=128, radius=0.5)
        sm = qc.mollify(field, 0.2)
        assert sm.support_radius() <= field.support_radius() + 0.2 + 2 * field.spacing

    def test_small_eta_converges_at_continuity_points(self):
        n = 256
        field0 = qc.ComplexField(S=2.0, values=np.zeros((n, n), dtype=complex))
        x, y = field0.meshes()
        vals = np.where(np.hypot(x, y) < 0.5, 0.4 + 0.0j, 0.0)
        field = qc.ComplexField(S=2.0, values=vals)
        probe = np.hypot(x, y) < 0.4      # away from the jump
        errs = [np.abs(qc.mollify(field, eta).values - vals)[probe].max()
                for eta in (0.08, 0.04, 0.02)]
        assert errs == sorted(errs, reverse=True) or max(errs) < 1e-12
        assert errs[-1] < 1e-12

    @staticmethod
    def fields():
        """(field, eta) pairs of the tests above: a constant disc, random
        values, a step and a bump."""
        rng = np.random.default_rng(5)
        out = []
        for n, radius, etas, kind in ((128, 0.6, (0.1,), "disc"),
                                      (96, 0.5, (0.05, 0.2, 0.4), "random"),
                                      (256, 0.5, (0.08, 0.04, 0.02), "step")):
            x, y = qc.ComplexField(S=2.0, values=np.zeros((n, n), dtype=complex)).meshes()
            inside = np.hypot(x, y) < radius
            vals = np.zeros((n, n), dtype=complex)
            if kind == "random":
                vals[inside] = rng.normal(size=inside.sum()) + 1j * rng.normal(size=inside.sum())
            else:
                vals[inside] = 0.3 + 0.1j if kind == "disc" else 0.4
            out += [(qc.ComplexField(S=2.0, values=vals), eta) for eta in etas]
        return out + [(bump_coefficient(n=128, radius=0.5), 0.2)]

    def test_matches_fftconvolve(self):
        # the periodic FFT on the solver box against a plain linear convolution
        from scipy.signal import fftconvolve

        for field, eta in self.fields():
            d = field.spacing
            r = int(np.floor(eta / d))
            offs = np.arange(-r, r + 1) * d
            rr = np.hypot(*np.meshgrid(offs, offs, indexing="ij")) / eta
            kernel = np.where(rr < 1.0, np.exp(-1.0 / np.maximum(1.0 - rr**2, 1e-300)), 0.0)
            ref = fftconvolve(field.values, kernel / kernel.sum(), mode="same")
            region = fftconvolve((field.values != 0).astype(float), (rr < 1.0).astype(float),
                                 mode="same") > 0.5
            out = qc.mollify(field, eta).values
            assert np.abs(out - np.where(region, ref, 0.0)).max() <= 1e-14 * field.sup_norm()
            assert not np.any(out[~region])
            # the region itself: where the input support dilates by the footprint
            support = qc.mollify(qc.ComplexField(S=2.0, values=(field.values != 0) * 1.0),
                                 eta).values != 0
            assert np.array_equal(support, region)

    def test_support_too_close(self):
        field = bump_coefficient(n=64, radius=0.9)
        with pytest.raises(SupportTooClose):
            qc.mollify(field, 0.5)


class TestSolver:
    def test_zero_coefficient_identity_exact(self):
        mu = qc.ComplexField(S=2.0, values=np.zeros((128, 128), dtype=complex))
        out = qc.solve_beltrami(mu)
        x, y = mu.meshes()
        assert np.array_equal(out.values, x + 1j * y)
        assert out.K_certified == pytest.approx(1.0, abs=1e-12)
        assert out.residual_l2 == 0.0

    def test_bump_certificates(self):
        mu = bump_coefficient(n=256, k=0.2)
        out = qc.solve_beltrami(mu)
        assert out.residual_l2 <= 1e-3
        assert out.det_min > 0
        assert out.K_certified <= 1.5 * 1.01
        x, y = mu.meshes()
        far = np.hypot(x, y) > 0.85
        assert np.max(out.meta["mu_f"][far]) <= 1e-3

    def test_contraction_rate_bounded_by_k(self):
        mu = bump_coefficient(n=128, k=0.35)
        out = qc.solve_beltrami(mu)
        assert out.contraction_rate <= 0.35 + 0.05

    def test_equation_solved_against_coefficient(self):
        # residual certificate is self-certifying: recompute it from scratch
        # (the affine part is not periodic, so it is differentiated by hand)
        mu = bump_coefficient(n=128, k=0.2)
        out = qc.solve_beltrami(mu)
        x, y = mu.meshes()
        z = x + 1j * y
        a = out.meta["affine"]
        pert = out.values - z - a * np.conj(z)
        d = mu.spacing
        fx = (np.roll(pert, -1, 0) - np.roll(pert, 1, 0)) / (2 * d)
        fy = (np.roll(pert, -1, 1) - np.roll(pert, 1, 1)) / (2 * d)
        fz = 1.0 + 0.5 * (fx - 1j * fy)
        fzb = a + 0.5 * (fx + 1j * fy)
        res = np.sqrt(np.mean(np.abs(fzb - mu.values * fz) ** 2))
        assert res == pytest.approx(out.residual_l2, rel=1e-6, abs=1e-9)
        # interior nodes alone tell the same story (no seam involved)
        interior = (np.abs(z) < 1.5)
        res_int = np.abs(fzb - mu.values * fz)[interior]
        assert np.sqrt(np.mean(res_int**2)) <= 5e-4

    def test_radial_coefficient_symmetric_image(self):
        mu = bump_coefficient(n=256, k=0.3)
        out = qc.solve_beltrami(mu)
        ring = out.image_of_circle(1.0, num=512)
        # a real radial coefficient commutes with both axis reflections
        reflected = np.conj(ring)
        dists = np.abs(ring[None, :] - reflected[:, None]).min(axis=1)
        assert np.max(dists) < 5e-3

    def test_coefficient_too_large(self):
        mu = bump_coefficient(n=64, k=0.995)
        with pytest.raises(CoefficientTooLarge):
            qc.solve_beltrami(mu)

    def test_support_outside_disc_rejected(self):
        n = 64
        f0 = qc.ComplexField(S=2.0, values=np.zeros((n, n), dtype=complex))
        x, y = f0.meshes()
        vals = np.where(np.hypot(x - 1.2, y) < 0.3, 0.2, 0.0).astype(complex)
        with pytest.raises(SupportTooClose):
            qc.solve_beltrami(qc.ComplexField(S=2.0, values=vals))


class TestInvert:
    def test_identity(self):
        rho = linear_qcmap(np.eye(2))
        phi = qc.invert(rho, n=64)
        pts = phi.values[phi.mask]
        w = (phi.node_coords()[0] + 1j * phi.node_coords()[1])[phi.mask]
        assert np.max(np.abs(pts - w)) < 1e-10

    def test_linear_closed_form(self):
        rho = linear_qcmap(np.diag([2.0, 1.0]))
        phi = qc.invert(rho, n=96)
        w = (phi.node_coords()[0] + 1j * phi.node_coords()[1])[phi.mask]
        z = phi.values[phi.mask]
        assert np.max(np.abs(z - (w.real / 2.0 + 1j * w.imag))) < 1e-9
        df = phi.df[phi.mask]
        assert np.allclose(df, np.array([[0.5, 0.0], [0.0, 1.0]]), atol=1e-9)
        # the mask is the image ellipse {(w1/2)^2 + w2^2 < 1}
        assert np.all((w.real / 2) ** 2 + w.imag**2 < 1.0)

    def test_round_trip_on_solver_output(self):
        mu = bump_coefficient(n=256, k=0.25)
        rho = qc.solve_beltrami(mu)
        phi = qc.invert(rho, n=128)
        assert phi.inv_residual_max <= 1e-8
        assert phi.K_certified <= rho.K_certified * 1.01

    def test_rotated_gauge_keeps_certificates(self):
        mu = bump_coefficient(n=128, k=0.2)
        rho = qc.solve_beltrami(mu)
        rot = rho.rotated(0.7)
        assert rot.K_certified == rho.K_certified
        fz, fzb = qc.mat_to_wirtinger(rot.df.reshape(-1, 2, 2))
        det = np.abs(fz) ** 2 - np.abs(fzb) ** 2
        assert det.min() > 0


class TestSerialization:
    def test_complex_field_roundtrip(self, tmp_path, rng):
        vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        f = qc.ComplexField(S=2.0, values=vals)
        path = tmp_path / "field.bin"
        f.save(path)
        g = qc.ComplexField.load(path)
        assert g.S == f.S and np.array_equal(g.values, f.values)

    def test_qcmap_roundtrip(self, tmp_path):
        rho = linear_qcmap(np.diag([2.0, 1.0]), n=32)
        path = tmp_path / "rho.qcmap"
        rho.save(path)
        back = qc.QCMap.load(path)
        assert np.array_equal(back.values, rho.values)
        assert np.array_equal(back.df, rho.df)
        assert back.spacing == rho.spacing
        assert back.K_certified == pytest.approx(rho.K_certified)


class TestNodewiseDistortion:
    def test_three_expressions_on_solver_output(self):
        # the distortion identity holds nodewise on solver products
        mu = bump_coefficient(n=128, k=0.3)
        out = qc.solve_beltrami(mu)
        fz, fzb = qc.mat_to_wirtinger(out.df)
        dil = out.meta["dilatation"]
        via_mu = qc.distortion_from_mu(fzb / fz)
        assert np.max(np.abs(dil - via_mu)) <= 1e-3
        sv = np.linalg.svd(out.df.reshape(-1, 2, 2), compute_uv=False)
        assert np.max(np.abs(dil.ravel() - sv[:, 0] / sv[:, 1])) <= 1e-3

    def test_three_expressions_on_linear_maps(self, rng):
        for _ in range(50):
            m = rand_orientation_matrix(rng)
            fz, fzb = qc.mat_to_wirtinger(m)
            d = qc.distortion(m)
            sv = np.linalg.svd(m, compute_uv=False)
            assert abs(d - qc.distortion_from_mu(fzb / fz)) <= 1e-6
            assert abs(d - sv[0] / sv[1]) <= 1e-6


class TestRoundTripBothWays:
    def test_forward_then_back(self, rng):
        mu = bump_coefficient(n=256, k=0.25)
        rho = qc.solve_beltrami(mu)
        phi = qc.invert(rho, n=128)
        z = rng.uniform(-0.6, 0.6, size=(300, 2))
        w = rho.value_at(z)
        back = phi.value_at(np.column_stack([w.real, w.imag]))
        err = np.abs(back - (z[:, 0] + 1j * z[:, 1]))
        # limited by bilinear interpolation of phi, not by Newton
        assert err.max() <= 1e-3
