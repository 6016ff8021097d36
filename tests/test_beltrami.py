from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcreparam as qc
from qcreparam.beltrami import ITER_TOL, MAX_ITER, ROUNDING_FLOOR, _spectral_multipliers
from qcreparam.errors import (
    CoefficientTooLarge,
    DegenerateDerivative,
    GridTooSmall,
    NewtonDiverged,
    OrientationViolation,
    SupportTooClose,
)

from conftest import (
    PIPELINE_MAPS,
    SOLVED_MAPS,
    bump_coefficient,
    linear_qcmap,
    linear_wirtinger_oracle,
    pipeline_coefficient,
    rand_orientation_matrix,
    traced_peak,
)


def full_box_reference(mu):
    """(values, iterations) of the solve as one full-box loop: q <- nu (1 + M q),
    then z + (mu_0 + mean q) conj(z) + the spectral antiderivative of T q."""
    mu0 = mu.offset
    multiplier, antiderivative = _spectral_multipliers(mu.n, mu.spacing, mu0)
    nu = mu.values - mu0
    q = np.zeros_like(nu)
    for it in range(1, MAX_ITER + 1):
        q_new = nu * (1.0 + np.fft.ifft2(multiplier * np.fft.fft2(q)))
        inc, q = np.sqrt(np.mean(np.abs(q_new - q) ** 2)), q_new
        if inc <= ITER_TOL:
            break
    x, y = mu.meshes()
    z = x + 1j * y
    a = mu0 + complex(np.mean(q))
    return z + a * np.conj(z) + np.fft.ifft2(antiderivative * np.fft.fft2(q)), it


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

    def test_offset_is_kept_and_nu_mollified(self):
        # mollify(mu_0 + nu) = mu_0 + mollify(nu), the support and the
        # SupportTooClose check read nu
        bump = bump_coefficient(n=128, k=0.2, radius=0.5)
        mu0 = 0.3 - 0.1j
        field = qc.ComplexField(S=2.0, values=bump.values + mu0)
        assert field.offset == mu0
        assert field.support_radius() == bump.support_radius()
        out = qc.mollify(field, 0.2)
        assert np.abs(out.values - (qc.mollify(bump, 0.2).values + mu0)).max() <= 1e-15
        assert out.sup_norm() <= field.sup_norm() * (1 + 1e-12)
        with pytest.raises(SupportTooClose):
            qc.mollify(field, 0.6)


class TestSupportRadius:
    def test_rounding_noise_is_no_support(self):
        # nu at the rounding floor, as the rounded Beltrami density of an
        # isotropic map carries, has no support; nu above it has
        rng = np.random.default_rng(3)
        f0 = qc.ComplexField(S=2.0, values=np.zeros((64, 64), dtype=complex))
        x, y = f0.meshes()
        inside = np.hypot(x, y) < 0.8
        for mu0 in (0.0, 0.4 + 0.3j):
            noise = np.where(inside, rng.uniform(-1, 1, inside.shape) * 1e-15, 0.0)
            field = qc.ComplexField(S=2.0, values=mu0 + noise + 0j)
            assert field.support_radius() == 0.0
            spike = field.values.copy()
            spike[40, 40] += 2 * ROUNDING_FLOOR
            r = np.hypot(x[40, 40], y[40, 40])
            assert qc.ComplexField(S=2.0, values=spike).support_radius() == r

    def test_floor_scales_with_a_large_field(self):
        vals = np.zeros((64, 64), dtype=complex)
        vals[32, 32] = 1e3
        vals[20, 32] = 1e3 * ROUNDING_FLOOR / 2           # rounding at this scale
        field = qc.ComplexField(S=2.0, values=vals)
        x, y = field.meshes()
        assert field.support_radius() == np.hypot(x[32, 32], y[32, 32])


class TestSolver:
    def test_zero_coefficient_identity_exact(self):
        mu = qc.ComplexField(S=2.0, values=np.zeros((128, 128), dtype=complex))
        out = qc.solve_beltrami(mu)
        x, y = mu.meshes()
        assert np.array_equal(out.values, x + 1j * y)
        assert out.K_certified == pytest.approx(1.0, abs=1e-12)
        assert out.residual_l2 == 0.0
        assert out.iterations == 1

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("name", sorted(PIPELINE_MAPS))
    def test_matches_full_box_reference(self, name, n):
        # the iteration q <- nu (1 + M q) over the whole box; on solver boxes
        # of 128^2 nodes and more it keeps the bits of the reference loop,
        # which writes the product in the other operand order
        mu = pipeline_coefficient(name, n)
        out = qc.solve_beltrami(mu)
        ref, it = full_box_reference(mu)
        assert out.iterations == it
        if mu.n >= 128:
            assert np.array_equal(out.values, ref)
        else:
            np.testing.assert_allclose(out.values, ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["stretch", "diag41"])
    def test_linear_maps_solve_in_one_step(self, name):
        # a linear map's coefficient is mu_0 on the whole box, up to rounding
        mu = pipeline_coefficient(name, 64)
        out = qc.solve_beltrami(mu)
        assert out.iterations == 1
        assert abs(mu.offset) > 0.3
        x, y = mu.meshes()
        z = x + 1j * y
        assert np.abs(out.values - (z + mu.offset * np.conj(z))).max() <= 1e-14
        assert out.residual_l2 <= 1e-14

    @pytest.mark.parametrize("mu0", [0.3, 0.5 - 0.4j, -0.85j])
    def test_constant_coefficient_exact_in_one_step(self, mu0):
        mu = qc.ComplexField(S=2.0, values=np.full((64, 64), mu0, dtype=complex))
        out = qc.solve_beltrami(mu)
        x, y = mu.meshes()
        z = x + 1j * y
        assert out.iterations == 1
        assert out.meta["affine"] == mu0
        assert np.abs(out.values - (z + mu0 * np.conj(z))).max() <= 1e-14
        fz, fzb = qc.mat_to_wirtinger(out.df)
        assert np.abs(fzb / fz - mu0).max() <= 1e-14
        assert out.K_certified == pytest.approx((1 + abs(mu0)) / (1 - abs(mu0)), rel=1e-12)

    def test_offset_bump_matches_reference(self):
        # mu_0 plus a bump: the preconditioned loop against the plain full-box
        # Neumann loop on mu itself, which converges to the same map
        bump = bump_coefficient(n=128, k=0.2)
        mu = qc.ComplexField(S=2.0, values=bump.values + (0.4 + 0.2j))
        out = qc.solve_beltrami(mu)
        beurling, cauchy = _spectral_multipliers(mu.n, mu.spacing)
        h = np.zeros_like(mu.values)
        for plain in range(1, MAX_ITER + 1):
            h_new = mu.values * (1.0 + np.fft.ifft2(beurling * np.fft.fft2(h)))
            inc, h = np.sqrt(np.mean(np.abs(h_new - h) ** 2)), h_new
            if inc <= ITER_TOL:
                break
        x, y = mu.meshes()
        z = x + 1j * y
        ref = z + complex(np.mean(h)) * np.conj(z) + np.fft.ifft2(cauchy * np.fft.fft2(h))
        assert np.abs(out.values - ref).max() <= 1e-11
        # it contracts at sup |nu| / (1 - |mu_0|) = 0.36, the plain loop at 0.63
        assert out.contraction_rate <= 0.2 / (1 - abs(0.4 + 0.2j)) + 0.05
        assert out.iterations < plain
        assert out.residual_l2 <= 1e-3

    def test_coefficient_at_ellipse_rounding_solves_in_one_step(self):
        # mu_0 plus a nu of 5e-11, the size of the split that the 1e-12 row
        # rounding gives one semi-norm's ellipses: its root mean square over
        # the box passes ITER_TOL, so the loop took a second step, but the
        # first, q = nu, is within 1e-20 of the fixed point
        nu = bump_coefficient(n=128, k=5e-11)
        mu = qc.ComplexField(S=2.0, values=nu.values + 0.3)
        assert np.sqrt(np.mean(np.abs(nu.values) ** 2)) > ITER_TOL
        out = qc.solve_beltrami(mu)
        ref, its = full_box_reference(mu)
        assert out.iterations == 1 < its
        assert np.abs(out.values - ref).max() <= 1e-14

    def test_exact_node_coefficient_is_the_solved_one(self):
        # at the nodes the exact derivative solves f_zbar = mu f_z; the
        # central differences straddle mu's jump at the edge of A, where they
        # read a coefficient between the two sides
        mu = pipeline_coefficient("random-smooth", 64)
        out = qc.solve_beltrami(mu)
        assert out.node_mu is out.mu_exact
        assert np.abs(out.mu_exact - mu.values).max() <= 1e-10
        fz, fzb = qc.mat_to_wirtinger(out.df)
        assert np.abs(fzb / fz - mu.values).max() > 1e-3

    def test_contraction_bound_too_large(self):
        # |mu| < 0.98 everywhere, but nu = mu - mu_0 reaches 1.5 against
        # 1 - |mu_0| = 0.25: the preconditioned loop would not contract
        mu = bump_coefficient(n=64, k=-1.5)
        mu = qc.ComplexField(S=2.0, values=mu.values + 0.75)
        assert mu.sup_norm() < 0.98
        with pytest.raises(CoefficientTooLarge, match="contraction bound"):
            qc.solve_beltrami(mu)

    def test_peak_memory(self):
        # the full-box loop, whose buffers lived on through the certificates,
        # peaked at 4 591 819 traced bytes on this coefficient (128^2 nodes)
        mu = pipeline_coefficient("stretch", 64)
        _, peak = traced_peak(qc.solve_beltrami, mu)
        assert peak <= 4_591_819

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


class TestNewtonStart:
    def test_every_node_starts_from_the_far_field(self):
        # rho(z) = z + a conj(z) is its own far field: every node starts, and
        # stays, at the exact preimage
        a = 0.6
        rho = replace(linear_qcmap(np.diag([1 + a, 1 - a])), meta={"affine": a})
        phi = qc.invert(rho, n=64)
        w = (phi.node_coords()[0] + 1j * phi.node_coords()[1]).ravel()
        assert np.array_equal(phi.values.ravel(), (w - a * np.conj(w)) / (1 - a**2))
        assert phi.mask.any() and not phi.mask.all()

    @pytest.mark.parametrize("name", ["stretch", "diag41", "random-smooth", "half-collapse"])
    def test_inverts_the_pipeline_solves(self, name):
        # the half collapse's coefficient is solved at the full allowance, as
        # the pipeline does once the solver refuses the first one
        mu = pipeline_coefficient(name, 64, share=1.0 if name == "half-collapse" else None)
        rho = qc.solve_beltrami(mu)
        phi = qc.invert(rho, n=64)
        assert phi.inv_residual_max <= qc.beltrami.INV_TOL
        z = phi.values[phi.mask]
        back = rho.value_at(np.column_stack([z.real, z.imag]))
        w = (phi.node_coords()[0] + 1j * phi.node_coords()[1])[phi.mask]
        assert np.abs(back - w).max() <= qc.beltrami.INV_TOL
        # phi holds the nodes that rho's cells hold and whose preimage lies in
        # the disc; off the affine maps, each of them keeps its cell start
        k, ti, tj = qc.beltrami.cell_preimages(rho.values, phi.x0, phi.y0, phi.spacing,
                                               phi.shape)
        held = np.zeros(phi.values.size, dtype=bool)
        held[k] = True
        values = phi.values.ravel()
        assert phi.mask.any()
        assert np.array_equal(phi.mask.ravel(), held & (np.abs(values) < 1.0))
        if rho.iterations > 1:
            start = (rho.x0 + ti * rho.spacing) + 1j * (rho.y0 + tj * rho.spacing)
            assert np.array_equal(values[k], start)

    def test_nodes_no_cell_holds_start_from_the_far_field(self):
        # the half collapse: rho's far field is z + a conj(z), a about -0.37,
        # and its cells hold 1 988 of phi's 4 096 nodes; every other node keeps
        # the far field's inverse of w, exactly, and is unmasked
        rho = qc.solve_beltrami(pipeline_coefficient("half-collapse", 64, share=1.0))
        phi = qc.invert(rho, n=64)
        assert_far_nodes_unmasked(rho, phi, rho.meta["affine"])


def assert_far_nodes_unmasked(rho, phi, a):
    """Every node of phi that no rho cell holds equals the inverse of the far
    field z + a conj(z) at w, bit for bit, and is unmasked."""
    k, _, _ = qc.beltrami.cell_preimages(rho.values, phi.x0, phi.y0, phi.spacing, phi.shape)
    free = np.ones(phi.values.size, dtype=bool)
    free[k] = False
    w = (phi.node_coords()[0] + 1j * phi.node_coords()[1]).ravel()[free]
    assert free.any() and phi.mask.any()
    assert np.array_equal(phi.values.ravel()[free], (w - a * np.conj(w)) / (1 - abs(a) ** 2))
    assert not np.any(phi.mask.ravel()[free])


NEWTON_MAX = 50     # the reference's cap on Newton passes


def invert_reference(rho, n):
    """The Newton loop that qc.invert replaced: every node starts where invert
    puts it and takes at most NEWTON_MAX steps, a step that does not lower
    its residual halved back towards its last point instead.  Its mask,
    masked values and df and certificates are the ones invert must give."""
    from qcreparam import beltrami as bt
    from qcreparam import lattice

    img, pad = rho.image_of_circle(), bt.PAD * rho.spacing
    lo_x, hi_x = img.real.min() - pad, img.real.max() + pad
    lo_y, hi_y = img.imag.min() - pad, img.imag.max() + pad
    spacing = max(hi_x - lo_x, hi_y - lo_y) / n
    shape = (n, n)
    x0, y0 = lo_x + 0.5 * spacing, lo_y + 0.5 * spacing
    wx, wy = np.meshgrid(x0 + np.arange(n) * spacing, y0 + np.arange(n) * spacing,
                         indexing="ij")
    w = (wx + 1j * wy).ravel()
    a = rho.meta.get("affine", 0)
    z = (w - a * np.conj(w)) / (1 - abs(a) ** 2)
    xr = rho.x0 + np.arange(rho.shape[0]) * rho.spacing
    yr = rho.y0 + np.arange(rho.shape[1]) * rho.spacing
    far = ((1 + a) * xr)[:, None] + ((1 - a) * 1j * yr)
    if np.abs(rho.values - far).max() > bt.INV_TOL:
        k, ti, tj = bt.cell_preimages(rho.values, x0, y0, spacing, shape)
        z[k] = (rho.x0 + ti * rho.spacing) + 1j * (rho.y0 + tj * rho.spacing)
    stack = np.concatenate([rho.values.real[..., None], rho.values.imag[..., None],
                            rho.df.reshape(rho.shape + (4,))], axis=-1)

    def sample(p):
        s = lattice.bilinear(stack, (p.real - rho.x0) / rho.spacing,
                             (p.imag - rho.y0) / rho.spacing)
        return s[:, 0] + 1j * s[:, 1], s[:, 2:].reshape(-1, 2, 2)

    resid = np.full(w.shape, np.inf)
    back = z.copy()
    drho = np.zeros(w.shape + (2, 2))
    active = np.ones(w.shape, dtype=bool)
    for _ in range(NEWTON_MAX):
        idx = np.flatnonzero(active)
        fval, dfs = sample(z[idx])
        r = fval - w[idx]
        size = np.abs(r)
        worse = ~(size < resid[idx])
        z[idx[worse]] = 0.5 * (z[idx[worse]] + back[idx[worse]])
        kept = idx[~worse]
        resid[kept] = size[~worse]
        back[kept] = z[kept]
        drho[kept] = dfs[~worse]
        active[idx[~worse & (size <= bt.INV_TOL)]] = False
        if not np.any(active):
            break
        move = ~worse & (size > bt.INV_TOL)
        sub = idx[move]
        d = dfs[move]
        det = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
        rr = r[move]
        dx = (d[:, 1, 1] * rr.real - d[:, 0, 1] * rr.imag) / det
        dy = (-d[:, 1, 0] * rr.real + d[:, 0, 0] * rr.imag) / det
        step = dx + 1j * dy
        big = np.abs(step) > 10 * rho.spacing
        step[big] *= (10 * rho.spacing) / np.abs(step[big])
        z[sub] = z[sub] - step
    z = back
    converged = resid <= bt.INV_TOL
    failed_interior = ~converged & (np.abs(z) <= 0.95)
    if np.any(failed_interior):
        raise NewtonDiverged(f"{int(failed_interior.sum())} interior nodes failed to invert")
    mask = (converged & (np.abs(z) < 1.0)).reshape(shape)
    det = drho[:, 0, 0] * drho[:, 1, 1] - drho[:, 0, 1] * drho[:, 1, 0]
    det = np.where(det == 0, 1.0, det)
    dphi = np.stack([drho[:, 1, 1], -drho[:, 0, 1], -drho[:, 1, 0], drho[:, 0, 0]], axis=-1)
    df = (dphi / det[:, None]).reshape(shape + (2, 2))
    det_phi, dil = bt.det_dilatation(*qc.mat_to_wirtinger(df[mask]))
    return dict(values=z.reshape(shape), df=df, mask=mask,
                K_certified=float(dil.max(initial=1.0)),
                det_min=float(det_phi.min()) if det_phi.size else 1.0,
                inv_residual_max=float(resid[mask.ravel()].max()) if mask.any() else 0.0)


def nan_spot_identity(centre, radius):
    """The identity rho, n = 384 over [-1.2, 1.2]^2, with nan at its nodes
    within radius of the point (centre, 0): the phi nodes whose gathers read
    them get a non-finite residual."""
    rho = linear_qcmap(np.eye(2), box=1.2, n=384)
    x, y = rho.node_coords()
    values = rho.values.copy()
    values[np.hypot(x - centre, y) < radius] = np.nan
    return replace(rho, values=values)


class TestInvertBitIdentity:
    """invert against invert_reference, bit for bit: the mask, values and df
    on the masked nodes, and the three certificates.  Only unmasked nodes
    may differ, where the reference walks on from the far field."""

    @staticmethod
    def assert_same(rho, n=64):
        phi, ref = qc.invert(rho, n=n), invert_reference(rho, n)
        assert phi.mask.tobytes() == ref["mask"].tobytes()
        for name in ("values", "df"):
            got, want = getattr(phi, name), ref[name]
            assert got.dtype == want.dtype, name
            assert got[phi.mask].tobytes() == want[phi.mask].tobytes(), name
        for name in ("K_certified", "det_min", "inv_residual_max"):
            assert np.float64(getattr(phi, name)).tobytes() == np.float64(ref[name]).tobytes()
        return phi

    @pytest.mark.parametrize("name, n", [pytest.param(name, n, id=name if n == 64 else f"{name}-{n}")
                                         for n in (64, 128) for name in sorted(SOLVED_MAPS)])
    def test_solved_maps(self, name, n):
        mu = pipeline_coefficient(name, n, share=1.0 if name == "half-collapse" else None)
        self.assert_same(qc.solve_beltrami(mu), n=n)

    def test_affine(self):
        a = 0.6
        self.assert_same(replace(linear_qcmap(np.diag([1 + a, 1 - a])), meta={"affine": a}))

    def test_starts_that_fail_the_check(self):
        # diag(2, 1) on [-1.1, 1.1]^2, with no far field: its cells hold no
        # phi node above its top node row, and there the start w fails the
        # check; those nodes keep w and are unmasked
        rho = linear_qcmap(np.diag([2.0, 1.0]), box=1.1, n=44)
        phi = self.assert_same(rho)
        k, _, _ = qc.beltrami.cell_preimages(rho.values, phi.x0, phi.y0, phi.spacing,
                                             phi.shape)
        w = (phi.node_coords()[0] + 1j * phi.node_coords()[1]).ravel()
        start = np.delete(w, k)
        back = rho.value_at(np.column_stack([start.real, start.imag]))
        assert np.any(np.abs(back - start) > qc.beltrami.INV_TOL)
        assert_far_nodes_unmasked(rho, phi, 0)

    def test_non_finite_residuals(self):
        # the gathers that read nan lie within 0.019 of 0.972, beyond |z| =
        # 0.95, and rho(unit circle) reads none, so invert returns; the nodes
        # left with an unset differential read the fallback 0 / 1, unmasked
        phi = self.assert_same(nan_spot_identity(0.972, 0.01), n=128)
        stuck = np.all(phi.df == 0.0, axis=(-2, -1))
        assert stuck.any() and not np.any(phi.mask & stuck)

    @pytest.mark.parametrize("name", ["nan-spot", "diag21-box", "half-collapse"])
    def test_gathers_the_stack_once(self, monkeypatch, name):
        # one gather of rho's (value, differential) stack at every node, on a
        # rho with non-finite values, one whose cells miss nodes near the
        # disc, and one that many nodes lie beyond
        if name == "nan-spot":
            rho = nan_spot_identity(0.972, 0.01)
        elif name == "diag21-box":
            rho = linear_qcmap(np.diag([2.0, 1.0]), box=1.1, n=44)
        else:
            rho = qc.solve_beltrami(pipeline_coefficient("half-collapse", 64, share=1.0))
        gathers, bilinear = [], qc.lattice.bilinear

        def spy(values, tx, ty):
            if values.shape[-1:] == (6,):
                gathers.append(tx.size)
            return bilinear(values, tx, ty)

        monkeypatch.setattr(qc.beltrami.lattice, "bilinear", spy)
        qc.invert(rho, n=64)
        assert gathers == [64 * 64]

    def test_newton_diverged(self):
        # a nan spot at 0.5: interior nodes never converge
        rho = nan_spot_identity(0.5, 0.03)
        with pytest.raises(NewtonDiverged) as got:
            qc.invert(rho, n=64)
        with pytest.raises(NewtonDiverged) as want:
            invert_reference(rho, 64)
        assert str(got.value) == str(want.value)


def smooth_qcmap(c, box=1.5, n=96):
    """rho = (x + c0 sin(pi x) cos(pi y) + c1 xy, y + c2 cos(pi x) sin(pi y)
    + c3 x^2) sampled with its exact differential on a box grid."""
    d = 2.0 * box / n
    coords = -box + (np.arange(n) + 0.5) * d
    x, y = np.meshgrid(coords, coords, indexing="ij")
    sx, cx, sy, cy = np.sin(np.pi * x), np.cos(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * y)
    values = (x + c[0] * sx * cy + c[1] * x * y) + 1j * (y + c[2] * cx * sy + c[3] * x * x)
    df = np.stack([np.stack([1 + c[0] * np.pi * cx * cy + c[1] * y,
                             -c[0] * np.pi * sx * sy + c[1] * x], axis=-1),
                   np.stack([-c[2] * np.pi * sx * sy + 2 * c[3] * x,
                             1 + c[2] * np.pi * cx * cy], axis=-1)], axis=-2)
    return qc.QCMap(x0=float(coords[0]), y0=float(coords[0]), spacing=d,
                    values=values, df=df)


def assert_held_starts_exact(rho, n=64):
    """Every node of invert's lattice that a rho cell holds takes a start whose
    residual under rho's bilinear interpolant is at most 1e-12: the premise
    on which invert checks its starts once and takes no Newton step."""
    phi = qc.invert(rho, n=n)
    k, _, _ = qc.beltrami.cell_preimages(rho.values, phi.x0, phi.y0, phi.spacing, phi.shape)
    z = phi.values.ravel()[k]
    w = (phi.node_coords()[0] + 1j * phi.node_coords()[1]).ravel()[k]
    assert k.size > 0
    assert np.abs(rho.value_at(np.column_stack([z.real, z.imag])) - w).max() <= 1e-12


class TestHeldStarts:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4))
    def test_smooth_maps(self, c):
        assert_held_starts_exact(smooth_qcmap(c))

    @pytest.mark.parametrize("name", sorted(SOLVED_MAPS))
    def test_solved_maps(self, name):
        mu = pipeline_coefficient(name, 64, share=1.0 if name == "half-collapse" else None)
        assert_held_starts_exact(qc.solve_beltrami(mu))


class TestCellPreimages:
    @staticmethod
    def lattice_over(corners, rng, size=40):
        """(x0, y0, spacing, shape) of a size x size lattice at a random offset
        over the corners' bounding box."""
        lo, hi = corners.real.min(), corners.real.max()
        bottom, top = corners.imag.min(), corners.imag.max()
        spacing = max(hi - lo, top - bottom) / (size - 4)
        x0, y0 = lo - spacing * rng.uniform(1, 2), bottom - spacing * rng.uniform(1, 2)
        return x0, y0, spacing, (size, size)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_cells_exact(self, seed):
        # a convex, positively oriented quadrilateral under a random similarity:
        # its bilinear patch is a bijection onto it, so the nodes inside are
        # held and each preimage reproduces its node to rounding
        rng = np.random.default_rng(seed)
        unit = np.array([[0.0, 1j], [1.0, 1.0 + 1j]])       # values[i, j] at (i, j)
        corners = unit + rng.uniform(-0.3, 0.3, (2, 2)) + 1j * rng.uniform(-0.3, 0.3, (2, 2))
        if seed == 0:
            corners = unit + 0.4 * unit.imag                   # a parallelogram: G = 0
        scale = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())
        values = scale * corners + scale * complex(*rng.normal(size=2))
        x0, y0, spacing, shape = self.lattice_over(values, rng)
        k, ti, tj = qc.beltrami.cell_preimages(values, x0, y0, spacing, shape)
        i, j = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
        w = (x0 + i * spacing) + 1j * (y0 + j * spacing)
        size = np.abs(values).max()
        assert np.abs(qc.lattice.bilinear(values, ti, tj) - w[k]).max() <= 1e-12 * size
        # inside the quadrilateral P00 P10 P11 P01 by more than rounding: held;
        # outside by more than rounding: not held
        ring = values.ravel()[[0, 2, 3, 1]]
        edge = np.roll(ring, -1) - ring
        depth = np.min([(np.conj(e) * (w - p)).imag / abs(e) for e, p in zip(edge, ring)], axis=0)
        held = np.zeros(w.size, dtype=bool)
        held[k] = True
        assert np.all(held[depth > 1e-9 * size]) and not np.any(held[depth < -1e-9 * size])
        assert np.count_nonzero(depth > 1e-9 * size) > 100

    def test_a_patch_of_cells_holds_every_inner_node_once(self):
        # a perturbed 7 x 7 lattice: its 36 cells tile the image, and the
        # nodes the image holds are found, each one at most once
        rng = np.random.default_rng(5)
        i, j = np.meshgrid(np.arange(7.0), np.arange(7.0), indexing="ij")
        values = (i + rng.uniform(-0.25, 0.25, i.shape)) + 1j * (j + rng.uniform(-0.25, 0.25, j.shape))
        x0, y0, spacing, shape = self.lattice_over(values, rng, size=90)
        k, ti, tj = qc.beltrami.cell_preimages(values, x0, y0, spacing, shape)
        assert np.unique(k).size == k.size
        a, b = np.divmod(k, shape[1])
        w = (x0 + a * spacing) + 1j * (y0 + b * spacing)
        assert np.abs(qc.lattice.bilinear(values, ti, tj) - w).max() <= 1e-12 * np.abs(values).max()
        # every node well inside the inner square [0.25, 5.75]^2 is held
        a, b = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
        x, y = x0 + a * spacing, y0 + b * spacing
        inner = (np.minimum(x, y) > 0.25 + 1e-9) & (np.maximum(x, y) < 5.75 - 1e-9)
        held = np.zeros(x.size, dtype=bool)
        held[k] = True
        assert inner.sum() > 1000 and np.all(held[inner])

    def test_node_outside_every_cell(self):
        values = np.array([[0.0, 1j], [1.0, 1.0 + 1j]])
        k, ti, tj = qc.beltrami.cell_preimages(values, 2.0, 2.0, 0.5, (3, 3))
        assert k.size == ti.size == tj.size == 0


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

    def test_qcmap_file_holds_the_central_differences(self, tmp_path):
        # the exact node coefficient is not saved: a loaded map reads df's
        rho = qc.solve_beltrami(bump_coefficient(n=64, k=0.2))
        rho.save(tmp_path / "rho.qcmap")
        back = qc.QCMap.load(tmp_path / "rho.qcmap")
        assert back.mu_exact is None
        assert np.array_equal(back.df, rho.df)
        fz, fzb = qc.mat_to_wirtinger(rho.df)
        assert np.array_equal(back.node_mu, fzb / fz)

    def test_rotation_keeps_the_coefficient(self):
        rho = qc.solve_beltrami(bump_coefficient(n=64, k=0.2))
        turned = rho.rotated(0.7)
        assert turned.mu_exact is rho.mu_exact
        fz, fzb = qc.mat_to_wirtinger(rho.df)
        tz, tzb = qc.mat_to_wirtinger(turned.df)
        assert np.abs(tzb / tz - fzb / fz).max() <= 1e-12


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
