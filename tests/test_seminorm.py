import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcreparam as qc
from qcreparam import seminorm as sn
from qcreparam.errors import DegenerateSemiNorm, InputFormatError
from qcreparam.seminorm import half_circle_directions

from conftest import (
    linear_wirtinger_oracle,
    rand_sampled_norm,
    rand_spd,
    sweep_energy_oracle,
)

D64 = half_circle_directions(64)
LINF = qc.SemiNorm2.sampled(np.abs(D64).max(axis=1))
L1 = qc.SemiNorm2.sampled(np.abs(D64).sum(axis=1))
DIAG41 = qc.SemiNorm2.quadratic(np.diag([4.0, 1.0]))


class TestSampledGauge:
    @pytest.mark.parametrize("count", [5, (1 << 17) - 1, 1 << 17, (1 << 17) + 3])
    def test_matches_abs_max_reference(self, rng, count):
        # bit for bit against max_i |c_i . p| over the first half of the
        # polygon's antipodal edge rows, zero vectors of both signs included
        for s in (LINF, L1, rand_sampled_norm(rng)):
            half = s._polygon()[1][: s.m]
            pts = rng.normal(size=(count, 2))
            pts[:3] = [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]]
            ref = np.max(np.abs(pts @ half.T), axis=1)
            assert np.array_equal(s(pts).view(np.uint64), ref.view(np.uint64))


class TestEnergy:
    def test_quadratic_largest_eigenvalue(self):
        assert qc.energy_plus(DIAG41) == pytest.approx(4.0, abs=1e-12)

    def test_zero(self):
        assert qc.energy_plus(qc.SemiNorm2.zero()) == 0.0

    def test_l1_max_two(self):
        # oracle first: dense sweep of (|cos| + |sin|)^2
        assert sweep_energy_oracle(L1) == pytest.approx(2.0, abs=1e-7)
        assert qc.energy_plus(L1) == pytest.approx(2.0, abs=1e-12)


class TestJohnEllipse:
    def test_quadratic_ball_is_own_ellipse(self):
        e = qc.john_ellipse(DIAG41)
        assert (e.a, e.b) == pytest.approx((1.0, 0.5), abs=1e-12)
        assert e.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.allclose(e.matrix, np.diag([4.0, 1.0]), atol=1e-12)

    def test_linf_gives_unit_disc(self):
        e = qc.john_ellipse(LINF)
        assert (e.a, e.b) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_l1_gives_disc_radius_inv_sqrt2(self):
        e = qc.john_ellipse(L1)
        assert (e.a, e.b) == pytest.approx((2**-0.5, 2**-0.5), abs=1e-12)

    def test_degenerate_raises(self):
        s = qc.SemiNorm2.quadratic(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateSemiNorm):
            qc.john_ellipse(s)

    def test_containment_certificate(self, rng):
        for _ in range(40):
            s = rand_sampled_norm(rng)
            e = qc.john_ellipse(s)
            assert np.max(s(e.boundary())) <= 1.0 + 1e-6


def edge_constraints(values):
    """Rows c with unit ball {|c . x| <= 1}, from the polygon's vertices."""
    dirs = half_circle_directions(len(values))
    verts = np.vstack([dirs / values[:, None], -dirs / values[:, None]])
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    return normals / np.sum(normals * verts, axis=1)[:, None]


class TestInscribedEllipses:
    def test_row_independent_of_batch(self, rng):
        rows = [LINF.values, L1.values, np.sqrt(LINF.values**2 + 0.25), np.zeros(64)]
        rows += [rand_sampled_norm(rng).values for _ in range(6)]
        rows += [np.sqrt(r**2 + 2.0**-4) for r in rows[4:]]
        batch = np.array(rows)
        together = sn.inscribed_ellipses(batch)
        for k, row in enumerate(batch):
            assert np.array_equal(sn.inscribed_ellipses(row[None])[0], together[k])
        perm = rng.permutation(len(batch))
        assert np.array_equal(sn.inscribed_ellipses(batch[perm]), together[perm])
        assert np.all(together[3] == 0.0)             # degenerate row: unbounded ball

    @pytest.mark.parametrize("m", [8, 16, 64])
    @pytest.mark.parametrize("delta", [0.0, 2.0**-1, 2.0**-4])
    def test_exact_containment_and_kkt(self, m, delta):
        from scipy.optimize import nnls

        r = np.random.default_rng(900 + m)
        for _ in range(12):
            values = rand_sampled_norm(r, m=m).values
            if delta:
                values = np.sqrt(values**2 + delta**2)
            mat = sn.inscribed_ellipses(values[None])[0]
            m2 = np.array([[mat[0], mat[1]], [mat[1], mat[2]]])
            c = edge_constraints(values)
            loads = np.einsum("ki,ij,kj->k", c, np.linalg.inv(m2), c)
            assert loads.max() <= 1.0 + 1e-12
            # KKT: M = sum lam_i c_i c_i^T with lam >= 0 on tight constraints
            act = c[loads >= 1.0 - 1e-7]
            outer = np.stack([act[:, 0] ** 2, act[:, 0] * act[:, 1], act[:, 1] ** 2])
            _, resid = nnls(outer, mat)
            assert resid <= 1e-6 * np.linalg.norm(mat)


class TestJacobians:
    def test_quadratic_sqrt_det(self):
        assert qc.jacobian_intrinsic(DIAG41) == pytest.approx(2.0, abs=1e-12)
        assert qc.jacobian_hausdorff(DIAG41) == pytest.approx(2.0, abs=1e-12)

    def test_linf(self):
        assert qc.jacobian_intrinsic(LINF) == pytest.approx(1.0, abs=1e-9)
        # the sampled square is exact (corners are sample directions)
        assert qc.jacobian_hausdorff(LINF) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_l1(self):
        assert qc.jacobian_hausdorff(L1) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_degenerate_zero(self):
        s = qc.SemiNorm2.quadratic(np.diag([1.0, 0.0]))
        assert qc.jacobian_intrinsic(s) == 0.0
        assert qc.jacobian_hausdorff(s) == 0.0
        assert qc.jacobian_intrinsic(qc.SemiNorm2.zero()) == 0.0

    def test_ball_areas(self):
        assert LINF.ball_area() == pytest.approx(4.0, abs=1e-12)
        assert L1.ball_area() == pytest.approx(2.0, abs=1e-12)


class TestIsotropyDefect:
    def test_round_ball_zero(self):
        s = qc.SemiNorm2.quadratic(3.0 * np.eye(2))
        assert qc.isotropy_defect(s) == pytest.approx(0.0, abs=1e-12)

    def test_diag41(self):
        assert qc.isotropy_defect(DIAG41) == pytest.approx(2.0, abs=1e-12)

    def test_linf_isotropic_but_not_euclidean(self):
        assert qc.isotropy_defect(LINF) == pytest.approx(0.0, abs=1e-9)


class TestRegularize:
    def test_zero_becomes_euclidean(self):
        s = qc.regularize(qc.SemiNorm2.zero(), 1.0)
        assert np.allclose(s.matrix, np.eye(2))

    def test_matrix_shift(self):
        s = qc.regularize(DIAG41, 1.0)
        assert np.allclose(s.matrix, np.diag([5.0, 2.0]))

    def test_sampled_values(self):
        s = qc.regularize(L1, 0.5)
        assert np.allclose(s.values, np.sqrt(L1.values**2 + 0.25))

    @settings(max_examples=25, deadline=None)
    @given(delta=st.floats(1e-3, 10.0), seed=st.integers(0, 2**31))
    def test_energy_shift_identity(self, delta, seed):
        r = np.random.default_rng(seed)
        for s in (qc.SemiNorm2.quadratic(rand_spd(r)), rand_sampled_norm(r)):
            lhs = qc.energy_plus(qc.regularize(s, delta))
            assert lhs == pytest.approx(qc.energy_plus(s) + delta**2, rel=1e-12)

    def test_never_degenerate(self, rng):
        s = qc.regularize(qc.SemiNorm2.quadratic(np.diag([1.0, 0.0])), 1e-3)
        assert not s.degenerate


class TestBeltrami:
    def test_isotropic_zero(self):
        assert qc.beltrami_of(qc.SemiNorm2.euclidean()) == 0
        assert abs(qc.beltrami_of(LINF)) < 1e-9

    def test_diag41_via_principal_sqrt_oracle(self):
        # T = Q^(1/2) = diag(2, 1) sends the unit ball to a round ball
        from scipy.linalg import sqrtm

        t = np.real(sqrtm(np.diag([4.0, 1.0])))
        tz, tzb = linear_wirtinger_oracle(t)
        assert tzb / tz == pytest.approx(1 / 3, abs=1e-12)
        assert qc.beltrami_of(DIAG41) == pytest.approx(1 / 3, abs=1e-12)

    def test_random_quadratics_match_sqrt_oracle(self, rng):
        from scipy.linalg import sqrtm

        for _ in range(50):
            q = rand_spd(rng)
            tz, tzb = linear_wirtinger_oracle(np.real(sqrtm(q)))
            mu = qc.beltrami_of(qc.SemiNorm2.quadratic(q))
            assert mu == pytest.approx(tzb / tz, abs=1e-9)

    def test_modulus_from_axes(self, rng):
        for _ in range(20):
            s = rand_sampled_norm(rng)
            e = qc.john_ellipse(s)
            assert abs(qc.beltrami_of(s)) == pytest.approx(
                (e.a - e.b) / (e.a + e.b), abs=1e-12)

    def test_rotation_multiplies_phase(self, rng):
        mu0 = qc.beltrami_of(DIAG41)
        for alpha in rng.uniform(0, np.pi, size=8):
            mu = qc.beltrami_of(DIAG41.rotated(alpha))
            assert mu == pytest.approx(mu0 * np.exp(-2j * alpha), abs=1e-10)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSemiNorm):
            qc.beltrami_of(qc.SemiNorm2.zero())


class TestInvariants:
    def test_jacobian_below_energy_quadratic(self, rng):
        for _ in range(300):
            s = qc.SemiNorm2.quadratic(rand_spd(rng, 0.0, 4.0))
            defect = qc.isotropy_defect(s)
            assert qc.jacobian_intrinsic(s) <= qc.energy_plus(s) + 1e-9
            assert defect >= -1e-9

    def test_jacobian_below_energy_sampled(self, rng):
        for _ in range(40):
            s = rand_sampled_norm(rng)
            assert qc.jacobian_intrinsic(s) <= qc.energy_plus(s) + 1e-3

    def test_john_containment_two_sided(self, rng):
        dirs = half_circle_directions(64)
        for _ in range(40):
            s = rand_sampled_norm(rng)
            e = qc.john_ellipse(s)
            r_ball = 1.0 / s.values
            r_ell = e.radial(dirs)
            assert np.all(r_ell <= r_ball * (1 + 1e-6))
            assert np.all(r_ball <= np.sqrt(2) * r_ell * (1 + 1e-6))

    def test_hausdorff_intrinsic_comparison(self, rng):
        for _ in range(40):
            s = rand_sampled_norm(rng)
            jh = qc.jacobian_hausdorff(s)
            ji = qc.jacobian_intrinsic(s)
            assert jh <= ji + 1e-9
            assert ji <= (4 / np.pi) * jh + 1e-9

    def test_quadratic_sampled_consistency(self, rng):
        # sampled pipeline reproduces closed forms; m recorded here is the
        # test configuration (inscribed-polygon bias scales like (pi/m)^2)
        m = 256
        dirs = half_circle_directions(m)
        for _ in range(25):
            squad = qc.SemiNorm2.quadratic(rand_spd(rng))
            ssamp = qc.SemiNorm2.sampled(squad(dirs))
            assert qc.energy_plus(ssamp) == pytest.approx(
                qc.energy_plus(squad), abs=1e-3)
            assert qc.jacobian_intrinsic(ssamp) == pytest.approx(
                qc.jacobian_intrinsic(squad), abs=1e-3)
            assert qc.beltrami_of(ssamp) == pytest.approx(
                qc.beltrami_of(squad), abs=1e-3)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.05, 20.0), seed=st.integers(0, 2**31))
    def test_scaling(self, c, seed):
        r = np.random.default_rng(seed)
        for s in (qc.SemiNorm2.quadratic(rand_spd(r)), rand_sampled_norm(r)):
            sc = s.scaled(c)
            assert qc.energy_plus(sc) == pytest.approx(
                c**2 * qc.energy_plus(s), rel=1e-9)
            assert qc.jacobian_intrinsic(sc) == pytest.approx(
                c**2 * qc.jacobian_intrinsic(s), rel=1e-6)
            assert qc.beltrami_of(sc) == pytest.approx(qc.beltrami_of(s), abs=1e-7)


class TestSerialization:
    def test_quadratic_roundtrip(self):
        s2 = qc.SemiNorm2.from_record(DIAG41.record())
        assert np.allclose(s2.matrix, DIAG41.matrix)

    def test_sampled_roundtrip(self):
        s2 = qc.SemiNorm2.from_record(L1.record())
        assert np.allclose(s2.values, L1.values)

    @pytest.mark.parametrize("bad", ["", "X 1 2 3", "Q 1 2", "S 3 1 2", "S"])
    def test_bad_records(self, bad):
        with pytest.raises(InputFormatError):
            qc.SemiNorm2.from_record(bad)


class TestValidation:
    def test_sampled_needs_eight(self):
        with pytest.raises(ValueError):
            qc.SemiNorm2.sampled([1.0] * 4)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            qc.SemiNorm2.quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            qc.SemiNorm2.quadratic(np.diag([1.0, -0.5]))

    def test_degeneracy_flags(self):
        assert qc.SemiNorm2.zero().degenerate
        assert qc.SemiNorm2.quadratic(np.diag([1.0, 0.0])).degenerate
        vals = np.ones(16)
        vals[3] = 0.0
        assert qc.SemiNorm2.sampled(vals).degenerate
        assert not LINF.degenerate

    def test_convexity_check(self):
        assert LINF.is_convex()
        dirs = half_circle_directions(16)
        vals = qc.SemiNorm2.euclidean()(dirs)
        vals[5] *= 0.5    # dent pushes one vertex far out
        assert not qc.SemiNorm2.sampled(vals).is_convex()
        vals[5] = 0.0     # degenerate: the ball is unbounded
        assert not qc.SemiNorm2.sampled(vals).is_convex()
