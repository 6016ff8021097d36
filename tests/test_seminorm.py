import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcreparam as qc
from qcreparam import seminorm as sn
from qcreparam.errors import DegenerateSemiNorm, EllipseNotCertified, InputFormatError
from qcreparam.seminorm import half_circle_directions

from conftest import (
    edge_max_reference,
    linear_wirtinger_oracle,
    rand_sampled_norm,
    rand_spd,
    rotation,
    sector_reference,
    sweep_energy_oracle,
    traced_peak,
)

D64 = half_circle_directions(64)
LINF = qc.SemiNorm2.sampled(np.abs(D64).max(axis=1))
L1 = qc.SemiNorm2.sampled(np.abs(D64).sum(axis=1))
DIAG41 = qc.SemiNorm2.quadratic(np.diag([4.0, 1.0]))


class TestSampledGauge:
    @pytest.mark.parametrize("count", [5, 1023, 1024, 1027, 1029, 1031,
                                       (1 << 17) - 1, 1 << 17, (1 << 17) + 3])
    def test_matches_abs_max_reference(self, rng, count):
        # bit for bit against the sector rule in one unblocked pass, across
        # the kernel's block edges (GAUGE_BLOCK = 16 384 points), with zero
        # vectors of both signs at +0.0; these rows are convex, so that is
        # max_i |c_i . p| over the polygon's edge rows up to rounding
        for s in (LINF, L1, rand_sampled_norm(rng)):
            half = s._half_edges()
            pts = rng.normal(size=(count, 2))
            pts[:3] = [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]]
            got = s(pts)
            assert np.array_equal(got.view(np.uint64), sector_reference(half, pts).view(np.uint64))
            assert got[:3].view(np.uint64).tolist() == [0, 0, 0]
            near = np.abs(got - edge_max_reference(half, pts))
            assert np.all(near <= 1e-14 * np.linalg.norm(pts, axis=1)
                          * np.linalg.norm(half, axis=1).max())

    def test_sector_rule_is_the_edge_max_on_convex_rows(self, rng):
        # on a convex ball the edge whose cone holds p is the farthest one, so
        # the sector gauge is the max over all edges, the formula it replaced,
        # up to rounding: on l-inf, l1 and 20 convexified random gauges, at
        # points of many scales and on the sample rays, where sectors meet
        pts = rng.normal(size=(4096, 2)) * np.exp(rng.uniform(-20, 20, size=(4096, 1)))
        pts = np.vstack([pts, 3.0 * D64, -D64])
        bound = 1e-14 * np.linalg.norm(pts, axis=1)
        for s in [LINF, L1] + [rand_sampled_norm(rng) for _ in range(20)]:
            assert s.is_convex()
            half = s._half_edges()
            err = np.abs(s(pts) - edge_max_reference(half, pts))
            assert np.all(err <= bound * np.linalg.norm(half, axis=1).max())

    def test_dented_degenerate_row_keeps_its_samples(self):
        # |cos theta| with v[10] halved: an unbounded ball, dented, which the
        # field's convexification leaves as measured.  The sector gauge reads
        # each sample back within 2 ulp of the edge rows meeting there; the
        # max over all edges read 8.99 against v[10] = 0.44
        v = np.abs(D64[:, 0])
        v[10] *= 0.5
        s = qc.SemiNorm2.sampled(v)
        assert s.degenerate and not s.is_convex()
        size = np.linalg.norm(s._half_edges(), axis=1)
        ulp = np.spacing(np.maximum(size, np.roll(size, 1)))     # edges j - 1 and j
        for sign in (1.0, -1.0):
            assert np.all(np.abs(s(sign * D64) - v) <= 2 * ulp)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 4, None])
    def test_degenerate_rows_are_exact(self, rng, alpha):
        # |cos(theta - alpha)| and the zero row (alpha None) have finite edge
        # rows, so their gauge is |p . (cos alpha, sin alpha)| and 0 to rounding
        u = np.zeros(2) if alpha is None else np.array([math.cos(alpha), math.sin(alpha)])
        s = qc.SemiNorm2.sampled(np.abs(D64 @ u))
        assert s.degenerate
        pts = rng.normal(size=(4096, 2))
        err = np.abs(s(pts) - np.abs(pts @ u))
        assert np.all(err <= 1e-13 * np.linalg.norm(pts, axis=1))

    @pytest.mark.parametrize("m", [8, 14, 28, 64, 117])
    def test_wrapped_table_matches_sector_reference(self, rng, m):
        # each row's wrapped table read at floor(atan2 m / pi) + m + 1 gives
        # the bits of the mod-m rule, on random points, the sample rays and
        # both sides of +-x with signed zeros; at m = 14 and 28 the product
        # with m / pi puts (-1, -0.0) at -m - 1
        rows = np.vstack([np.abs(half_circle_directions(m)).max(axis=1),
                          np.abs(half_circle_directions(m)).sum(axis=1),
                          1.0 + rng.uniform(0, 0.3, m)])
        d = half_circle_directions(m)
        pts = np.vstack([rng.normal(size=(2000, 2)), d, -d, 2.5 * d,
                         [[1.0, 0.0], [1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0],
                          [0.0, 1.0], [0.0, -1.0], [0.0, 0.0], [-0.0, -0.0]]])
        x, y = pts.T
        t = np.floor(np.arctan2(y, x) * (m / math.pi)).astype(np.intp)
        assert t.min() >= -m - 1 and t.max() <= m
        if m in (14, 28):
            assert t.min() == -m - 1
        for half in sn.half_edges(rows):
            table = sn.wrapped_edges(half)
            assert table.shape == (2 * m + 2, 2)
            want = sector_reference(half, pts).view(np.uint64)
            assert np.array_equal(sn.sector_gauge(table, m, x, y).view(np.uint64), want)
            assert np.array_equal(sn.edge_gauge(half, pts).view(np.uint64), want)

    def test_peak_memory_is_one_block(self, rng):
        # points go GAUGE_BLOCK at a time, so the call needs at most 2 MB
        # beyond its output
        half = LINF._half_edges()
        out, peak = traced_peak(sn.edge_gauge, half, rng.normal(size=((1 << 17) + 3, 2)))
        assert peak - out.nbytes <= 2 << 20


class TestEnergy:
    def test_quadratic_largest_eigenvalue(self):
        assert qc.energy_plus(DIAG41) == pytest.approx(4.0, abs=1e-12)

    def test_zero(self):
        assert qc.energy_plus(qc.SemiNorm2.zero()) == 0.0

    def test_l1_max_two(self):
        # oracle first: dense sweep of (|cos| + |sin|)^2
        assert sweep_energy_oracle(L1) == pytest.approx(2.0, abs=1e-7)
        assert qc.energy_plus(L1) == pytest.approx(2.0, abs=1e-12)


    def test_edge_formula_is_the_polygon_max_stretch(self, rng):
        # 200 random convex gauges composed with random linear maps a: the
        # edge formula max_i |a^T c_i|^2 is s(a v)^2 at the direction v of
        # the longest a^T c_i, a sweep of 10^5 directions stays below it by at
        # most the sweep's step, and the max over the m sample directions (the
        # formula it replaced) is never above it
        rows = np.array([rand_sampled_norm(rng, bump=1.0, sides=int(rng.integers(2, 33))).values
                         for _ in range(200)])
        a = rng.normal(size=(200, 2, 2))
        edges = sn.half_edges(rows)
        got = sn.edge_energy(edges, None, a)
        ang = np.linspace(0.0, np.pi, 100_000, endpoint=False)
        sweep_dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        for row, c, ak, e in zip(rows, edges, a, got):
            s = qc.SemiNorm2.sampled(row)
            assert s.is_convex()
            t = c @ ak                                          # rows a^T c_i
            v = t / np.linalg.norm(t, axis=1, keepdims=True)
            assert np.max(s(v @ ak.T)) ** 2 == pytest.approx(e, rel=1e-13, abs=0.0)
            sweep = np.max(s(sweep_dirs @ ak.T)) ** 2
            assert -1e-9 <= (sweep - e) / e <= 1e-12
            assert np.max(s(D64 @ ak.T)) ** 2 <= e

    def test_rotated_linf_is_one(self):
        # the sample rays miss the rotated square's edge normals, so the max
        # sample value read 0.99997.  The polygon through the rounded samples
        # has energy 1 + 5.6e-15 (at 50 digits): an edge row amplifies the
        # values' rounding by about 1 / sin(pi / m)
        assert qc.energy_plus(LINF.rotated(0.3)) == pytest.approx(1.0, abs=1e-14)


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

    def test_power_of_two_scaling_is_exact(self, rng):
        # each row is solved scaled to a max in [1/2, 1), which is exact: 2^k
        # times a row gives 2^2k times its M bit for bit, wherever 2^2k M is
        # a normal number, and a row at 1e300 is solved, not refused
        rows = [LINF.values, L1.values, np.hypot(LINF.values, 0.5), np.ones(64)]
        rows += [rand_sampled_norm(rng, stretch=s).values for s in (1.0, 3.0, 20.0)]
        batch = np.array(rows)
        want = sn.inscribed_ellipses(batch)
        for k in (-505, -60, -1, 1, 2, 37, 505):
            assert np.array_equal(sn.inscribed_ellipses(np.ldexp(batch, k)), np.ldexp(want, 2 * k))
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(sn.inscribed_ellipses(1e300 * batch)[:, 0]))

    @staticmethod
    def exact_rows(m, r):
        """The sampled l-inf and l1 balls and their images under
        S diag(2^k, 1) T for random rotations S, T: edges on a side of the
        image are collinear, so their constraint rows repeat up to rounding."""
        dirs = half_circle_directions(m)
        rows = []
        for k in range(-5, 6):
            a = rotation(r.uniform(0, np.pi)) @ np.diag([2.0**k, 1.0]) @ rotation(r.uniform(0, np.pi))
            for d in (dirs, dirs @ a.T):
                rows += [np.abs(d).max(axis=1), np.abs(d).sum(axis=1)]
        return rows

    @pytest.mark.parametrize("m", [8, 16, 64, 128])
    @pytest.mark.parametrize("delta", [0.0, 2.0**-1, 2.0**-4, 2.0**-40])
    def test_exact_containment_and_kkt(self, m, delta):
        from scipy.optimize import nnls

        r = np.random.default_rng(900 + m)
        rows = [rand_sampled_norm(r, m=m).values for _ in range(12)]
        rows += [rand_sampled_norm(r, m=m, stretch=r.uniform(1.0, 25.0)).values for _ in range(12)]
        rows += self.exact_rows(m, r)
        for values in rows:
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

    def test_swap_cap_fails_the_certificate(self, monkeypatch):
        # this row's starting pair is not its optimum; with no exchange
        # allowed it must fail, not pass on the starting pair
        values = rand_sampled_norm(np.random.default_rng(3)).values[None]
        swaps = []
        exchange = sn._exchange
        monkeypatch.setattr(sn, "_exchange", lambda *a: swaps.append(1) or exchange(*a))
        sn.inscribed_ellipses(values)
        assert swaps
        monkeypatch.setattr(sn, "_MAX_SWAPS", 0)
        with pytest.raises(EllipseNotCertified, match="not solved"):
            sn.inscribed_ellipses(values)


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

    def test_sampled_energy_above_jacobian(self):
        # I_+^2 >= J on sampled rows, to rounding: the inscribed disc of radius
        # 1 / max_i |c_i| lies in the ball, so the maximal ellipse is no
        # smaller.  The sample max read -6.0e-4 on the round 64-gon
        rows = [np.ones(64)] + [t.rotated(alpha).values for t in (LINF, L1)
                                for alpha in (0.1, 0.3, 1.0, 2.5)]
        for row in rows:
            s = qc.SemiNorm2.sampled(row)
            assert qc.isotropy_defect(s) >= -1e-12 * qc.energy_plus(s)
        u = qc.SampledMap.from_function(qc.DiscGrid(64), qc.TargetSpace.linf(),
                                        lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]))
        f = qc.estimate_field(u)
        energy = sn.row_energy("sampled", f.rows)
        defect = energy - sn.ellipse_jacobian(sn.ellipse_rows("sampled", f.rows))
        assert len(f.rows) > 1000 and np.all(defect >= -1e-12 * energy)


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
        # quadratic: I_+^2 shifts by delta^2 exactly.  Sampled: the polygon
        # through the regularized samples is inscribed in the convex ball of
        # sqrt(s^2 + delta^2 |.|^2), whose I_+^2 is I_+^2(s) + delta^2, and
        # each edge row grows by at most delta^2 / cos^2(pi / 2m) in square
        r = np.random.default_rng(seed)
        s = qc.SemiNorm2.quadratic(rand_spd(r))
        lhs = qc.energy_plus(qc.regularize(s, delta))
        assert lhs == pytest.approx(qc.energy_plus(s) + delta**2, rel=1e-12)
        s = rand_sampled_norm(r)
        lhs, e = qc.energy_plus(qc.regularize(s, delta)), qc.energy_plus(s)
        assert (e + delta**2) * (1 - 1e-12) <= lhs
        assert lhs <= (e + delta**2 / math.cos(math.pi / (2 * s.m)) ** 2) * (1 + 1e-12)

    def test_huge_gauge_values(self):
        # sqrt(v^2 + delta^2) overflowed above about 1.3e154
        s = qc.regularize(qc.SemiNorm2.sampled(np.full(64, 1e160)), 0.5)
        assert np.all(s.values == 1e160)

    def test_never_degenerate(self, rng):
        s = qc.regularize(qc.SemiNorm2.quadratic(np.diag([1.0, 0.0])), 1e-3)
        assert not s.degenerate


class TestRegularizedEllipse:
    """ellipse_rows at delta > 0 builds each ellipse from the delta = 0 one,
    M0 + delta^2 I, or takes the exact solve where M0 = 0: whichever, it lies
    in the ball of the semi-norm itself, the containment the lemma's per-cell
    bound uses, and it is no smaller in J than M0."""

    @staticmethod
    def rows(seed):
        r = np.random.default_rng(seed)
        return np.array([rand_sampled_norm(r).values,
                         rand_sampled_norm(r, stretch=r.uniform(1.0, 8.0)).values,
                         LINF.values, L1.values, LINF.rotated(r.uniform(0, np.pi)).values,
                         np.abs(D64[:, 0])])                  # last: M0 = 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(0, 60))
    def test_contained_and_no_smaller_than_the_exact_solve(self, seed, k):
        delta = 2.0**-k
        rows = self.rows(seed)
        m0 = sn.ellipse_rows("sampled", rows)
        m = sn.ellipse_rows("sampled", rows, delta, m0)
        # max_i c_i.M^-1 c_i <= 1 + FEAS_TOL on the delta = 0 edges, M^-1 = adj M / det M
        x, y = np.moveaxis(sn.half_edges(rows), -1, 0)
        load = ((m[:, 2:] * x - 2.0 * m[:, 1:2] * y) * x + m[:, :1] * y * y).max(axis=-1)
        assert np.all(load <= (1.0 + sn.FEAS_TOL) * sn.packed_det(m))
        # M >= M0, so J(M) >= J(M0), the exact delta = 0 solve's
        assert np.all(sn.ellipse_jacobian(m) >= sn.ellipse_jacobian(m0))
        # a row whose delta = 0 ellipse is zero gets the exact solve of its
        # regularized row
        zero = ~m0.any(axis=-1)
        exact = sn.inscribed_ellipses(sn.row_regularized("sampled", rows[zero], delta))
        assert zero[-1] and np.array_equal(m[zero], exact)

    def test_isotropic_tie_breaks_take_the_disc(self, monkeypatch):
        # the l-inf gauge rounded to 12 decimals of 1 and of 1/2, the two rows
        # that the stencil's rounding once split the l-inf identity's field
        # into.  The basis exchange solves the second's maximal ellipse as the
        # tie-break of its flat sides, |mu| 4.7e-12, and M0 + delta^2 I would
        # keep that at every delta; the solve gives it the inscribed disc
        # instead, so both rows' coefficients stay at rounding at every delta,
        # and so does the exact solve of the regularized row, also at 2^-40,
        # where its curvature is too small to break the tie
        linf = np.abs(half_circle_directions(64)).max(axis=1)
        rows = np.array([np.ldexp(np.round(np.ldexp(linf, -e), 12), e) for e in (0, -1)])
        for delta in (0.0, 1.0, 2.0**-5, 2.0**-40):
            m = sn.ellipse_rows("sampled", rows, delta)
            assert np.abs(sn.ellipse_beltrami(m)).max() < 1e-14
            reg = sn.row_regularized("sampled", rows, delta)
            assert np.abs(sn.ellipse_beltrami(sn.inscribed_ellipses(reg))).max() < 1e-14
            disc = m[:, 1] == 0.0
            assert disc.any() and np.all(m[disc, 0] == m[disc, 2])
        monkeypatch.setattr(sn, "ROUNDING_FLOOR", 1.0)          # no row takes the disc
        assert np.abs(sn.ellipse_beltrami(sn.ellipse_rows("sampled", rows))).max() > 1e-12


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

    def test_thin_ellipse_keeps_its_small_eigenvalue(self):
        # M = (1, 0, 2^-60) holds its small eigenvalue exactly, but
        # (tr - gap) / 2 cancelled it to 0, so mu read 1 and the major
        # semi-axis inf, while J read 2^-30
        s = qc.regularize(qc.SemiNorm2.quadratic(np.diag([1.0, 0.0])), 2.0**-30)
        assert abs(qc.beltrami_of(s)) == pytest.approx((1 - 2.0**-30) / (1 + 2.0**-30), rel=1e-15)
        assert qc.john_ellipse(s).a == 2.0**30
        assert sn.packed_eig(np.array([1.0, 0.0, 2.0**-60]))[0] == 2.0**-60


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

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            qc.SemiNorm2.quadratic([[np.inf, 0.0], [0.0, 1.0]])

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


def solve3_reference(a, b):
    """Cramer's rule with numpy's cross products, a row sum for det."""
    c0, c1, c2 = (np.cross(a[..., i, :], a[..., j, :]) for i, j in ((1, 2), (2, 0), (0, 1)))
    det = np.sum(a[..., 0, :] * c0, axis=-1)
    return (b[..., 0, None] * c0 + b[..., 1, None] * c1 + b[..., 2, None] * c2) / det[..., None]


class TestSolve3:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_cross_product_reference(self, seed):
        # bit for bit, nan and signed infinities of singular systems included:
        # repeated or opposite rows, a zero column, all -0.0, zero right sides
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(400, 3, 3, 3))
        b = rng.normal(size=(400, 3, 3))
        a[:40, :, 2] = a[:40, :, 1]
        a[40:80, :, 0] = -a[40:80, :, 1]
        a[80:120, ..., 2] = 0.0
        a[120:160] = -0.0
        b[160:200] = 0.0
        a[200:240] *= np.exp(rng.uniform(-300, 300, size=(40, 1, 1, 1)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            for aa in (a, np.swapaxes(a, -1, -2)):
                want = solve3_reference(aa, b)
                assert not np.all(np.isfinite(want))
                assert sn._solve3(aa, b).tobytes() == want.tobytes()
