import numpy as np
import pytest

import qcreparam as qc
from qcreparam import field as fd
from qcreparam import seminorm as sn
from qcreparam.errors import (DegenerateSemiNorm, InputFormatError, QcreparamError,
                              StencilOutOfDomain)
from qcreparam.seminorm import half_circle_directions

from conftest import (estimate_rows_reference, linear_qcmap, rand_orientation_matrix,
                      rand_sampled_norm, rand_spd, traced_peak)

EUCLID = qc.TargetSpace.euclidean(2)


def make_map(n, fn, target=EUCLID):
    return qc.SampledMap.from_function(qc.DiscGrid(n), target, fn)


def identity_map(n, target=EUCLID):
    return make_map(n, lambda x, y: np.stack([x, y]), target)


def stretch_map(n):
    return make_map(n, lambda x, y: np.stack([2.0 * x, y]))


class TestDiscGrid:
    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            qc.DiscGrid(8)

    def test_masks_nested_in_disc(self):
        g = qc.DiscGrid(64)
        assert np.all(g.radius[g.disc_mask] < 1.0)
        assert np.all(g.radius[g.interior_mask] < 1.0 - g.margin)

    def test_weights_approach_disc_area(self):
        for n, tol in ((64, 0.02), (256, 0.002)):
            g = qc.DiscGrid(n)
            assert np.sum(g.disc_mask) * g.weight == pytest.approx(np.pi, rel=tol)

    def test_extension_is_identity_on_interior(self):
        g = qc.DiscGrid(32)
        arr = np.arange(32 * 32, dtype=float).reshape(32, 32)
        ext = g.extend(arr)
        assert np.array_equal(ext[g.interior_mask], arr[g.interior_mask])

    def test_extension_matches_distance_transform(self):
        # the nearest interior cell on every disc cell, ties to the least
        # column, as scipy's exact Euclidean distance transform finds it;
        # every other cell maps to itself
        from scipy import ndimage

        for n in [*range(16, 301), 401, 418, 442, 511, 512, 1000, 1024, 2048]:
            g = qc.DiscGrid(n)
            _, want = ndimage.distance_transform_edt(~g.interior_mask, return_indices=True)
            got = np.stack(g.extension_indices()).astype(want.dtype)
            disc = g.disc_mask
            assert got[:, disc].tobytes() == want[:, disc].tobytes(), n
            assert np.array_equal(got[:, ~disc], np.indices((n, n))[:, ~disc]), n


    def test_cached_arrays_are_read_only(self):
        g = qc.DiscGrid(32)
        for a in (g.x, g.y, g.radius, g.disc_mask, g.interior_mask, *g.extension_indices()):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = a[1, 1]
        assert g.disc_mask is g.disc_mask and g.interior_mask is g.interior_mask

    def test_loads_of_one_n_share_a_grid(self, tmp_path):
        paths = [tmp_path / f"{k}.map" for k in range(3)]
        identity_map(32).save(paths[0])
        stretch_map(32).save(paths[1])
        identity_map(48).save(paths[2])
        u, v, w = (qc.SampledMap.load(p) for p in paths)
        assert u.grid is v.grid and u.grid is not w.grid
        qc.estimate_field(v).save(tmp_path / "field.txt")
        assert qc.DerivativeField.load(tmp_path / "field.txt").grid is v.grid


class TestTargetSpace:
    def test_euclidean_distance(self):
        assert EUCLID.distance([3.0, 0.0], [0.0, 4.0])[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 9])
    def test_euclidean_distance_has_the_bits_of_norm(self, d):
        # zeros of both signs, subnormals and entries whose squares or sums
        # overflow, in blocks of the stencil's shapes: np.linalg.norm's bits,
        # and its kinds of floating-point warning (numpy names the ufunc in
        # the message: "overflow encountered in add", not "in reduce")
        import warnings

        def kinds(caught):
            return {(w.category, str(w.message).split(" encountered")[0]) for w in caught}

        rng = np.random.default_rng(d)
        t = qc.TargetSpace.euclidean(d)
        seen = set()
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                            1e-160, 1e154, 1e155, 1e200, -1e308, 1.7976931348623157e308])
        for shape in [(1,), (7,), (100_000,), (3, 4096), (2, 5, 7)]:
            xs = rng.normal(size=shape + (d,)) * np.exp(rng.uniform(-30, 30, shape + (d,)))
            ys = rng.normal(size=shape + (d,))
            pick = rng.random(xs.shape) < 0.1
            xs[pick] = rng.choice(special, pick.sum())
            ys[pick] = rng.choice([0.0, -0.0], pick.sum())
            for a, b in ((xs, ys), (xs, xs), (xs[..., :1, :], ys)):
                with warnings.catch_warnings(record=True) as got:
                    warnings.simplefilter("always")
                    mine = t.distance(a, b)
                with warnings.catch_warnings(record=True) as want:
                    warnings.simplefilter("always")
                    ref = np.linalg.norm(np.atleast_2d(a - b), axis=-1)
                assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes(), shape
                assert kinds(got) == kinds(want)
                seen |= kinds(want)
        assert seen == {(RuntimeWarning, "overflow")}
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                t.distance(np.full(d, 1e200), np.zeros(d))

    def test_quadratic_distance(self):
        t = qc.TargetSpace.quadratic(np.diag([4.0, 1.0]))
        assert t.distance([1.0, 0.0], [0.0, 0.0])[0] == pytest.approx(2.0)

    def test_polygonal_distance(self):
        t = qc.TargetSpace.linf()
        assert t.distance([0.5, -0.25], [0.0, 0.0])[0] == pytest.approx(0.5, abs=1e-12)

    def test_metric_axioms_spot_check(self, rng):
        for t in (EUCLID, qc.TargetSpace.quadratic(rand_spd(rng)), qc.TargetSpace.l1()):
            pts = rng.normal(size=(3, t.d))
            a, b, c = pts
            assert t.distance(a, a)[0] == pytest.approx(0.0, abs=1e-14)
            assert t.distance(a, b)[0] == pytest.approx(t.distance(b, a)[0], rel=1e-12)
            assert t.distance(a, c)[0] <= t.distance(a, b)[0] + t.distance(b, c)[0] + 1e-12

    def test_polygonal_gauge_must_be_convex(self):
        # the gauge is read by sector, the max over all edges only on a convex
        # ball: l-inf values with v[5] raised 20 % are rejected, l-inf and l1
        # and degenerate values too
        v = np.abs(half_circle_directions(64)).max(axis=1)
        v[5] *= 1.2
        for bad in (v, np.abs(half_circle_directions(64)[:, 0])):
            assert not qc.SemiNorm2.sampled(bad).is_convex()
            with pytest.raises(ValueError, match="polygonal gauge must be a norm"):
                qc.TargetSpace.polygonal(bad)
        for good in (qc.TargetSpace.linf(), qc.TargetSpace.l1(), qc.TargetSpace.linf(8)):
            assert good.kind == "polygonal"

    def test_descriptor_roundtrip(self, rng):
        for t in (EUCLID, qc.TargetSpace.quadratic(rand_spd(rng)), qc.TargetSpace.linf()):
            t2 = qc.TargetSpace.from_descriptor(t.descriptor())
            assert t2.kind == t.kind and t2.d == t.d


class TestEstimateDerivative:
    def test_from_function_values_c_contiguous(self):
        # fn's (d, n, n) output is stored C-contiguous (n, n, d) with its bits,
        # so the stencil's flat (n * n, d) view and lattice.bilinear copy nothing
        def fn(x, y):
            return np.stack([x + 0.2 * x * y, y + 0.1 * x * x])

        u = make_map(32, fn)
        assert u.values.flags.c_contiguous
        want = np.moveaxis(fn(u.grid.x, u.grid.y), 0, -1)
        assert u.values.tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.shares_memory(u.values.reshape(32 * 32, -1), u.values)

    def test_linear_map_exact(self):
        u = stretch_map(64)
        s = qc.estimate_derivative(u, 32, 40)
        assert np.allclose(s.matrix, np.diag([4.0, 1.0]), atol=1e-9)

    def test_constant_map_zero(self):
        u = make_map(64, lambda x, y: np.stack([np.ones_like(x), np.zeros_like(y)]))
        s = qc.estimate_derivative(u, 32, 32)
        assert qc.energy_plus(s) == pytest.approx(0.0, abs=1e-12)

    def test_identity_into_linf_gauge(self):
        u = identity_map(64, qc.TargetSpace.linf())
        s = qc.estimate_derivative(u, 30, 34)
        expected = np.abs(half_circle_directions(64)).max(axis=1)
        assert s.kind == "sampled"
        assert np.allclose(s.values, expected, atol=1e-9)

    def test_stencil_out_of_domain(self):
        u = identity_map(64)
        edge = np.argwhere(u.grid.disc_mask & ~u.grid.interior_mask)[0]
        with pytest.raises(StencilOutOfDomain):
            qc.estimate_derivative(u, int(edge[0]), int(edge[1]))

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("target", ["euclidean", "linf"])
    def test_domain_is_the_interior_mask(self, n, target):
        # estimate_derivative raises exactly off interior_mask, and elsewhere
        # gives the field's row bytes: its own stencil-radius test accepted 24
        # non-interior cells at n = 128 (Euclidean), each with a row the field
        # does not hold there
        u = make_map(n, lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]),
                     EUCLID if target == "euclidean" else qc.TargetSpace.linf())
        f = qc.estimate_field(u)
        for i, j in np.argwhere(u.grid.disc_mask).tolist():
            if u.grid.interior_mask[i, j]:
                assert (qc.estimate_derivative(u, i, j).row.tobytes()
                        == f.seminorm_at(i, j).row.tobytes())
            else:
                with pytest.raises(StencilOutOfDomain):
                    qc.estimate_derivative(u, i, j)
        for i, j in ((-1, 5), (n, 5), (5, -n)):             # off the grid
            with pytest.raises(StencilOutOfDomain):
                qc.estimate_derivative(u, i, j)

    def test_field_matches_cellwise_estimates(self):
        # the quadratic fit is a fixed-order sum over the directions, so one
        # cell gets the field's bits (a matmul moved q11 by 8.9e-16 at (32, 40))
        for fn in (lambda x, y: np.stack([2.0 * x, y]),
                   lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x])):
            u = make_map(64, fn)
            f = qc.estimate_field(u)
            for i, j in ((32, 40), (20, 30), (45, 33)):
                assert (qc.estimate_derivative(u, i, j).row.tobytes()
                        == f.seminorm_at(i, j).row.tobytes())

    @pytest.mark.parametrize("n", [32, 64])
    def test_stencil_shift_matches_sample(self, monkeypatch, n):
        # each stencil point z + h v sits at offset v from its cell's node, so
        # the shifted corners and weights must give SampledMap.sample's
        # bilinear value there, on every direction of the one stencil
        seen, blend = [], qc.lattice.blend
        monkeypatch.setattr(qc.lattice, "blend",
                            lambda *args: seen.append(blend(*args)) or seen[-1])
        for target in (qc.TargetSpace.linf(), EUCLID):
            u = make_map(n, lambda x, y: np.stack([x + 0.2 * x * y, 3.0 + y + 0.1 * x * x]),
                         target)
            seen.clear()
            qc.estimate_field(u)
            ii, jj = np.nonzero(u.grid.interior_mask)
            z = np.column_stack([u.grid.x[ii, jj], u.grid.y[ii, jj]])
            assert len(seen) == len(fd._STENCIL) == fd.QUADRATIC_STENCIL_DIRECTIONS
            scale = np.abs(u.values[u.grid.disc_mask]).max()
            for v, got in zip(fd._STENCIL, seen):
                assert np.all(np.abs(got - u.sample(z + u.grid.h * v)) <= 1e-15 * scale)


    @pytest.mark.parametrize("n", [16, 32, 64, 164])
    def test_blocked_stencil_matches_per_direction(self, n):
        # the stencil's arrays over all directions at once run the same
        # elementwise operations as one direction at a time, so the rows and
        # their index keep every bit; at n = 164 the m N gauge points of a
        # polygonal target cross many of edge_gauge's GAUGE_BLOCK blocks
        targets = [EUCLID, qc.TargetSpace.quadratic([[2.0, 0.3], [0.3, 0.5]]),
                   qc.TargetSpace.linf(), qc.TargetSpace.l1()]
        if n == 164:
            assert np.count_nonzero(qc.DiscGrid(n).interior_mask) > sn.GAUGE_BLOCK
            targets = targets[::2]
        for target in targets:
            u = make_map(n, lambda x, y: np.stack([x + 0.2 * x * y + 0.05 * np.sin(3.0 * y),
                                                   y + 0.1 * x * x]), target)
            ii, jj = np.nonzero(u.grid.interior_mask)
            kind, rows, inv = fd._estimate_rows(u, ii, jj)
            want_kind, want_rows, want_inv = estimate_rows_reference(u, ii, jj)
            assert kind == want_kind
            assert rows.tobytes() == want_rows.tobytes()
            assert np.array_equal(inv, want_inv)


def smooth_law(c):
    """The random-smooth fixture's form with coefficients c, and its exact Du."""
    p = np.pi

    def fn(x, y):
        return np.stack([x + c[0] * np.sin(p * x) * np.cos(p * y) + c[1] * x * y,
                         y + c[2] * np.cos(p * x) * np.sin(p * y) + c[3] * x * x
                         + c[4] * y + c[5] * x])

    def du(x, y):
        return np.array([
            [1 + c[0] * p * np.cos(p * x) * np.cos(p * y) + c[1] * y,
             -c[0] * p * np.sin(p * x) * np.sin(p * y) + c[1] * x],
            [-c[2] * p * np.sin(p * x) * np.sin(p * y) + 2 * c[3] * x + c[5],
             1 + c[2] * p * np.cos(p * x) * np.cos(p * y) + c[4]]])
    return fn, du


def signed_permutations():
    return [np.eye(2)[list(p)] * np.array(s) for p in ((0, 1), (1, 0))
            for s in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]


class TestNormedTargetRows:
    """Rows of polygonal targets: the target's gauge at Du d_j, Du fitted on
    the 8-direction stencil."""

    @staticmethod
    def analytic_rows(u, du):
        # |Du(z) d_j| at the interior cells, Du the law's exact derivative
        ii, jj = np.nonzero(u.grid.interior_mask)
        a = du(u.grid.x[ii, jj], u.grid.y[ii, jj])
        d = half_circle_directions(u.target.gauge.size)
        pts = np.stack([a[r, 0][:, None] * d[:, 0] + a[r, 1][:, None] * d[:, 1]
                        for r in (0, 1)], axis=-1)
        return u.target.distance(pts.reshape(-1, 2), 0.0).reshape(len(ii), -1), ii, jj

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("target", ["linf", "l1"])
    @pytest.mark.parametrize("law", ["fixture", "strong"])
    def test_smooth_rows_near_the_metric_differential(self, n, target, law):
        # the fit is second order: the rows sit within 1e-3 (64 / n)^2 of the
        # analytic |Du(z) d_j|, relative to each row's max (measured 5.2e-4 to
        # 6.6e-4 at n = 64); the 128-direction differences d(u(z + h v), u(z))
        # / h carried an O(h) curvature term, 5.8e-3 to 9.3e-3 at n = 64 and
        # 2.7e-3 to 4.9e-3 at n = 128 on these laws.  Every row of the field
        # passes convex_rows as it is, with no hull
        c = np.random.default_rng(0).normal(scale=0.1, size=6)
        if law == "strong":     # the benchmark's strongest smooth amplitude
            c = np.random.default_rng(1).normal(size=6)
            c *= 0.3 / np.linalg.norm(c)
        fn, du = smooth_law(c)
        u = make_map(n, fn, getattr(qc.TargetSpace, target)())
        f = qc.estimate_field(u)
        want, ii, jj = self.analytic_rows(u, du)
        got = f.rows[f.index[ii, jj]]
        err = np.abs(got - want).max(axis=1) / want.max(axis=1)
        assert err.max() <= 1e-3 * (64 / n) ** 2
        assert np.all(sn.convex_rows(f.rows))

    @pytest.mark.parametrize("n", [64, 128])
    def test_linear_rows_exact(self, n):
        # a linear law's bilinear samples are exact up to rounding, so every
        # row is |A d_j| to 1e-12 relative: the 12-decimal rounding and the
        # stencil's cancellation, for a generic A and the pool's exact ones
        for a in (np.array([[1.3, -0.4], [0.2, 0.9]]), np.diag([4.0, 1.0]),
                  signed_permutations()[5] @ np.diag([2.0, 1.0]) @ signed_permutations()[2]):
            for target in (qc.TargetSpace.linf(), qc.TargetSpace.l1()):
                u = make_map(n, lambda x, y: np.einsum("ab,bij->aij", a, np.stack([x, y])), target)
                f = qc.estimate_field(u)
                want, ii, jj = self.analytic_rows(u, lambda x, y: a[:, :, None] + 0 * x)
                got = f.rows[f.index[ii, jj]]
                assert np.max(np.abs(got - want) / want.max(axis=1, keepdims=True)) <= 1e-12

    def test_exact_laws_give_one_row(self):
        # every S diag(2^k, 1) T of the linf-shared pool (k = 0, 1 and the
        # anchor's 2, S and T signed permutations) has one semi-norm, and
        # its rows one rounding scale: one row at n = 64.  The scale 2^e <=
        # max(row) flipped where the row max sits at a power of two, as these
        # do, and split 32 to 40 of the 64 maps of each k into two rows
        grid, target = qc.DiscGrid(64), qc.TargetSpace.linf()
        for k in (0, 1, 2):
            for s in signed_permutations():
                for t in signed_permutations():
                    a = s @ np.diag([2.0**k, 1.0]) @ t
                    u = qc.SampledMap.from_function(
                        grid, target, lambda x, y: np.einsum("ab,bij->aij", a, np.stack([x, y])))
                    assert len(qc.estimate_field(u).rows) == 1, (k, a)


class TestQuadrature:
    def test_identity_energy_and_areas(self):
        f = qc.estimate_field(identity_map(128))
        assert qc.energy(f) == pytest.approx(np.pi, rel=0.02)
        assert qc.area_intrinsic(f) == pytest.approx(np.pi, rel=0.02)
        assert qc.area_hausdorff(f) == pytest.approx(np.pi, rel=0.02)

    def test_stretch_energy_and_areas(self):
        f = qc.estimate_field(stretch_map(128))
        assert qc.energy(f) == pytest.approx(4 * np.pi, rel=0.02)
        assert qc.area_intrinsic(f) == pytest.approx(2 * np.pi, rel=0.02)
        # inner-product target: the two areas agree
        assert qc.area_hausdorff(f) == pytest.approx(qc.area_intrinsic(f), rel=1e-9)

    def test_constant_map_zero(self):
        f = qc.estimate_field(make_map(64, lambda x, y: np.stack([0 * x + 2, 0 * y])))
        assert qc.energy(f) == 0.0
        assert qc.area_intrinsic(f) == 0.0
        assert qc.area_hausdorff(f) == 0.0

    def test_linf_identity_areas(self):
        f = qc.estimate_field(identity_map(128, qc.TargetSpace.linf()))
        assert qc.energy(f) == pytest.approx(np.pi, rel=0.02)
        assert qc.area_hausdorff(f) == pytest.approx(np.pi**2 / 4, rel=0.02)
        assert qc.area_intrinsic(f) == pytest.approx(np.pi, rel=0.02)


def solver_box_map(m, n):
    """The linear map m sampled on a solver box of DiscGrid(n), the grid padded
    by n/2 cells per side: 2n nodes on [-2, 2]^2, node k on disc cell k - n/2."""
    return linear_qcmap(m, box=2.0, n=2 * n)


class TestComposedEnergy:
    def test_identity_phi_reproduces_energy(self):
        u = stretch_map(96)
        f = qc.estimate_field(u)
        # the disc quadrature of the energy itself, cell by cell
        assert qc.composed_energy(f, solver_box_map(np.eye(2), 96)) == qc.energy(f)

    def test_linear_phi_closed_form(self):
        u = stretch_map(96)
        f = qc.estimate_field(u)
        m = np.array([[2**-0.5, 0.0], [0.0, 2**0.5]])
        rho = solver_box_map(np.linalg.inv(m), 96)
        # phi = rho^-1 = m: I2(diag(4,1) . M) = lmax(M^T Q M) = 2 and det Drho = 1,
        # over the disc cells' area
        area = f.grid.integrate(np.ones((96, 96)))
        assert qc.composed_energy(f, rho) == pytest.approx(2.0 * area, rel=1e-12)

    def test_rotation_leaves_energy(self, rng):
        u = stretch_map(96)
        f = qc.estimate_field(u)
        c, s = np.cos(0.37), np.sin(0.37)
        rot = np.array([[c, -s], [s, c]])
        e0 = qc.composed_energy(f, solver_box_map(np.eye(2) * 0.4, 96))
        e1 = qc.composed_energy(f, solver_box_map(rot * 0.4, 96))
        assert e1 == pytest.approx(e0, rel=1e-12)
        assert e0 == pytest.approx(qc.energy(f), rel=1e-12)

    @pytest.mark.parametrize("target", ["euclid", "linf"])
    def test_dominates_area_cell_by_cell(self, rng, target):
        # I2(s . B) det B^-1 >= J(s . B) det B^-1 = J(s) for every linear B:
        # for any rho the composed density stays above the jacobian
        space = qc.TargetSpace.linf() if target == "linf" else qc.TargetSpace.euclidean(2)
        f = qc.estimate_field(make_map(32, lambda x, y: np.stack([x + 0.2 * x * y,
                                                                  y + 0.1 * x * x]), space))
        disc = f.grid.disc_mask
        jd = f.jacobian_intrinsic_density()[disc]
        for _ in range(5):
            m = rand_orientation_matrix(rng)
            dens = fd.composed_density(f, f.index[disc],
                                       np.broadcast_to(m, (int(disc.sum()), 2, 2)))
            assert np.all(dens >= jd * (1 - 1e-7))

    def test_linf_peak_memory(self):
        # an l-inf field needs the disc cells' m mapped directions (2 K m
        # doubles) and their gauge values (K m); the edge loads of the gauge
        # come a block at a time, within 2 MB beyond those
        f = qc.estimate_field(make_map(64, lambda x, y: np.stack([2.0 * x, y]),
                                       qc.TargetSpace.linf()))
        rho = solver_box_map(np.eye(2), 64)
        _, peak = traced_peak(qc.composed_energy, f, rho)
        assert peak <= 3 * f.grid.disc_mask.sum() * f.rows.shape[1] * 8 + (2 << 20)

    def test_rho_off_the_disc_cells_refused(self):
        # rho's nodes must be the disc cell centres, padded by whole cells
        f = qc.estimate_field(identity_map(64))
        for rho in (linear_qcmap(np.eye(2), box=1.0, n=32),        # spacing 2h
                    linear_qcmap(np.eye(2), box=2.0 - 1 / 64, n=127),   # odd padding
                    linear_qcmap(np.eye(2), box=0.5, n=16)):        # smaller than the disc
            with pytest.raises(ValueError, match="disc cell centres"):
                qc.composed_energy(f, rho)


class TestSampledRowsBatched:
    """The batched sampled-row kernels against the per-row forms they replaced."""

    @staticmethod
    def gauge_rows(rng, m=64, count=40):
        dirs = half_circle_directions(m)
        rows = [qc.SemiNorm2.quadratic(rand_spd(rng))(dirs) * (1.0 + rng.uniform(0, b, m))
                for b in np.linspace(0.0, 0.4, count)]        # convex, then dented
        rows.append(np.abs(dirs).max(axis=1))                  # l-inf: collinear edges
        rows.append(rows[-1] * np.where(np.arange(m) == 5, 1.0 + 1e-12, 1.0))  # dent below tol
        rows.append(np.abs(dirs[:, 0]))                        # degenerate: one zero
        rows.append(np.zeros(m))                               # degenerate: all zero
        return np.array(rows)

    @staticmethod
    def convex_rows_reference(values):
        # the turn test of all 2m vertices, with np.roll and np.linalg.norm
        live = ~sn.row_degenerate("sampled", values)
        out = np.zeros(len(values), dtype=bool)
        half = half_circle_directions(values.shape[1]) * (1.0 / values[live])[..., None]
        verts = np.concatenate([half, -half], axis=-2)
        a = np.roll(verts, -1, axis=-2) - verts
        b = np.roll(a, -1, axis=-2)
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        scale = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
        out[live] = np.all(cross >= -sn.CONVEX_TOL * np.maximum(scale, 1e-300), axis=-1)
        return out

    def test_convex_rows_matches_roll_formula(self, rng):
        # m turns of one half: the other half's edges are the negated ones, so
        # its turns are the same; the booleans of the 2m-turn formula, also
        # across convex_rows' row chunks (512 rows)
        u = make_map(128, lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]),
                     qc.TargetSpace.linf())
        rows = qc.estimate_field(u).rows
        assert len(rows) > 1000
        assert np.array_equal(sn.convex_rows(rows), self.convex_rows_reference(rows))
        for m in (8, 16, 64, 128):
            rows = self.gauge_rows(rng, m=m, count=600)
            rows[::3] *= 1.0 + 1e-9 * rng.normal(size=(1, m))     # dents near the tolerance
            want = self.convex_rows_reference(rows)
            assert 0 < want.sum() < len(rows) - 2
            assert np.array_equal(sn.convex_rows(rows), want)

    def test_composed_density_matches_per_row(self, rng):
        # max_i |df^T c_i|^2 over each node's edge rows, in one plain pass per
        # row, gives the bits of the blocked kernel
        uniq = self.gauge_rows(rng, count=12)
        ids = rng.integers(0, len(uniq), size=600)
        df = rng.normal(size=(600, 2, 2))
        df[:5] = 0.0                                           # zero vectors too
        want = np.empty(len(ids))
        for r in np.unique(ids):
            c = qc.SemiNorm2.sampled(uniq[r])._half_edges()
            a = df[ids == r][:, None]
            x = a[..., 0, 0] * c[:, 0] + a[..., 1, 0] * c[:, 1]
            y = a[..., 0, 1] * c[:, 0] + a[..., 1, 1] * c[:, 1]
            want[ids == r] = np.max(x * x + y * y, axis=1)
        # across the kernel's node blocks (256 nodes at m = 64)
        for count in (600, 256, 513):
            got = sn.edge_energy(sn.half_edges(uniq), ids[:count], df[:count])
            assert got.tobytes() == want[:count].tobytes()

    def test_estimate_derivative_is_the_field_row(self):
        # rows are computed per cell, so one cell gives the field's bits
        # (quadratic rows too: see test_field_matches_cellwise_estimates)
        for target in (qc.TargetSpace.linf(), qc.TargetSpace.l1()):
            u = make_map(64, lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]), target)
            f = qc.estimate_field(u)
            for i, j in ((32, 40), (20, 30), (45, 33)):
                assert (qc.estimate_derivative(u, i, j).values.tobytes()
                        == f.seminorm_at(i, j).values.tobytes())

    @pytest.mark.parametrize("lam", [1e-12, 1e-10, 1.0, 1e6])
    def test_sampled_rows_scale_covariant(self, lam):
        # the stencil dedup rounds each row relative to its own size, so a
        # scaled map keeps its rows: an absolute rounding merged all rows at
        # lam = 1e-12 and gave energy < area there
        def nonlinear(x, y):
            return np.stack([x + 0.2 * x * y, y + 0.1 * x * x])

        base = qc.estimate_field(make_map(32, nonlinear, qc.TargetSpace.linf()))
        f = qc.estimate_field(make_map(32, lambda x, y: lam * nonlinear(x, y),
                                       qc.TargetSpace.linf()))
        assert len(f.rows) == len(base.rows)
        assert qc.energy(f) / lam**2 == pytest.approx(qc.energy(base), rel=1e-9)
        assert qc.energy(f) >= qc.area_intrinsic(f)

    @pytest.mark.parametrize("angle", [0.0, 0.25 * np.pi])
    def test_regularized_degenerate_row_keeps_its_ellipse(self, angle):
        # |cos(theta - angle)| vanishes on a sample direction; sqrt(v^2 +
        # delta^2) is a norm at every delta > 0, also where it still tests
        # degenerate (delta < 1e-10 here), and gets its certified ellipse
        # instead of M = 0.  Off the axes the ball is a thin rotated spike:
        # its vertex scatter once cancelled to a singular matrix at delta =
        # 2^-30, and below delta ~ 2^-27 the packed M (entries ~1) cannot
        # hold the small eigenvalue, so there J is rounding noise >= 0
        grid = qc.DiscGrid(16)
        row = np.abs(half_circle_directions(64) @ [np.cos(angle), np.sin(angle)])
        inv = np.zeros(int(grid.interior_mask.sum()), dtype=np.intp)
        f = qc.DerivativeField.from_interior(grid, "sampled", row[None], inv)
        assert np.all(f.jacobian_intrinsic_density(0.0) == 0.0)
        for delta in (2.0**-20, 2.0**-30, 2.0**-40, 2.0**-50, 2.0**-60):
            reg = np.hypot(row, delta)
            want = sn.inscribed_ellipses(reg[None])[0]
            assert np.all(f.ellipse_field(delta) == want)
            jac = f.jacobian_intrinsic_density(delta)
            assert np.all(np.isfinite(jac) & (jac <= f.energy_density() + delta**2))
            assert np.all(jac > 0.0) if angle == 0.0 or delta > 2.0**-27 else np.all(jac >= 0.0)
            assert np.all(np.abs(f.beltrami_density(delta)) > 0.5)
        assert sn.row_degenerate("sampled", np.sqrt(row**2 + 2.0**-80)[None])[0]


class TestFieldInvariants:
    def test_seminorm_at_only_within_the_extension(self):
        # cells off the disc are not extended: at n = 64, cell (0, 0)
        # (radius 1.39) returned the row of interior cell (3, 24)
        f = qc.estimate_field(make_map(64, lambda x, y: np.stack([x + 0.2 * x * y,
                                                                   y + 0.1 * x * x])))
        grid = f.grid
        ei, ej = grid.extension_indices()
        for i, j in np.argwhere(grid.disc_mask).tolist():
            want = f.rows[f.index[ei[i, j], ej[i, j]]]          # its nearest interior cell
            assert f.seminorm_at(i, j).row.tobytes() == want.tobytes()
        for i, j in np.argwhere(~grid.disc_mask).tolist():
            with pytest.raises(IndexError, match="off the disc"):
                f.seminorm_at(i, j)

    def test_area_below_energy_random_smooth(self, rng):
        c = rng.normal(scale=0.1, size=4)
        u = make_map(96, lambda x, y: np.stack([
            x + c[0] * np.sin(np.pi * x) * np.cos(np.pi * y),
            y + c[1] * np.cos(np.pi * x) + c[2] * x * y + c[3] * y]))
        f = qc.estimate_field(u)
        assert qc.area_intrinsic(f) <= qc.energy(f) + 1e-9

    def test_isotropic_equality_certificate(self):
        for target in (EUCLID, qc.TargetSpace.linf()):
            f = qc.estimate_field(identity_map(96, target))
            defects = f.isotropy_defect_density()[f.grid.disc_mask]
            tol = 1e-9
            assert np.max(np.abs(defects)) <= tol
            assert abs(qc.energy(f) - qc.area_intrinsic(f)) <= tol * np.pi + 1e-9

    def test_sqrt2_quasiconformal_when_isotropic(self):
        f = qc.estimate_field(identity_map(96, qc.TargetSpace.linf()))
        for row in f.rows:
            row = row[row > 0]
            assert row.max() <= np.sqrt(2) * row.min() + 1e-9

    def test_unique_rows_exact(self, tmp_path):
        # a loaded field keeps a row moved by 1e-13 as a row of its own
        cells = np.argwhere(qc.DiscGrid(32).interior_mask)
        row = np.abs(half_circle_directions(64)).max(axis=1)
        moved = row.copy()
        moved[5] += 1e-13
        i, j = cells[0]
        path = tmp_path / "field.txt"
        path.write_text("32 sampled\n" + "".join(
            f"{a} {b} {qc.SemiNorm2.sampled(moved if k == 0 else row).record()}\n"
            for k, (a, b) in enumerate(cells)))
        f = qc.DerivativeField.load(path)
        assert len(f.rows) == 2
        assert f.index[i, j] != f.index[16, 16]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distinct_rows_exact(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(20, 6))
        base[1] = np.nextafter(base[0], np.inf)        # 1 ulp apart
        base[2, 3] = 0.0
        base[3] = base[2]
        base[3, 3] = -0.0                              # equal to row 2 as values
        a = base[rng.integers(0, len(base), size=200)]
        uniq, inv = fd.distinct_rows(a)
        assert np.array_equal(uniq[inv], a)
        assert np.array_equal(uniq[inv].view(np.uint64), (a + 0.0).view(np.uint64))
        assert not np.any(np.signbit(uniq[uniq == 0.0]))
        same = np.all(uniq[:, None, :] == uniq[None, :, :], axis=-1)
        assert np.array_equal(same, np.eye(len(uniq), dtype=bool))
        assert len(uniq) == len(np.unique(a, axis=0))

    @pytest.mark.parametrize("mixer", [
        lambda m: np.zeros(m, dtype=np.uint64),                  # every row collides
        lambda m: np.eye(1, m, dtype=np.uint64)[0]])             # rows sharing column 0
    def test_distinct_rows_hash_collision(self, monkeypatch, mixer):
        # rows whose hashes collide but whose bits differ go through the void
        # sort, and still come out exact, with the inverse of np.unique
        rng = np.random.default_rng(3)
        base = rng.normal(size=(12, 6))
        base[1:4, 0] = base[0, 0]
        base[5] = np.nextafter(base[4], np.inf)
        base[6, 2], base[7] = 0.0, base[6]
        base[7, 2] = -0.0
        a = base[rng.integers(0, len(base), size=300)]
        sorts = []
        unique = np.unique
        monkeypatch.setattr(fd, "_mixer", mixer)
        monkeypatch.setattr(np, "unique", lambda ar, **kw: sorts.append(ar.dtype.kind)
                            or unique(ar, **kw))
        uniq, inv = fd.distinct_rows(a)
        assert sorts == ["u", "V"]
        assert uniq[inv].view(np.uint64).tobytes() == (a + 0.0).view(np.uint64).tobytes()
        same = np.all(uniq[:, None, :] == uniq[None, :, :], axis=-1)
        assert np.array_equal(same, np.eye(len(uniq), dtype=bool))
        assert len(uniq) == len(unique(a, axis=0)) == len(base) - 1

    def test_distinct_rows_hash_without_collision(self, monkeypatch):
        # the stencil rows of a nonlinear l-inf map: the hash alone groups them
        u = make_map(64, lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]),
                     qc.TargetSpace.linf())
        rows = qc.estimate_field(u).rows
        a = rows[np.random.default_rng(0).integers(0, len(rows), size=4 * len(rows))]
        sorts = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda ar, **kw: sorts.append(ar.dtype.kind)
                            or unique(ar, **kw))
        uniq, inv = fd.distinct_rows(a)
        assert sorts == ["u"]
        assert uniq[inv].tobytes() == a.tobytes()
        assert len(uniq) == len(unique(a, axis=0))

    def test_one_ellipse_solve_per_delta(self, monkeypatch):
        # the ellipses of a delta are built once while it is the one in use,
        # and only the delta = 0 ones by the exact solve: the others are built
        # from them
        solves, built = [], []
        solve, build = sn.inscribed_ellipses, sn.ellipse_rows
        monkeypatch.setattr(sn, "inscribed_ellipses",
                            lambda rows: solves.append(len(rows)) or solve(rows))
        monkeypatch.setattr(sn, "ellipse_rows",
                            lambda kind, rows, delta=0.0, *args: built.append(delta)
                            or build(kind, rows, delta, *args))
        f = qc.estimate_field(identity_map(48, qc.TargetSpace.linf()))
        for delta in (0.5, 0.25, 0.5):
            f.jacobian_intrinsic_density(delta)
            f.beltrami_density(delta)
        assert built == [0.0, 0.5, 0.25, 0.5]
        assert solves == [len(f.rows)]

    def test_area_comparison_two_sided(self):
        for target in (qc.TargetSpace.linf(), qc.TargetSpace.l1()):
            f = qc.estimate_field(identity_map(96, target))
            ah, ai = qc.area_hausdorff(f), qc.area_intrinsic(f)
            assert (np.pi / 4) * ai - 1e-9 <= ah <= ai + 1e-9

    def test_first_order_convergence_linear_maps(self):
        errs_e, errs_a = [], []
        for n in (64, 128, 256):
            f = qc.estimate_field(stretch_map(n))
            errs_e.append(abs(qc.energy(f) - 4 * np.pi))
            errs_a.append(abs(qc.area_intrinsic(f) - 2 * np.pi))
            h = 2.0 / n
            assert errs_e[-1] <= 0.5 * h * 4 * np.pi
            assert errs_a[-1] <= 0.5 * h * 2 * np.pi
        assert errs_e[-1] < errs_e[0]
        assert errs_a[-1] < errs_a[0]


def test_array_dataclasses_compare_by_identity():
    # value equality of a dataclass with an ndarray field raised ValueError
    # (==, in) or TypeError (hash); no caller relies on it, so each compares
    # by identity
    from qcreparam.beltrami import QCMap
    from qcreparam.reparam import OmegaRegion, ReparamReport, SmoothingResult, ThresholdResult

    for cls in (qc.SemiNorm2, qc.TargetSpace, qc.SampledMap, qc.DerivativeField,
                qc.ComplexField, QCMap, ThresholdResult, SmoothingResult, OmegaRegion,
                ReparamReport):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    makers = [qc.SemiNorm2.euclidean, qc.TargetSpace.linf, lambda: identity_map(16),
              lambda: qc.estimate_field(identity_map(16)),
              lambda: qc.ComplexField(S=2.0, values=np.zeros((64, 64), dtype=complex))]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and a in [b, a] and a not in [b]
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestSerialization:
    def test_map_roundtrip(self, tmp_path):
        u = stretch_map(32)
        path = tmp_path / "map.txt"
        u.save(path)
        v = qc.SampledMap.load(path)
        assert v.grid.n == 32 and v.target.kind == "euclidean"
        mask = u.grid.disc_mask
        assert np.allclose(v.values[mask], u.values[mask])

    def test_polygonal_roundtrip(self, tmp_path):
        u = identity_map(32, qc.TargetSpace.linf())
        path = tmp_path / "map.txt"
        u.save(path)
        v = qc.SampledMap.load(path)
        assert v.target.kind == "polygonal"
        f = qc.estimate_field(v)
        assert qc.area_hausdorff(f) == pytest.approx(np.pi**2 / 4, rel=0.05)

    def test_missing_cells_rejected(self, tmp_path):
        u = stretch_map(32)
        path = tmp_path / "map.txt"
        u.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(InputFormatError):
            qc.SampledMap.load(path)

    def test_map_repeated_cell_rejected(self, tmp_path):
        # a second record for a cell would silently replace the first
        path = tmp_path / "map.txt"
        identity_map(16).save(path)
        path.write_text(path.read_text() + "8 8 5 5\n")
        with pytest.raises(InputFormatError, match=r"cell \(8, 8\) appears twice"):
            qc.SampledMap.load(path)

    def test_field_save(self, tmp_path):
        f = qc.estimate_field(stretch_map(32))
        path = tmp_path / "field.txt"
        f.save(path)
        first = path.read_text().splitlines()
        assert first[0] == "32 quadratic"
        assert first[1].split()[2] == "Q"

    def test_field_roundtrip(self, tmp_path):
        f = qc.estimate_field(stretch_map(32))
        path = tmp_path / "field.txt"
        f.save(path)
        g = qc.DerivativeField.load(path)
        assert g.kind == "quadratic"
        mask = f.interior_mask
        assert np.allclose(g.rows[g.index][mask], f.rows[f.index][mask], atol=1e-12)
        assert qc.energy(g) == pytest.approx(qc.energy(f), rel=1e-12)

    @staticmethod
    def saved_field(tmp_path, target=EUCLID, n=16):
        path = tmp_path / "field.txt"
        qc.estimate_field(identity_map(n, target)).save(path)
        return path

    @pytest.mark.parametrize("record", ["40 5 Q 9 0 9", "-1 -1 Q 9 0 9"])
    def test_field_cell_outside_grid_rejected(self, tmp_path, record):
        # neither an IndexError nor a negative index that wraps onto (15, 15)
        path = self.saved_field(tmp_path)
        path.write_text(path.read_text() + record + "\n")
        with pytest.raises(InputFormatError, match="outside the 16 x 16 grid"):
            qc.DerivativeField.load(path)

    def test_field_repeated_cell_rejected(self, tmp_path):
        # a second record for a cell would silently replace the first
        path = self.saved_field(tmp_path)
        path.write_text(path.read_text() + "8 8 Q 9 0 9\n")
        with pytest.raises(InputFormatError, match=r"cell \(8, 8\) appears twice"):
            qc.DerivativeField.load(path)

    def test_field_sampled_rows_of_another_m_rejected(self, tmp_path):
        # cell (8, 8)'s record replaced, since a second record is an error too
        path = self.saved_field(tmp_path, qc.TargetSpace.linf())
        path.write_text("".join("8 8 S 8 " + " ".join(["1"] * 8) + "\n"
                                if line.startswith("8 8 ") else line
                                for line in path.read_text().splitlines(keepends=True)))
        with pytest.raises(InputFormatError, match="8 values, not 64"):
            qc.DerivativeField.load(path)

    @pytest.mark.parametrize("kind", ["sampled", "quadratic"])
    def test_field_header_only_rejected(self, tmp_path, kind):
        path = tmp_path / "field.txt"
        path.write_text(f"16 {kind}\n")
        with pytest.raises(InputFormatError, match="interior cells missing"):
            qc.DerivativeField.load(path)

    @pytest.mark.parametrize("header", ["100000 quadratic", "100000 2 euclidean 2"])
    def test_header_larger_than_body_rejected(self, tmp_path, header):
        # refused before the 100 000 x 100 000 grid is built (a MemoryError):
        # each interior cell needs a line
        path = tmp_path / "big.txt"
        path.write_text(header + "\n" + "1 2 0 0\n" * 10)
        load = qc.DerivativeField.load if "quadratic" in header else qc.SampledMap.load
        with pytest.raises(InputFormatError,
                           match=r"missing from file \(11 lines for the 100000 x 100000 grid"):
            load(path)

    def test_field_missing_interior_cells_rejected(self, tmp_path):
        # four interior cells of an n=16 field: the rest would integrate as
        # zero, a silently dropped measure
        path = self.saved_field(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(InputFormatError, match="interior cells missing"):
            qc.DerivativeField.load(path)


def per_line_records(path):
    """The per-line cell-file reader that the array reader replaced, kept as
    its oracle: header tokens and {(i, j): row} with float() per map value and
    a SemiNorm2 record per field cell."""
    with open(path) as fh:
        header = fh.readline().split()
        out = {}
        for line in fh:
            parts = line.split()
            if parts:
                i, j = int(parts[0]), int(parts[1])
                assert (i, j) not in out
                out[i, j] = (qc.SemiNorm2.from_record(" ".join(parts[2:])).row
                             if len(header) == 2 else [float(t) for t in parts[2:]])
    return header, out


def per_line_text(header, mask, record):
    """The per-line writer that the array writer replaced: the header line,
    then 'i j <record(i, j) at 17 significant digits>' per cell of mask."""
    return "\n".join([header] + [f"{i} {j} " + " ".join(
        v if isinstance(v, str) else format(v, ".17g") for v in record(i, j))
        for i, j in zip(*np.nonzero(mask))]) + "\n"


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def load_workloads():
    import importlib.util
    import os
    import sys

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)        # dataclasses look the module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


# finite floats whose .17g text is hard to parse: both zeros, subnormals, extremes
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


def random_floats(rng, size):
    bits = rng.integers(0, 2**64, size=4 * size, dtype=np.uint64, endpoint=False)
    vals = bits.view(float)
    vals = vals[np.isfinite(vals)][:size]
    vals[: len(SPECIAL)] = SPECIAL
    small = rng.random(size) < 0.2                   # subnormals of both signs
    vals[small] = rng.choice([-1, 1], small.sum()) * rng.integers(1, 2**52, small.sum()) * 5e-324
    return vals


class TestCellFiles:
    """Map and field files go through one array writer and one array reader;
    both are checked against the per-line codec they replaced."""

    def check_map(self, u, path):
        u.save(path)
        mask = u.grid.disc_mask
        header = f"{u.grid.n} {u.target.d} {u.target.descriptor()}"
        assert path.read_text() == per_line_text(header, mask, lambda i, j: u.values[i, j])
        v = qc.SampledMap.load(path)
        _, records = per_line_records(path)
        assert set(records) == set(zip(*np.nonzero(mask)))
        for (i, j), row in records.items():
            assert same_bits(v.values[i, j], row)
        assert same_bits(v.values[mask], u.values[mask])        # .17g round trips
        assert np.all(np.isnan(v.values[~mask]))

    def check_field(self, f, path):
        f.save(path)
        mask = f.interior_mask
        tag = ["Q"] if f.kind == "quadratic" else ["S", str(f.rows.shape[1])]
        assert path.read_text() == per_line_text(
            f"{f.grid.n} {f.kind}", mask, lambda i, j: tag + list(f.rows[f.index[i, j]]))
        g = qc.DerivativeField.load(path)
        _, records = per_line_records(path)
        assert set(records) == set(zip(*np.nonzero(mask)))
        for (i, j), row in records.items():
            assert same_bits(g.rows[g.index[i, j]], np.asarray(row) + 0.0)
        return g

    def test_pool_maps_and_fields(self, tmp_path):
        for name, workload in load_workloads().items():
            paths = workload.generate(11, str(tmp_path / name))
            for k, path in enumerate(paths[:4]):
                u = qc.SampledMap.load(path)
                self.check_map(u, tmp_path / "copy.map")
                if k == 0:
                    self.check_field(qc.estimate_field(u), tmp_path / "field.txt")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_values(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        grid = qc.DiscGrid(32)
        values = random_floats(rng, 32 * 32 * 6).reshape(32, 32, 6)
        self.check_map(qc.SampledMap(grid=grid, target=qc.TargetSpace.euclidean(6),
                                     values=values), tmp_path / "rand.map")
        cells = int(grid.interior_mask.sum())
        disc = grid.disc_mask                   # the cells the program reads
        gauges = np.abs(random_floats(rng, cells * 16)).reshape(cells, 16)
        f = qc.DerivativeField.from_interior(grid, "sampled", gauges, np.arange(cells))
        g = self.check_field(f, tmp_path / "sampled.txt")
        assert same_bits(g.rows[g.index[disc]], f.rows[f.index[disc]] + 0.0)
        a, c = np.abs(random_floats(rng, 2 * cells)).reshape(2, cells)
        a[a > 1e300] *= 1e-10              # keep the trace of a row finite
        c[c > 1e300] *= 1e-10
        b = np.where(rng.random(cells) < 0.5, rng.choice([0.0, -0.0], cells),
                     0.5 * np.sqrt(a) * np.sqrt(c) * rng.choice([-1, 1], cells))
        quad = np.column_stack([a, b, c])
        f = qc.DerivativeField.from_interior(grid, "quadratic", quad, np.arange(cells))
        g = self.check_field(f, tmp_path / "quadratic.txt")
        assert same_bits(g.rows[g.index[disc]], f.rows[f.index[disc]] + 0.0)

    @staticmethod
    def table_text(header, fmt, mask, *columns):
        # the writer's former table: every column stacked into one float array
        ii, jj = np.nonzero(mask)
        table = np.column_stack((ii, jj) + columns)
        return header + "\n" + "".join(fmt % tuple(row) + "\n" for row in table.tolist())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_writer_matches_table_formatting(self, tmp_path, seed):
        # one % per block of lines: the bytes of the float table for
        # map files (2-D float columns), field files and CSV grids (int and
        # 1-D float columns), over more than WRITE_ROWS lines
        rng = np.random.default_rng(seed)
        grid = qc.DiscGrid(48)
        values = random_floats(rng, 48 * 48 * 3).reshape(48, 48, 3)
        u = qc.SampledMap(grid=grid, target=qc.TargetSpace.euclidean(3), values=values)
        mask = grid.disc_mask
        assert mask.sum() > fd.WRITE_ROWS
        u.save(tmp_path / "u.map")
        assert (tmp_path / "u.map").read_text() == self.table_text(
            f"48 3 {u.target.descriptor()}", "%d %d" + " %.17g" * 3, mask, values[mask])
        for f in (qc.estimate_field(make_map(48, lambda x, y: np.stack([x + 0.2 * x * y, y]),
                                             target)) for target in (EUCLID, qc.TargetSpace.linf())):
            f.save(tmp_path / "f.txt")
            inner = f.interior_mask
            assert (tmp_path / "f.txt").read_text() == self.table_text(
                f"48 {f.kind}", "%d %d " + sn.record_format(f.kind, f.rows.shape[1]),
                inner, f.rows[f.index[inner]])
        cells = int(mask.sum())
        cols = (rng.integers(-5, 10**6, cells), grid.x[mask], random_floats(rng, cells),
                random_floats(rng, 2 * cells).reshape(cells, 2))
        fmt = "%d,%d,%d,%.17g,%.17g,%.17g,%.17g"
        fd.write_cells(tmp_path / "g.csv", "i,j,k,x,v,a,b", fmt, mask, *cols)
        assert (tmp_path / "g.csv").read_text() == self.table_text("i,j,k,x,v,a,b", fmt,
                                                                   mask, *cols)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_writer_matches_per_line_formatting(self, tmp_path, seed):
        # one % per block of lines: the text of fmt % row, line by line, over
        # more than WRITE_ROWS lines, with ints beyond 2^53 kept exact and
        # every kind of float: zeros of both signs, subnormals, extremes, nan
        # and infinities
        rng = np.random.default_rng(seed)
        mask = qc.DiscGrid(48).disc_mask
        cells = int(mask.sum())
        assert cells > fd.WRITE_ROWS
        floats = random_floats(rng, 3 * cells)
        odd = rng.random(floats.size) < 0.05
        floats[odd] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -0.0], odd.sum())
        big = rng.integers(2**53 + 1, 2**62, cells) * rng.choice([-1, 1], cells)
        cols = (big, floats[:cells], floats[cells:].reshape(cells, 2))
        fmt = "%d;%d;%d;%.17g;%.17g,%.17g"
        for sel in (mask, np.zeros_like(mask)):
            picked = [c[: int(sel.sum())] for c in cols]
            fd.write_cells(tmp_path / "g.txt", "head", fmt, sel, *picked)
            ii, jj = np.nonzero(sel)
            rows = zip(ii.tolist(), jj.tolist(), picked[0].tolist(), picked[1].tolist(),
                       *picked[2].T.tolist())
            lines = [fmt % row for row in rows]
            assert (tmp_path / "g.txt").read_text() == "\n".join(["head"] + lines) + "\n"

    @staticmethod
    def edited(path, old, new):
        """Replace the record of the cell that starts with old."""
        path.write_text("".join(new + "\n" if line.startswith(old) else line
                                for line in path.read_text().splitlines(keepends=True)))
        return path

    def saved_map(self, tmp_path):
        path = tmp_path / "map.txt"
        identity_map(16).save(path)
        return path

    def saved_field(self, tmp_path, target=EUCLID):
        path = tmp_path / "field.txt"
        qc.estimate_field(identity_map(16, target)).save(path)
        return path

    @pytest.mark.parametrize("record", ["8 8 0.5", "8 8 0.5 0.5 0.5"])
    def test_map_record_width_rejected(self, tmp_path, record):
        path = self.edited(self.saved_map(tmp_path), "8 8 ", record)
        with pytest.raises(InputFormatError, match=r"values, not 2"):
            qc.SampledMap.load(path)

    @pytest.mark.parametrize("record", ["8.0 8 0.5 0.5", "8 8e0 0.5 0.5", "# 8 0.5 0.5"])
    def test_non_integer_index_rejected(self, tmp_path, record):
        # '#' starts no comment: such a line is a record with a bad index
        path = self.edited(self.saved_map(tmp_path), "8 8 ", record)
        with pytest.raises(ValueError, match="could not convert"):
            qc.SampledMap.load(path)

    def test_comment_line_rejected(self, tmp_path):
        path = self.saved_map(tmp_path)
        path.write_text(path.read_text() + "# a comment\n")
        with pytest.raises(InputFormatError, match="# a comment"):
            qc.SampledMap.load(path)

    def test_header_only_map_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("16 2 euclidean 2\n\n")
        with pytest.raises(InputFormatError, match="disc cells missing"):
            qc.SampledMap.load(path)

    def test_short_target_descriptor_rejected(self, tmp_path):
        # an IndexError before
        path = self.saved_map(tmp_path)
        path.write_text(path.read_text().replace("16 2 euclidean 2\n", "16 2 euclidean\n"))
        with pytest.raises(InputFormatError, match="needs a kind and a size"):
            qc.SampledMap.load(path)

    def test_mixed_kinds_rejected(self, tmp_path):
        path = self.edited(self.saved_field(tmp_path, qc.TargetSpace.linf()), "8 8 ",
                           "8 8 Q 1 0 1")
        with pytest.raises(InputFormatError, match="mixed representations"):
            qc.DerivativeField.load(path)

    def test_announced_m_disagrees(self, tmp_path):
        path = self.saved_field(tmp_path, qc.TargetSpace.linf())
        line = next(l for l in path.read_text().splitlines() if l.startswith("8 8 "))
        path = self.edited(path, "8 8 ", line.replace("8 8 S 64 ", "8 8 S 63 "))
        with pytest.raises(InputFormatError, match="announced 63 values, got 64"):
            qc.DerivativeField.load(path)

    @pytest.mark.parametrize("record, message", [
        ("8 8 Q 1 2 1", "positive semi-definite"),
        ("8 8 Q inf 0 1", "finite"),
        ("8 8 Q nan 0 1", "finite"),
        ("8 8 Q 1 inf 1", "finite"),
        ("8 8 Q 1 0", "3 entries"),
        ("8 8 X 1 0 1", "bad semi-norm record 'X 1 0 1'"),
        ("8 8 S", "bad semi-norm record 'S'"),
    ])
    def test_bad_quadratic_rows_rejected(self, tmp_path, record, message):
        path = self.edited(self.saved_field(tmp_path), "8 8 ", record)
        with pytest.raises((ValueError, InputFormatError), match=message):
            qc.DerivativeField.load(path)

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_gauge_values_rejected(self, tmp_path, value):
        path = self.saved_field(tmp_path, qc.TargetSpace.linf())
        line = next(l for l in path.read_text().splitlines() if l.startswith("8 8 "))
        path = self.edited(path, "8 8 ", line.rsplit(" ", 1)[0] + " " + value)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            qc.DerivativeField.load(path)


class TestScalarFieldAgreement:
    """The SemiNorm2 operations are one-row calls of the DerivativeField row
    path: a semi-norm carries the delta that regularize applied, so on the same
    row and delta the two agree bit for bit, or both raise the same typed error."""

    DELTAS = (0.0,) + tuple(2.0**-k for k in range(61))

    @staticmethod
    def rows(rng):
        dirs = half_circle_directions(64)
        quad = [rand_spd(rng)[[0, 0, 1], [0, 1, 1]] for _ in range(4)]
        quad += [[0.36, 0.48, 0.64], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]    # rank 1, zero
        samp = [np.abs(dirs).max(axis=1), np.abs(dirs).sum(axis=1),
                rand_sampled_norm(rng).values, np.abs(dirs[:, 0])]       # last: degenerate
        return {"quadratic": np.array(quad), "sampled": np.array(samp)}

    @staticmethod
    def same(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except QcreparamError as exc:
            return type(exc)

    @pytest.mark.parametrize("kind", ["quadratic", "sampled"])
    def test_scalar_ops_match_field_densities(self, rng, kind):
        grid = qc.DiscGrid(16)
        inv = np.zeros(int(grid.interior_mask.sum()), dtype=np.intp)
        for row in self.rows(rng)[kind]:
            f = qc.DerivativeField.from_interior(grid, kind, row[None], inv)   # row on every cell
            s = f.seminorm_at(8, 8)
            assert self.same(f.energy_density()[8, 8], qc.energy_plus(s))
            assert self.same(f.jacobian_hausdorff_density()[8, 8], qc.jacobian_hausdorff(s))
            assert self.same(f.isotropy_defect_density()[8, 8], qc.isotropy_defect(s))
            for delta in self.DELTAS:
                r = qc.regularize(s, delta) if delta else s
                m = self.outcome(lambda: f.ellipse_field(delta)[8, 8])
                if isinstance(m, type):
                    for op in (qc.jacobian_intrinsic, qc.beltrami_of, qc.john_ellipse):
                        with pytest.raises(m):
                            op(r)
                    continue
                assert self.same(f.jacobian_intrinsic_density(delta)[8, 8],
                                 qc.jacobian_intrinsic(r))
                if not m.any():
                    # no ellipse: the field reads J = mu = 0, the one semi-norm has none
                    assert f.beltrami_density(delta)[8, 8] == 0.0
                    for op in (qc.beltrami_of, qc.john_ellipse):
                        with pytest.raises(DegenerateSemiNorm):
                            op(r)
                    continue
                assert self.same(f.beltrami_density(delta)[8, 8], qc.beltrami_of(r))
                lmin, lmax, _ = sn.packed_eig(m)
                e = qc.john_ellipse(r)
                with np.errstate(divide="ignore"):
                    want = 1.0 / np.sqrt(np.maximum([lmin, lmax], 0.0))
                assert self.same([e.a, e.b], want)

    def test_delta_is_carried(self):
        # regularize keeps the delta it applied, scaled keeps c * delta and
        # rotated keeps delta, so the rank-1 row at delta = 2^-20 stays a norm:
        # its J and mu were 0 and DegenerateSemiNorm before delta was carried
        s = qc.regularize(qc.SemiNorm2.quadratic(np.diag([1.0, 0.0])), 2.0**-20)
        assert s.degenerate and s.delta == 2.0**-20
        assert qc.jacobian_intrinsic(s) == pytest.approx(2.0**-20, rel=1e-12)
        assert abs(qc.beltrami_of(s)) == pytest.approx((1 - 2.0**-20) / (1 + 2.0**-20), rel=1e-12)
        assert s.scaled(4.0).delta == 2.0**-18 and s.rotated(0.3).delta == 2.0**-20
        assert qc.regularize(s, 2.0**-20).delta == pytest.approx(2.0**-19.5, rel=1e-15)
        # a record holds the row, not delta
        assert qc.SemiNorm2.from_record(s.record()).delta == 0.0
        with pytest.raises(DegenerateSemiNorm):
            qc.beltrami_of(qc.SemiNorm2.from_record(s.record()))


class TestRowLayoutDifferential:
    """A field stores its distinct rows and a cell index; every density must
    equal, bit for bit, its row function applied to the per-cell rows
    rows[index] (the per-cell layout), whatever the order of the rows and
    however they fall into the inscribed-ellipse solver's chunks."""

    DELTAS = (0.0, 2.0**-10, 2.0**-40)

    @pytest.fixture(scope="class", params=["quadratic", "linf", "loaded"])
    def field_(self, request, tmp_path_factory):
        def nonlinear(x, y):
            return np.stack([x + 0.2 * x * y, y + 0.1 * x * x])

        if request.param == "quadratic":
            return qc.estimate_field(make_map(64, nonlinear))
        if request.param == "linf":
            f = qc.estimate_field(make_map(64, nonlinear, qc.TargetSpace.linf()))
            assert len(f.rows) > 512                    # more than one solver chunk
            return f
        path = tmp_path_factory.mktemp("field") / "l1.txt"
        qc.estimate_field(make_map(32, nonlinear, qc.TargetSpace.l1())).save(path)
        return qc.DerivativeField.load(path)

    @staticmethod
    def same(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_densities_match_per_cell_rows(self, field_):
        kind, cells = field_.kind, field_.rows[field_.index]
        energy = sn.row_energy(kind, cells)
        self.same(field_.energy_density(), energy)
        self.same(field_.jacobian_hausdorff_density(), sn.row_ball_jacobian(kind, cells))
        for delta in self.DELTAS:
            m = sn.row_ellipse(kind, cells.reshape(-1, cells.shape[-1]), delta)
            m = m.reshape(cells.shape[:2] + (3,))
            self.same(field_.ellipse_field(delta), m)
            self.same(field_.jacobian_intrinsic_density(delta), sn.ellipse_jacobian(m))
            self.same(field_.beltrami_density(delta), sn.ellipse_beltrami(m))
            if delta == 0.0:
                self.same(field_.isotropy_defect_density(), energy - sn.ellipse_jacobian(m))
