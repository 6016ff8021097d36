"""The shared lattice helpers against the per-module expressions they replaced.

Each oracle below is the float expression a caller used before it moved to
`qcreparam.lattice`; the helpers must reproduce them bit for bit, on random
points, on points exactly halfway between nodes and on points outside the
grid (clipped).
"""

import numpy as np
import pytest

import qcreparam as qc
from qcreparam import lattice


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- oracles: the replaced expressions ----------------------------------------------

def disc_centers(n):                       # DiscGrid.centers
    return (np.arange(n) + 0.5) * (2.0 / n) - 1.0


def box_coords(S, n):                      # ComplexField.coords
    return -S + (np.arange(n) + 0.5) * (2.0 * S / n)


def disc_nearest(x, h, n):                 # composed_energy
    return np.clip(np.round((x + 1.0) / h - 0.5).astype(int), 0, n - 1)


def disc_nearest_scalar(x, h, n):          # audit_cases, one node at a time
    return int(np.clip(round((x + 1.0) / h - 0.5), 0, n - 1))


def box_nearest(x, S, spacing, n):         # build_coefficient, _cells_from_solver
    return np.clip(np.round((x + S) / spacing - 0.5).astype(int), 0, n - 1)


def sampled_map_sample(values, h, n, pts):      # SampledMap.sample, values (n, n, d)
    ix = (pts[:, 0] + 1.0) / h - 0.5
    iy = (pts[:, 1] + 1.0) / h - 0.5
    i0 = np.clip(np.floor(ix).astype(int), 0, n - 2)
    j0 = np.clip(np.floor(iy).astype(int), 0, n - 2)
    tx = (ix - i0)[:, None]
    ty = (iy - j0)[:, None]
    v = values
    return ((1 - tx) * (1 - ty) * v[i0, j0]
            + tx * (1 - ty) * v[i0 + 1, j0]
            + (1 - tx) * ty * v[i0, j0 + 1]
            + tx * ty * v[i0 + 1, j0 + 1])


def qcmap_frac_index(x0, y0, spacing, shape, pts):     # QCMap._frac_index
    ix = (pts[:, 0] - x0) / spacing
    iy = (pts[:, 1] - y0) / spacing
    i0 = np.clip(np.floor(ix).astype(int), 0, shape[0] - 2)
    j0 = np.clip(np.floor(iy).astype(int), 0, shape[1] - 2)
    return i0, j0, ix - i0, iy - j0


def qcmap_value_at(v, x0, y0, spacing, pts):           # QCMap.value_at, complex
    i0, j0, tx, ty = qcmap_frac_index(x0, y0, spacing, v.shape, pts)
    return ((1 - tx) * (1 - ty) * v[i0, j0] + tx * (1 - ty) * v[i0 + 1, j0]
            + (1 - tx) * ty * v[i0, j0 + 1] + tx * ty * v[i0 + 1, j0 + 1])


def qcmap_df_at(d, x0, y0, spacing, pts):              # QCMap.df_at, (2, 2) values
    i0, j0, tx, ty = qcmap_frac_index(x0, y0, spacing, d.shape, pts)
    tx = tx[:, None, None]
    ty = ty[:, None, None]
    return ((1 - tx) * (1 - ty) * d[i0, j0] + tx * (1 - ty) * d[i0 + 1, j0]
            + (1 - tx) * ty * d[i0, j0 + 1] + tx * ty * d[i0 + 1, j0 + 1])


# -- points ---------------------------------------------------------------------------

def probe_points(rng, lo, spacing, n, count=400):
    """Random points over and beyond the lattice, node points, points exactly
    halfway between nodes, and points past both ends."""
    edge = lo + spacing * np.arange(n + 1)                 # halfway between nodes
    node = lo + (np.arange(n) + 0.5) * spacing
    span = spacing * n
    rand = rng.uniform(lo - 0.2 * span, lo + 1.2 * span, size=count)
    beyond = np.array([lo - 3.0 * spacing, lo - 1e-9, lo + span + 1e-9, lo + span + 5.0])
    return np.concatenate([rand, edge, node, beyond])


def as_pairs(rng, coords):
    return np.column_stack([coords, rng.permutation(coords)])


@pytest.mark.parametrize("n", [16, 32, 48, 64, 96, 128, 256])
def test_centers_match_the_replaced_formulas(n):
    assert same_bits(qc.DiscGrid(n).centers, disc_centers(n))
    assert same_bits(lattice.centers(-1.0, 2.0 / n, n), disc_centers(n))
    for S in (2.0, 1.5):
        m = 2 * n
        assert same_bits(qc.ComplexField(S=S, values=np.zeros((m, m))).coords,
                         box_coords(S, m))


@pytest.mark.parametrize("n", [16, 32, 48, 64, 128])
def test_nearest_matches_the_replaced_formulas(rng, n):
    grid = qc.DiscGrid(n)
    x = probe_points(rng, -1.0, grid.h, n)
    y = rng.permutation(x)
    i, j = grid.nearest_cell(x, y)
    assert same_bits(i, disc_nearest(x, grid.h, n))
    assert same_bits(j, disc_nearest(y, grid.h, n))
    assert same_bits(lattice.nearest(x, -1.0, grid.h, n), disc_nearest(x, grid.h, n))
    assert [int(k) for k in i] == [disc_nearest_scalar(v, grid.h, n) for v in x]
    # 2-D coordinate arrays
    xx = x[:100].reshape(10, 10)
    assert same_bits(grid.nearest_cell(xx, xx)[0], disc_nearest(xx, grid.h, n))

    S, m = 2.0, 2 * n
    spacing = 2.0 * S / m
    xs = np.concatenate([probe_points(rng, -S, spacing, m), grid.x.ravel()])
    assert same_bits(lattice.nearest(xs, -S, spacing, m), box_nearest(xs, S, spacing, m))


@pytest.mark.parametrize("n", [16, 32, 48, 64, 96, 128, 256, 1024])
def test_solver_box_is_the_disc_grid_padded(n):
    # the box of N = n + 2p nodes on [-N/n, N/n]^2 (reparam.solver_padding), and
    # the box [-2, 2]^2 of 2n nodes, pad the disc grid by p and by n/2 cells
    # per side: the nearest box node of disc cell i is i + p, and every other
    # box node lies beyond [-1, 1], off the disc grid
    from qcreparam.reparam import solver_padding

    grid = qc.DiscGrid(n)
    for p in (solver_padding(n), n // 2):
        m = n + 2 * p
        S = m / n
        assert same_bits(box_nearest(grid.centers, S, 2.0 * S / m, m), np.arange(n) + p)
        box = qc.ComplexField(S=S, values=np.zeros((m, m))).coords
        assert np.all(np.abs(np.delete(box, np.arange(n) + p)) > 1.0)


def test_nearest_rounds_halfway_points_to_even():
    # (p + 1)/h - 0.5 = k - 0.5 exactly at the cell edges of a power-of-two grid
    n = 16
    edges = -1.0 + (2.0 / n) * np.arange(1, n)
    k = lattice.nearest(edges, -1.0, 2.0 / n, n)
    assert np.all(k % 2 == 0)


@pytest.mark.parametrize("n", [16, 32, 48])
def test_sampled_map_sample_matches(rng, n):
    grid = qc.DiscGrid(n)
    for d in (1, 2, 3):
        values = rng.normal(size=(n, n, d))
        u = qc.SampledMap(grid=grid, target=qc.TargetSpace.euclidean(d), values=values)
        pts = as_pairs(rng, probe_points(rng, -1.0, grid.h, n))
        assert same_bits(u.sample(pts), sampled_map_sample(values, grid.h, n, pts))


def test_bilinear_scalar_values(rng):
    n = 24
    h = 2.0 / n
    values = rng.normal(size=(n, n))
    pts = as_pairs(rng, probe_points(rng, -1.0, h, n))
    t = (pts + 1.0) / h - 0.5
    oracle = sampled_map_sample(values[..., None], h, n, pts)[:, 0]
    assert same_bits(lattice.bilinear(values, t[:, 0], t[:, 1]), oracle)


@pytest.mark.parametrize("shape", [(40, 40), (40, 37), (17, 29)])
def test_qcmap_interpolation_matches(rng, shape):
    spacing = 2.6 / shape[0]
    x0, y0 = -1.3 + 0.5 * spacing, -0.9 + 0.5 * spacing     # x0 is a node, not an edge
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    df = rng.normal(size=shape + (2, 2))
    phi = qc.QCMap(x0=x0, y0=y0, spacing=spacing, values=values, df=df)
    px = probe_points(rng, x0 - 0.5 * spacing, spacing, shape[0])
    py = probe_points(rng, y0 - 0.5 * spacing, spacing, shape[1])
    py = rng.choice(py, size=px.size)
    # node points and halfway points of the node-origin lattice as well
    pts = np.concatenate([np.column_stack([px, py]),
                          np.column_stack([x0 + spacing * np.arange(shape[0]),
                                           y0 + spacing * 0.5 * np.arange(shape[0])])])
    assert same_bits(phi.value_at(pts), qcmap_value_at(values, x0, y0, spacing, pts))
    assert same_bits(phi.df_at(pts), qcmap_df_at(df, x0, y0, spacing, pts))
    # a single point, as invert and image_of_circle may pass it
    assert same_bits(phi.value_at(pts[0]), qcmap_value_at(values, x0, y0, spacing, pts[:1]))
