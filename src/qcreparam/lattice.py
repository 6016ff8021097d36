"""The cell-centred lattice shared by the disc grid, the solver box and
sampled maps.

A lattice of n cells of width `spacing` whose first cell starts at the edge
`lo` has its nodes at the cell centres lo + (k + 1/2) spacing.  Callers
locate points by fractional node index, in the float expression of their own
origin: (p - lo) / spacing - 1/2 from a cell edge, (p - x0) / spacing from a
node x0; the two do not round alike.
"""

from __future__ import annotations

import numpy as np


def centers(lo, spacing, n):
    """Node coordinates lo + (k + 0.5) spacing, k = 0..n-1."""
    return lo + (np.arange(n) + 0.5) * spacing


def nearest(p, lo, spacing, n):
    """Index of the node nearest to coordinates p (ties to even), clipped
    to 0..n-1."""
    return np.clip(np.round((p - lo) / spacing - 0.5).astype(int), 0, n - 1)


def bilinear(values, ti, tj):
    """Bilinear interpolation of values (ni, nj, ...) at fractional node
    indices (ti, tj); the trailing dimensions ride along, and points beyond
    the lattice extrapolate from its edge cell."""
    ni, nj = values.shape[:2]
    i0 = np.clip(np.floor(ti).astype(int), 0, ni - 2)
    j0 = np.clip(np.floor(tj).astype(int), 0, nj - 2)
    trail = (...,) + (None,) * (values.ndim - 2)
    return blend(values.reshape((ni * nj,) + values.shape[2:]), i0 * nj + j0, nj,
                 (ti - i0)[trail], (tj - j0)[trail])


def blend(flat, k, nj, tx, ty):
    """Bilinear blend at fractional offsets (tx, ty), arrays or scalars, of the
    nodes k, k + 1, k + nj and k + nj + 1 of a flattened lattice of nj columns."""
    return mix(corners(flat, k, nj), tx, ty)


def corners(flat, k, nj):
    """The values at the nodes k, k + nj, k + 1 and k + nj + 1 of a flattened
    lattice of nj columns, in the order that mix weights them, each gathered
    as it is read, so that a blend holds one corner at a time."""
    # each corner is one take along the flat node axis, several times
    # cheaper than a 2-D fancy index when trailing dimensions ride along
    return (flat.take(k + s, axis=0) for s in (0, nj, 1, nj + 1))


def mix(c, tx, ty):
    """Bilinear blend of the four corners c (any iterable, read in order) at
    fractional offsets (tx, ty), arrays or scalars: weight 1 - tx falls on the
    first and third corner, 1 - ty on the first two."""
    sx, sy = 1 - tx, 1 - ty
    # summed in place, left to right: the bits of the plain four-term sum
    c = iter(c)
    out = sx * sy * next(c)
    out += tx * sy * next(c)
    out += sx * ty * next(c)
    out += tx * ty * next(c)
    return out
