"""Seeded map pools of the benchmark workloads.

Every workload is a pool of sampled disc maps generated from the workload
seed and written as map files; the benchmark hands the program nothing but
these files.  Slot 0 of every pool is an anchor built on diag(4, 1): it is
more anisotropic than any other slot, so it sets `excess_ratio.max` on every
seed.  The other slots fix the strength of the law (amplitude or stretch)
and take the rest from the seed, so that every seed asks for about the same
amount of work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qcreparam.field import DiscGrid, SampledMap, TargetSpace

EPSILON = 0.2 * math.pi
ANCHOR = np.diag([4.0, 1.0])


def _linear(a):
    return lambda x, y: np.einsum("ab,bij->aij", a, np.stack([x, y]))


def _signed_permutation(rng):
    return np.eye(2)[rng.permutation(2)] * rng.choice([-1.0, 1.0], size=2)


def _exact_law(rng, stretch):
    """S diag(stretch, 1) T with signed permutations S, T drawn from rng.

    With stretch a power of two every sample is exact, so every interior
    cell computes the same gauge bit for bit and the program's rounding-based
    dedup finds one semi-norm; the symmetries of the l-inf ball and of the
    cell grid make every draw the same amount of work.  (Generic linear maps
    do not: the dedup's 1e-12 rounding splits their semi-norm into a
    seed-dependent number of rows, 1 to 31 at n=64.)
    """
    return _signed_permutation(rng) @ np.diag([stretch, 1.0]) @ _signed_permutation(rng)


def _smooth_law(rng, amplitude):
    """The `qcreparam fixture --kind random-smooth` form, with a coefficient
    vector of the given Euclidean length in a direction drawn from rng."""
    c = rng.normal(size=6)
    c *= amplitude / np.linalg.norm(c)

    def fn(x, y):
        return np.stack([
            x + c[0] * np.sin(np.pi * x) * np.cos(np.pi * y) + c[1] * x * y,
            y + c[2] * np.cos(np.pi * x) * np.sin(np.pi * y) + c[3] * x * x
            + c[4] * y + c[5] * x,
        ])
    return fn


def _bump_law(a, c, center, radius):
    """a . (identity plus a smooth bump with coefficients c, supported in the
    disc of the given center and radius).

    Every cell whose stencil meets the bump carries its own derivative
    semi-norm; every other cell carries the one of the linear map a.
    """
    def fn(x, y):
        xs, ys = (x - center[0]) / radius, (y - center[1]) / radius
        t = np.minimum(np.hypot(xs, ys), 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            w = np.where(t < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
        z = np.stack([x + radius * w * (c[0] * np.sin(np.pi * xs) + c[1] * ys),
                      y + radius * w * (c[2] * np.sin(np.pi * ys) + c[3] * xs)])
        return np.einsum("ab,bij->aij", a, z)
    return fn


def _euclid_maps(rng, size, n):
    yield _linear(ANCHOR)
    for amplitude in np.linspace(0.1, 0.3, size - 1):
        yield _smooth_law(rng, amplitude)


def _linf_shared_maps(rng, size, n):
    yield _linear(ANCHOR)
    for k in range(1, size):
        yield _linear(_exact_law(rng, 2.0 ** (k % 2)))


def _linf_varied_maps(rng, size, n, radius=0.07, reach=2):
    # the bump of every slot is fixed; the anchor's sits at the origin, and
    # the seed moves every other one by whole cells, at most `reach` cells
    # along each axis, so it covers the same pattern of cells on every seed.
    # The seed's signed permutation acts on the target only, where the l-inf
    # ball is symmetric.  Every seed then asks for about the same inscribed
    # ellipses.
    h = 2.0 / n
    yield _bump_law(ANCHOR, np.random.default_rng(0).normal(scale=0.1, size=4),
                    (0.0, 0.0), radius)
    for k in range(1, size):
        a = _signed_permutation(rng) @ np.diag([2.0 ** (k % 2), 1.0])
        c = np.random.default_rng(k).normal(scale=0.1, size=4)
        yield _bump_law(a, c, h * rng.integers(-reach, reach + 1, size=2), radius)


@dataclass(frozen=True)
class Workload:
    """A named map pool; README.md says why each workload exists."""

    name: str
    target: str
    n: int
    pool: int
    make: Callable

    def generate(self, seed, outdir):
        """Write the seed's map pool into outdir; returns the map paths."""
        os.makedirs(outdir, exist_ok=True)
        grid = DiscGrid(self.n)
        target = TargetSpace.euclidean(2) if self.target == "euclidean" else TargetSpace.linf()
        paths = []
        for k, fn in enumerate(self.make(np.random.default_rng(seed), self.pool, self.n)):
            paths.append(os.path.join(outdir, f"map{k}.map"))
            SampledMap.from_function(grid, target, fn).save(paths[-1])
        return paths


WORKLOADS = {w.name: w for w in (
    Workload("euclid-reparam", target="euclidean", n=128, pool=12, make=_euclid_maps),
    Workload("linf-shared-reparam", target="linf", n=64, pool=4, make=_linf_shared_maps),
    Workload("linf-varied-reparam", target="linf", n=32, pool=3, make=_linf_varied_maps),
)}
