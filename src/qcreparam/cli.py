"""Batch front end.

Subcommands: energy, area, defect-map, identities, solve, reparam,
compare-areas, fixture.  Scalar results go to stdout; grids are written as
CSV ``i,j,x,y,value``; reparam emits the full report as structured text.
Exit codes: 0 success, 2 input/config error, 3 numerical failure, 4 budget
exceeded.  Identical configuration and seed produce byte-identical output
files (floats printed to 17 significant digits, no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import field as fd
from . import reparam as rp
from .beltrami import (
    ComplexField,
    compose_coefficient,
    distortion,
    distortion_from_mu,
    mat_to_wirtinger,
    solve_beltrami,
)
from .errors import ConfigError, InputFormatError, PipelineBudgetExceeded, QcreparamError
from .field import DiscGrid, SampledMap, TargetSpace

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4


def _fmt(x):
    return format(float(x), ".17g")


CSV_HEADER = "i,j,x,y,value"
CSV = "%d,%d,%.17g,%.17g,%.17g"


def _check_solver_resolution(n):
    if n < 64 or n > 2048:
        raise ConfigError(f"solver resolution must be in [64, 2048], got {n}")


def _density_command(name, density, reduce, default_csv=None):
    """A subcommand that prints name = reduce(grid, density) for the field of
    the input map and writes the density over the disc cells as a CSV grid."""
    def run(args):
        u = SampledMap.load(args.input)
        dens, mask = density(fd.estimate_field(u)), u.grid.disc_mask
        print(f"{name} = {_fmt(reduce(u.grid, dens))}")
        if args.csv or default_csv:
            fd.write_cells(args.csv or default_csv, CSV_HEADER, CSV, mask,
                           u.grid.x[mask], u.grid.y[mask], dens[mask])
        return EXIT_OK
    return run


cmd_energy = _density_command("energy", fd.DerivativeField.energy_density,
                              DiscGrid.integrate)
cmd_area = _density_command("area_intrinsic", fd.DerivativeField.jacobian_intrinsic_density,
                            DiscGrid.integrate)
cmd_defect_map = _density_command("max_defect", fd.DerivativeField.isotropy_defect_density,
                                  lambda grid, d: np.max(d[grid.disc_mask]), "defect.csv")


def cmd_compare_areas(args):
    u = SampledMap.load(args.input)
    f = fd.estimate_field(u)
    ah = fd.area_hausdorff(f)
    ai = fd.area_intrinsic(f)
    print(f"area_hausdorff = {_fmt(ah)}")
    print(f"area_intrinsic = {_fmt(ai)}")
    print(f"ratio = {_fmt(ah / ai if ai > 0 else 1.0)}")
    return EXIT_OK


def cmd_identities(args):
    count = args.count
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(args.seed)
    # random orientation-preserving linear maps
    mats = rng.normal(size=(count, 2, 2))
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    mats[det < 0] = mats[det < 0][:, ::-1, :]
    fz, fzb = mat_to_wirtinger(mats)
    mu = fzb / fz
    lhs = distortion(mats)
    sv = np.linalg.svd(mats, compute_uv=False)
    res_distortion = np.max(np.abs(lhs - distortion_from_mu(mu)))
    res_singular = np.max(np.abs(lhs - sv[:, 0] / sv[:, 1]))
    # composition identity against explicit inversion
    g = rng.normal(size=(count, 2, 2))
    detg = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    g[detg < 0] = g[detg < 0][:, ::-1, :]
    gz, gzb = mat_to_wirtinger(g)
    comp = np.einsum("kab,kbc->kac", g, np.linalg.inv(mats))
    cz, czb = mat_to_wirtinger(comp)
    direct = czb / cz
    formula = compose_coefficient(mu, gzb / gz, fz)
    res_compose = np.max(np.abs(direct - formula))
    print(f"distortion_identity_max_residual = {_fmt(res_distortion)}")
    print(f"singular_ratio_max_residual = {_fmt(res_singular)}")
    print(f"composition_max_residual = {_fmt(res_compose)}")
    return EXIT_OK


def cmd_solve(args):
    mu = ComplexField.load(args.input)
    _check_solver_resolution(mu.n)
    qc = solve_beltrami(mu)
    print(f"residual_l2 = {_fmt(qc.residual_l2)}")
    print(f"K_certified = {_fmt(qc.K_certified)}")
    print(f"det_min = {_fmt(qc.det_min)}")
    print(f"iterations = {qc.iterations}")
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    qc.save(os.path.join(outdir, "rho.qcmap"))
    xs, ys = qc.node_coords()
    fz, fzb = mat_to_wirtinger(qc.df)
    mu_f = fzb / fz
    det = np.abs(fz) ** 2 - np.abs(fzb) ** 2
    grids = {
        "residual.csv": qc.meta["residual"],
        "dilatation.csv": qc.meta["dilatation"],
        "mu_abs.csv": np.abs(mu_f),
        "mu_arg.csv": np.angle(mu_f),
        "det.csv": det,
    }
    step = max(1, qc.shape[0] // 256)
    sel = np.zeros(qc.shape, dtype=bool)
    sel[::step, ::step] = True
    for name, data in grids.items():
        fd.write_cells(os.path.join(outdir, name), CSV_HEADER, CSV, sel,
                       xs[sel], ys[sel], data[sel])
    return EXIT_OK


def cmd_reparam(args):
    u = SampledMap.load(args.input)
    _check_solver_resolution(2 * u.grid.n)
    if not (np.isfinite(args.epsilon) and args.epsilon > 0):
        raise ConfigError(f"epsilon must be finite and positive, got {args.epsilon}")
    if not (np.isfinite(args.quad_budget) and args.quad_budget >= 0):
        raise ConfigError(f"quad budget must be finite and non-negative, got {args.quad_budget}")
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    try:
        phi, omega, report = rp.epsilon_conformal(
            u, args.epsilon, quad_rel=args.quad_budget, seed=args.seed)
    except PipelineBudgetExceeded as exc:
        if exc.report is not None:
            _emit_reparam(exc.report, None, None, outdir, args.report)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit_reparam(report, phi, omega, outdir, args.report)
    return EXIT_OK


def _emit_reparam(report, phi, omega, outdir, report_path):
    text = report.render()
    sys.stdout.write(text)
    with open(report_path or os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(text)
    if phi is not None:
        phi.save(os.path.join(outdir, "phi.qcmap"))
    if omega is not None:
        b = omega.boundary
        fd.write_cells(os.path.join(outdir, "omega_boundary.csv"), "k,_,x,y,_", CSV,
                       np.ones((b.size, 1), dtype=bool), b.real, b.imag, np.zeros(b.size))


def cmd_fixture(args):
    n = args.n
    if args.kind == "bump-mu":
        _check_solver_resolution(n)
        x, y = ComplexField(S=rp.SOLVER_BOX, values=np.zeros((n, n), dtype=complex)).meshes()
        r = np.hypot(x, y)
        with np.errstate(over="ignore"):
            vals = args.k * np.where(
                r < 0.7, np.exp(1.0 - 1.0 / np.maximum(1.0 - (r / 0.7) ** 2, 1e-300)), 0.0)
        ComplexField(S=rp.SOLVER_BOX, values=vals.astype(complex)).save(args.out)
    else:
        c = np.random.default_rng(args.seed).normal(scale=0.1, size=6)
        fixtures = {
            "identity": (TargetSpace.euclidean(2), lambda x, y: np.stack([x, y])),
            "stretch": (TargetSpace.euclidean(2), lambda x, y: np.stack([2.0 * x, y])),
            "linf-identity": (TargetSpace.linf(), lambda x, y: np.stack([x, y])),
            "random-smooth": (TargetSpace.euclidean(2), lambda x, y: np.stack([
                x + c[0] * np.sin(np.pi * x) * np.cos(np.pi * y) + c[1] * x * y,
                y + c[2] * np.cos(np.pi * x) * np.sin(np.pi * y) + c[3] * x * x
                + c[4] * y + c[5] * x])),
        }
        if args.kind not in fixtures:
            raise ConfigError(f"unknown fixture kind {args.kind!r}")
        SampledMap.from_function(DiscGrid(n), *fixtures[args.kind]).save(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="qcreparam", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_map_cmd(name, fn, csv=True):
        q = sub.add_parser(name)
        q.add_argument("--input", required=True)
        if csv:
            q.add_argument("--csv")
        q.set_defaults(fn=fn)
        return q

    add_map_cmd("energy", cmd_energy)
    add_map_cmd("area", cmd_area)
    add_map_cmd("defect-map", cmd_defect_map)
    add_map_cmd("compare-areas", cmd_compare_areas, csv=False)

    q = sub.add_parser("identities")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--count", type=int, default=1000)
    q.set_defaults(fn=cmd_identities)

    q = sub.add_parser("solve")
    q.add_argument("--input", required=True)
    q.add_argument("--outdir")
    q.set_defaults(fn=cmd_solve)

    q = sub.add_parser("reparam")
    q.add_argument("--input", required=True)
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--seed", type=int)
    q.add_argument("--quad-budget", type=float, default=rp.QUAD_BUDGET_REL,
                   help="relative quadrature allowance in the audit")
    q.add_argument("--report")
    q.add_argument("--outdir")
    q.set_defaults(fn=cmd_reparam)

    q = sub.add_parser("fixture")
    q.add_argument("--kind", required=True,
                   choices=["identity", "stretch", "linf-identity",
                            "random-smooth", "bump-mu"])
    q.add_argument("--n", type=int, default=256)
    q.add_argument("--k", type=float, default=0.2)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_fixture)
    return p


# built on the first main() call and kept: parsing leaves the parser as it was
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputFormatError, ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PipelineBudgetExceeded as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QcreparamError as exc:
        print(f"error: numerical: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
