import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import qcreparam as qc
from qcreparam.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["fixture", "--kind", "identity", "--n", "64",
                 "--out", str(root / "id.map")]) == 0
    assert main(["fixture", "--kind", "stretch", "--n", "64",
                 "--out", str(root / "st.map")]) == 0
    assert main(["fixture", "--kind", "linf-identity", "--n", "64",
                 "--out", str(root / "li.map")]) == 0
    assert main(["fixture", "--kind", "bump-mu", "--n", "128", "--k", "0.2",
                 "--out", str(root / "mu.bin")]) == 0
    return root


def per_row_csv(rows, header="i,j,x,y,value"):
    """The per-row CSV writer that the array writer replaced: ints as they
    are, floats at 17 significant digits."""
    return header + "\n" + "".join(",".join(
        str(c) if isinstance(c, int) else format(float(c), ".17g") for c in row) + "\n"
        for row in rows)


def grab(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + " = "):
            return float(line.split(" = ")[1])
    raise KeyError(key)


class TestScalarCommands:
    def test_energy_identity(self, fixtures, capsys):
        code, out, _ = run(["energy", "--input", str(fixtures / "id.map")], capsys)
        assert code == 0
        assert grab(out, "energy") == pytest.approx(np.pi, rel=0.02)

    def test_energy_csv(self, fixtures, capsys, tmp_path):
        csv = tmp_path / "energy.csv"
        code, out, _ = run(["energy", "--input", str(fixtures / "st.map"),
                            "--csv", str(csv)], capsys)
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "i,j,x,y,value"
        assert float(lines[1].split(",")[4]) == pytest.approx(4.0, abs=1e-6)

    def test_area(self, fixtures, capsys):
        code, out, _ = run(["area", "--input", str(fixtures / "st.map")], capsys)
        assert code == 0
        assert grab(out, "area_intrinsic") == pytest.approx(2 * np.pi, rel=0.02)

    def test_defect_map(self, fixtures, capsys, tmp_path):
        csv = tmp_path / "d.csv"
        code, out, _ = run(["defect-map", "--input", str(fixtures / "li.map"),
                            "--csv", str(csv)], capsys)
        assert code == 0
        assert abs(grab(out, "max_defect")) < 1e-9

    def test_compare_areas_linf(self, fixtures, capsys):
        code, out, _ = run(["compare-areas", "--input", str(fixtures / "li.map")],
                           capsys)
        assert code == 0
        assert grab(out, "ratio") == pytest.approx(np.pi / 4, abs=0.02)

    def test_identities(self, capsys):
        code, out, _ = run(["identities", "--seed", "0", "--count", "500"], capsys)
        assert code == 0
        assert grab(out, "distortion_identity_max_residual") < 1e-9
        assert grab(out, "composition_max_residual") < 1e-9


class TestSolveCommand:
    def test_solve_bump(self, fixtures, capsys, tmp_path):
        out_dir = tmp_path / "solve"
        code, out, _ = run(["solve", "--input", str(fixtures / "mu.bin"),
                            "--outdir", str(out_dir)], capsys)
        assert code == 0
        assert grab(out, "residual_l2") <= 1e-3
        assert grab(out, "det_min") > 0
        assert (out_dir / "rho.qcmap").exists()
        assert (out_dir / "residual.csv").exists()
        assert (out_dir / "dilatation.csv").exists()

    def test_solve_csv_bytes(self, fixtures, capsys, tmp_path):
        code, _, _ = run(["solve", "--input", str(fixtures / "mu.bin"),
                          "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rho = qc.solve_beltrami(qc.ComplexField.load(fixtures / "mu.bin"))
        xs, ys = rho.node_coords()
        fz, fzb = qc.mat_to_wirtinger(rho.df)
        grids = {"residual.csv": rho.meta["residual"], "dilatation.csv": rho.meta["dilatation"],
                 "mu_abs.csv": np.abs(fzb / fz), "mu_arg.csv": np.angle(fzb / fz),
                 "det.csv": np.abs(fz) ** 2 - np.abs(fzb) ** 2}
        for name, data in grids.items():
            rows = [(i, j, xs[i, j], ys[i, j], data[i, j])
                    for i in range(rho.shape[0]) for j in range(rho.shape[1])]
            assert (tmp_path / name).read_text() == per_row_csv(rows)

    def test_solve_keeps_the_plain_loop_bits(self, fixtures, capsys, tmp_path):
        # the bump-mu coefficient is compactly supported, so mu_0 = 0 and the
        # solve is the plain loop h <- mu (1 + S h) over the whole box, to the
        # bit on this 128^2 box
        from qcreparam.beltrami import ITER_TOL, MAX_ITER, _spectral_multipliers

        code, out, _ = run(["solve", "--input", str(fixtures / "mu.bin"),
                            "--outdir", str(tmp_path)], capsys)
        assert code == 0
        mu = qc.ComplexField.load(fixtures / "mu.bin")
        assert mu.offset == 0
        beurling, cauchy = _spectral_multipliers(mu.n, mu.spacing)
        h = np.zeros_like(mu.values)
        for it in range(1, MAX_ITER + 1):
            h_new = mu.values * (1.0 + np.fft.ifft2(beurling * np.fft.fft2(h)))
            inc, h = np.sqrt(np.mean(np.abs(h_new - h) ** 2)), h_new
            if inc <= ITER_TOL:
                break
        x, y = mu.meshes()
        z = x + 1j * y
        ref = z + complex(np.mean(h)) * np.conj(z) + np.fft.ifft2(cauchy * np.fft.fft2(h))
        assert np.array_equal(qc.QCMap.load(tmp_path / "rho.qcmap").values, ref)
        assert grab(out, "iterations") == it

    def test_solve_keeps_its_bytes(self, fixtures, capsys, tmp_path):
        # `fixture --kind bump-mu` keeps its own [-2, 2]^2 box, apart from the
        # box that reparam fits to its disc grid: the fixture, solve's stdout
        # and its files keep these SHA-256 digests (numpy 2.4, x86-64)
        import hashlib

        code, out, _ = run(["solve", "--input", str(fixtures / "mu.bin"),
                            "--outdir", str(tmp_path)], capsys)
        assert code == 0
        want = {
            "mu.bin": "f37505afa00b319d021ffb885c3b615d9c720cada5c9fdbf774c8df1e9b07caa",
            "stdout": "9ac3b93c062b9d86539921ae76a239361d36eb34c65268d7733508f5fd8d34ff",
            "det.csv": "0c5931cb2ced3a05834a5211c1148eece44f7607e2dcf27dda4541612aae0848",
            "dilatation.csv": "7e962577a0b89126feca3847329e0fb9b56dea13e49082ac158e1d977e5726ad",
            "mu_abs.csv": "92c60d52c2de491fdf82da84691a0ab70d54ac86d19e003112e81e0c14293544",
            "mu_arg.csv": "1b7d1543faa4bf2a1b7389e7316f9a3d70f83c52c9ab17e170417c9f3fdec695",
            "residual.csv": "fe2e2d320c3d349fce75725540b31106c844dc374965515874e426b033222d4e",
            "rho.qcmap": "292f02c641ac36f344a6811a76b0317598a5762e08d55c010d6ba41f3fccdf42",
        }
        got = {name: hashlib.sha256((fixtures / name if name == "mu.bin" else tmp_path / name)
                                    .read_bytes()).hexdigest()
               for name in want if name != "stdout"}
        got["stdout"] = hashlib.sha256(out.encode()).hexdigest()
        assert got == want

    def test_solve_rejects_bad_resolution(self, capsys, tmp_path):
        import qcreparam as qc

        f = qc.ComplexField(S=2.0, values=np.zeros((48, 48), dtype=complex))
        path = tmp_path / "mu48.bin"
        f.save(path)
        code, _, err = run(["solve", "--input", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("half_width", [float("nan"), float("inf")])
    def test_solve_rejects_nonfinite_box(self, capsys, tmp_path, half_width):
        # the layout of ComplexField.save, with a box half-width it refuses
        path = tmp_path / "mu.bin"
        path.write_bytes(struct.pack("<dq", half_width, 64) + bytes(64 * 64 * 16))
        code, out, err = run(["solve", "--input", str(path), "--outdir",
                              str(tmp_path / "out")], capsys)
        assert code == 2
        assert "box half-width must be finite and exceed 1" in err
        assert out == "" and not (tmp_path / "out").exists()


class TestReparamCommand:
    def test_stretch_report(self, fixtures, capsys, tmp_path):
        out_dir = tmp_path / "rep"
        code, out, _ = run(["reparam", "--input", str(fixtures / "st.map"),
                            "--epsilon", "0.6283185307179586",
                            "--outdir", str(out_dir), "--seed", "7"], capsys)
        assert code == 0
        assert "status = ok" in out
        for line in out.splitlines():
            if "slack = " in line:
                assert float(line.rsplit("slack = ", 1)[1]) >= 0
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "phi.qcmap").exists()
        assert (out_dir / "omega_boundary.csv").exists()

    def test_byte_identical_reports(self, fixtures, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run(["reparam", "--input", str(fixtures / "st.map"),
                              "--epsilon", "0.5", "--outdir", str(out_dir),
                              "--seed", "13"], capsys)
            assert code == 0
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        assert (a / "phi.qcmap").read_bytes() == (b / "phi.qcmap").read_bytes()

    @pytest.mark.parametrize("kind, n, want", [
        ("stretch", 64, (
            "07c6cc10fb1d3cde78d525db6fac32d72487a53c59c88da0f8c684523aff4951",
            "df857b25b732703d350f4ba9f0cc7e26d067f04d0df71d0281944d32ab6ba466",
            "dee04bc284ddb3051aae63a2c3d26ab427fdf5890b0a418e10f0c4545b280520")),
        ("random-smooth", 128, (
            "24a7e809655a295a678cf5ee1bf2913aae9b1864e8e8ec34ca71f4c0c5538dff",
            "58e56f62d85ead1d0cc03b97e9fb882770542e2868c4f7b0bf1cdb413630d66b",
            "585f7d939cbd5901d0c553aec588e74e8f2b7720c27596ca892aeb18197b0085")),
        ("linf-identity", 64, (
            "953bca3ffeff0c4e62297e8d1a41169fdc37ea84fc64ad5855bd7bedefda78c2",
            "3ab137cfda7e9780792e1b37ca9245dad91b23e8f0664f755676b11a9342aec8",
            "e053879439c646dd0210d4dc9192cf335438843758e96f230fc14ecc35591b90")),
    ])
    def test_reparam_keeps_its_bytes(self, capsys, tmp_path, kind, n, want):
        # the fixture (seed 0) through reparam at eps = 0.2 pi: report.txt,
        # phi.qcmap and omega_boundary.csv keep these SHA-256 digests (numpy
        # 2.4, x86-64)
        import hashlib

        path = tmp_path / "in.map"
        assert main(["fixture", "--kind", kind, "--n", str(n), "--seed", "0",
                     "--out", str(path)]) == 0
        code, _, _ = run(["reparam", "--input", str(path), "--epsilon", "0.6283185307179586",
                          "--outdir", str(tmp_path / "out")], capsys)
        assert code == 0
        got = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in ("report.txt", "phi.qcmap", "omega_boundary.csv"))
        assert got == want

    @pytest.mark.parametrize("target", [qc.TargetSpace.euclidean(2), qc.TargetSpace.linf()],
                             ids=["euclidean", "linf"])
    def test_a_rerun_after_another_map_keeps_its_bytes(self, capsys, tmp_path, target):
        # the loaders share one grid per n: maps A, B, A of one n in one
        # process, and A's second run writes the bytes of its first
        grid = qc.DiscGrid(64)
        maps = {"a": lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]),
                "b": lambda x, y: np.stack([2.0 * x, y - 0.15 * x * y])}
        for name, fn in maps.items():
            qc.SampledMap.from_function(grid, target, fn).save(tmp_path / f"{name}.map")
        for k, name in enumerate("aba"):
            code, _, _ = run(["reparam", "--input", str(tmp_path / f"{name}.map"), "--epsilon",
                              "0.6283185307179586", "--outdir", str(tmp_path / f"out{k}")],
                             capsys)
            assert code == 0
        for name in ("report.txt", "phi.qcmap", "omega_boundary.csv"):
            assert (tmp_path / "out0" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
        assert (tmp_path / "out0" / "report.txt").read_bytes() != (
            tmp_path / "out1" / "report.txt").read_bytes()

    def test_rejects_nonpositive_epsilon(self, fixtures, capsys):
        code, _, err = run(["reparam", "--input", str(fixtures / "st.map"),
                            "--epsilon", "-1.0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_rejects_nonfinite_epsilon(self, fixtures, capsys, tmp_path, epsilon):
        code, _, err = run(["reparam", "--input", str(fixtures / "st.map"),
                            f"--epsilon={epsilon}", "--outdir", str(tmp_path)], capsys)
        assert code == 2
        assert "epsilon must be finite and positive" in err

    @pytest.mark.parametrize("budget", ["nan", "inf", "-0.5"])
    def test_rejects_bad_quad_budget(self, fixtures, capsys, tmp_path, budget):
        # a NaN budget would make every slack NaN, and inf would pass every check
        out_dir = tmp_path / "out"
        code, out, err = run(["reparam", "--input", str(fixtures / "st.map"), "--epsilon",
                              "0.6283", f"--quad-budget={budget}", "--outdir", str(out_dir)],
                             capsys)
        assert code == 2
        assert "quad budget must be finite and non-negative" in err
        assert out == "" and not out_dir.exists()

    def test_accepts_zero_quad_budget(self, fixtures, capsys, tmp_path):
        code, out, _ = run(["reparam", "--input", str(fixtures / "st.map"), "--epsilon",
                            "0.6283", "--quad-budget", "0", "--outdir", str(tmp_path)], capsys)
        assert code in (0, 4)
        assert "quad_budget = 0\n" in out


    def test_resolution_need_not_be_a_power_of_two(self, capsys, tmp_path):
        # n = 48 puts 96 nodes on the solver grid: inside [64, 2048]
        u = qc.SampledMap.from_function(qc.DiscGrid(48), qc.TargetSpace.l1(),
                                        lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]))
        u.save(tmp_path / "l1.map")
        code, out, _ = run(["reparam", "--input", str(tmp_path / "l1.map"), "--epsilon",
                            repr(0.2 * np.pi), "--outdir", str(tmp_path / "out")], capsys)
        assert code == 0
        phi, omega, report = qc.epsilon_conformal(u, 0.2 * np.pi)
        assert out == report.render()
        assert (tmp_path / "out" / "report.txt").read_text() == report.render()
        phi.save(tmp_path / "phi.qcmap")
        assert (tmp_path / "out" / "phi.qcmap").read_bytes() == (tmp_path / "phi.qcmap").read_bytes()
        rows = [(k, 0, b.real, b.imag, 0.0) for k, b in enumerate(omega.boundary)]
        assert ((tmp_path / "out" / "omega_boundary.csv").read_text()
                == per_row_csv(rows, header="k,_,x,y,_"))


class TestParser:
    def test_built_on_first_main_not_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
        script = """
import qcreparam.cli as cli
assert cli._parser.cache_info().currsize == 0
assert cli.main(["identities", "--count", "3"]) == 0
assert cli.main(["identities", "--count", "3"]) == 0
info = cli._parser.cache_info()
assert (info.misses, info.hits) == (1, 1), info
"""
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["reparam", "--help"],
                                      ["fixture", "--help"], ["energy", "-h"]])
    def test_help_unchanged(self, capsys, argv):
        # the kept parser prints the help of a freshly built one, every time
        from qcreparam import cli

        def printed(parse):
            with pytest.raises(SystemExit) as done:
                parse(argv)
            assert done.value.code == 0
            return capsys.readouterr().out

        want = printed(cli.build_parser().parse_args)
        assert want.startswith("usage: qcreparam")
        assert printed(main) == want
        assert printed(main) == want

    def test_repeated_mains_write_the_same_bytes(self, fixtures, capsys, tmp_path):
        # one process, one parser: a rejected command line between two runs
        # leaves the second run's outputs byte-identical to the first's
        outs = []
        for k in range(2):
            out_dir = tmp_path / f"run{k}"
            code, out, _ = run(["reparam", "--input", str(fixtures / "li.map"),
                                "--epsilon", "0.6283185307179586", "--outdir", str(out_dir),
                                "--seed", "5"], capsys)
            assert code == 0
            outs.append([out] + [(out_dir / name).read_bytes() for name in
                                 ("report.txt", "phi.qcmap", "omega_boundary.csv")])
            with pytest.raises(SystemExit):
                main(["reparam", "--epsilon", "x"])
            capsys.readouterr()
        assert outs[0] == outs[1]


class TestCsvGrids:
    @pytest.mark.parametrize("command, density", [
        ("energy", "energy_density"), ("area", "jacobian_intrinsic_density"),
        ("defect-map", "isotropy_defect_density")])
    def test_density_csv_bytes(self, fixtures, capsys, tmp_path, command, density):
        for name in ("st.map", "li.map"):
            csv = tmp_path / f"{command}.csv"
            code, _, _ = run([command, "--input", str(fixtures / name), "--csv", str(csv)],
                             capsys)
            assert code == 0
            u = qc.SampledMap.load(fixtures / name)
            dens = getattr(qc.estimate_field(u), density)()
            g = u.grid
            rows = [(int(i), int(j), g.x[i, j], g.y[i, j], dens[i, j])
                    for i, j in zip(*np.nonzero(g.disc_mask))]
            assert csv.read_text() == per_row_csv(rows)


def test_import_graph_leaves_out_scipy_signal(tmp_path):
    # a mollify that convolves (eta of 3 spacings), one Euclidean reparam run,
    # and one on an l-inf map with a bump (diag(4, 1) plus a smooth bump of
    # radius 0.07), whose cells near the bump carry their own gauge rows: no
    # scipy module at all
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    script = f"""
import sys
import numpy as np
import qcreparam as qc
import qcreparam.cli as cli
from conftest import bump_coefficient
mu = bump_coefficient(n=64, radius=0.5)
assert not np.array_equal(qc.mollify(mu, 3 * mu.spacing).values, mu.values)
u = qc.SampledMap.from_function(qc.DiscGrid(32), qc.TargetSpace.euclidean(2),
                                lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]))
u.save({str(tmp_path / "m.map")!r})
assert cli.main(["reparam", "--input", {str(tmp_path / "m.map")!r}, "--epsilon", "0.6283",
                 "--outdir", {str(tmp_path / "out")!r}]) == 0

def bump(x, y, c=np.random.default_rng(0).normal(scale=0.1, size=4), radius=0.07):
    xs, ys = x / radius, y / radius
    t = np.minimum(np.hypot(xs, ys), 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        w = np.where(t < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    return np.stack([4.0 * (x + radius * w * (c[0] * np.sin(np.pi * xs) + c[1] * ys)),
                     y + radius * w * (c[2] * np.sin(np.pi * ys) + c[3] * xs)])

qc.SampledMap.from_function(qc.DiscGrid(32), qc.TargetSpace.linf(), bump).save(
    {str(tmp_path / "b.map")!r})
assert cli.main(["reparam", "--input", {str(tmp_path / "b.map")!r}, "--epsilon", "0.6283",
                 "--outdir", {str(tmp_path / "bout")!r}]) == 0
loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(os.path.abspath(__file__))]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(["energy", "--input", "no-such-file.map"], capsys)
        assert code == 2
        assert "error" in err

    def test_corrupt_map(self, capsys, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("not a header\n")
        code, _, err = run(["energy", "--input", str(bad)], capsys)
        assert code == 2

    @pytest.mark.parametrize("entries", ["1 0 0 inf", "1 0 0 nan"])
    def test_non_finite_gram_target(self, capsys, tmp_path, entries):
        # an inf entry gave energy = nan with exit 0, a nan entry a symmetry
        # error: both are an input error that names finiteness
        src = tmp_path / "id32.map"
        assert main(["fixture", "--kind", "identity", "--n", "32", "--out", str(src)]) == 0
        bad = tmp_path / "bad.map"
        bad.write_text(f"32 2 quadratic 2 {entries}\n" + src.read_text().split("\n", 1)[1])
        capsys.readouterr()
        code, _, err = run(["energy", "--input", str(bad)], capsys)
        assert code == 2
        assert "Gram matrix must be finite" in err

    @pytest.mark.parametrize("record", ["40 5 0.5 0.5", "-1 -1 1e9 1e9", "3 32 0 0"])
    def test_cell_index_outside_grid(self, capsys, tmp_path, record):
        # an n=32 map with one extra record outside the grid: an input error
        # (exit 2), neither an IndexError nor a negative index that wraps
        src = tmp_path / "id32.map"
        assert main(["fixture", "--kind", "identity", "--n", "32", "--out", str(src)]) == 0
        bad = tmp_path / "bad.map"
        bad.write_text(src.read_text() + record + "\n")
        capsys.readouterr()
        code, _, err = run(["energy", "--input", str(bad)], capsys)
        assert code == 2
        assert "outside the 32 x 32 grid" in err

    def test_dented_polygonal_target(self, capsys, tmp_path):
        # l-inf values with v[5] raised 20 %: a ball that is not convex is no
        # norm, and the sector gauge assumes one (exit 2)
        src = tmp_path / "id32.map"
        assert main(["fixture", "--kind", "identity", "--n", "32", "--out", str(src)]) == 0
        v = np.abs(qc.seminorm.half_circle_directions(64)).max(axis=1)
        v[5] *= 1.2
        bad = tmp_path / "bad.map"
        bad.write_text(f"32 2 polygonal 64 {' '.join(format(x, '.17g') for x in v)}\n"
                       + src.read_text().split("\n", 1)[1])
        capsys.readouterr()
        code, _, err = run(["reparam", "--input", str(bad), "--epsilon", "0.6",
                            "--outdir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "polygonal gauge must be a norm" in err

    def test_repeated_cell(self, capsys, tmp_path):
        # an n=32 map naming cell (16, 16) twice: an input error (exit 2)
        src = tmp_path / "id32.map"
        assert main(["fixture", "--kind", "identity", "--n", "32", "--out", str(src)]) == 0
        bad = tmp_path / "bad.map"
        bad.write_text(src.read_text() + "16 16 0.5 0.5\n")
        capsys.readouterr()
        code, _, err = run(["energy", "--input", str(bad)], capsys)
        assert code == 2
        assert "cell (16, 16) appears twice" in err

    @pytest.mark.parametrize("command", [["energy"], ["reparam", "--epsilon", "0.6"]])
    def test_header_larger_than_body(self, capsys, tmp_path, command):
        # a header n whose n x n grid the body cannot fill is refused before the
        # grid is built: it ended in a MemoryError (74.5 GiB at n = 100 000)
        bad = tmp_path / "big.map"
        bad.write_text("100000 2 euclidean 2\n")
        code, _, err = run([command[0], "--input", str(bad), *command[1:]], capsys)
        assert code == 2
        assert "at least 2499999999 disc cells missing from file" in err

    def test_zero_dimensional_target(self, capsys, tmp_path):
        # a d = 0 target printed energy = 0 and exited 0
        bad = tmp_path / "d0.map"
        bad.write_text("16 0 euclidean 0\n")
        code, _, err = run(["energy", "--input", str(bad)], capsys)
        assert code == 2
        assert "target dimension must be at least 1, got 0" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, command, what", [
        (1e160, ["energy"], "energy"),
        (1e160, ["reparam", "--epsilon", "0.6283"], "energy"),
        (1e100, ["reparam", "--epsilon", "0.6283"], "area")])
    def test_huge_map(self, capsys, tmp_path, monkeypatch, scale, command, what):
        # an l-inf map times 1e160 printed energy = inf with exit 0, and reparam
        # printed RuntimeWarnings, then ended SearchExhausted (exit 3); times
        # 1e100 its energy is finite but sqrt(det M) overflows.  Either is an
        # input error before the delta search, with no RuntimeWarning
        from qcreparam import reparam

        monkeypatch.setattr(reparam, "choose_delta",
                            lambda *args: pytest.fail("the delta search ran"))
        path = tmp_path / "huge.map"
        qc.SampledMap.from_function(
            qc.DiscGrid(32), qc.TargetSpace.linf(),
            lambda x, y: scale * np.stack([x + 0.1 * x * y, y])).save(path)
        outdir = ["--outdir", str(tmp_path / "out")] if command[0] == "reparam" else []
        code, out, err = run([command[0], "--input", str(path), *command[1:], *outdir], capsys)
        assert code == 2
        assert out == ""
        assert f"error: input: the map's {what} is not finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["energy"], ["reparam", "--epsilon", "0.6283"]])
    def test_huge_euclidean_map(self, capsys, tmp_path, command):
        # (x + 0.1 xy, y) times 1e160 into R^2: the squared stencil differences
        # overflow in the Euclidean distance, and both commands printed
        # RuntimeWarnings before their input error (with warnings as errors, a
        # traceback and exit 1).  An input error, with no RuntimeWarning
        path = tmp_path / "huge.map"
        qc.SampledMap.from_function(
            qc.DiscGrid(32), qc.TargetSpace.euclidean(2),
            lambda x, y: 1e160 * np.stack([x + 0.1 * x * y, y])).save(path)
        outdir = ["--outdir", str(tmp_path / "out")] if command[0] == "reparam" else []
        code, out, err = run([command[0], "--input", str(path), *command[1:], *outdir], capsys)
        assert code == 2
        assert out == ""
        assert "error: input: the map's energy is not finite" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_identities_count_below_one(self, capsys, count):
        # numpy's "zero-size array to reduction" message gave way to the CLI's own
        code, _, err = run(["identities", "--count", count], capsys)
        assert code == 2
        assert f"count must be at least 1, got {count}" in err


class TestNumericalExit:
    def test_coefficient_too_large_exits_3(self, capsys, tmp_path):
        code = main(["fixture", "--kind", "bump-mu", "--n", "64", "--k", "0.995",
                     "--out", str(tmp_path / "hot.bin")])
        assert code == 0
        capsys.readouterr()
        code, _, err = run(["solve", "--input", str(tmp_path / "hot.bin")], capsys)
        assert code == 3
        assert "CoefficientTooLarge" in err

    def test_failed_ellipse_certificate_exits_3(self, fixtures, capsys, tmp_path,
                                                monkeypatch):
        from qcreparam import seminorm
        from qcreparam.errors import EllipseNotCertified, QcreparamError

        assert issubclass(EllipseNotCertified, QcreparamError)
        monkeypatch.setattr(seminorm, "GAP_TOL", -1.0)
        with pytest.raises(EllipseNotCertified):
            seminorm.inscribed_ellipses(np.ones((1, 16)))
        code, _, err = run(["reparam", "--input", str(fixtures / "li.map"),
                            "--epsilon", "0.6283", "--outdir", str(tmp_path)], capsys)
        assert code == 3
        assert "EllipseNotCertified" in err

    def test_solve_csv_grids(self, fixtures, capsys, tmp_path):
        out_dir = tmp_path / "grids"
        code, _, _ = run(["solve", "--input", str(fixtures / "mu.bin"),
                          "--outdir", str(out_dir)], capsys)
        assert code == 0
        for name in ("mu_abs.csv", "mu_arg.csv", "det.csv"):
            assert (out_dir / name).exists()


def test_euclidean_pipeline_leaves_out_scipy_spatial():
    # the inverse starts from closed-form cell preimages, the extension is a
    # fixed window over the interior mask: the pipeline loads no scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    script = """
import sys
import numpy as np
import qcreparam as qc
u = qc.SampledMap.from_function(qc.DiscGrid(32), qc.TargetSpace.euclidean(2),
                                lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x]))
phi, omega, report = qc.epsilon_conformal(u, 0.6283)
assert report.failures() == []
loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
assert not loaded, loaded
"""
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
