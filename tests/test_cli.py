import numpy as np
import pytest

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

    def test_solve_rejects_bad_resolution(self, capsys, tmp_path):
        import qcreparam as qc

        f = qc.ComplexField(S=2.0, values=np.zeros((48, 48), dtype=complex))
        path = tmp_path / "mu48.bin"
        f.save(path)
        code, _, err = run(["solve", "--input", str(path)], capsys)
        assert code == 2


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

    def test_rejects_nonpositive_epsilon(self, fixtures, capsys):
        code, _, err = run(["reparam", "--input", str(fixtures / "st.map"),
                            "--epsilon", "-1.0"], capsys)
        assert code == 2


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
