import math
from pathlib import Path

import numpy as np
import pytest

from eigenpert import cli, harness, symmat
from eigenpert.symmat import EigenDecomposition
from conftest import mp_eigensolve

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_100 = INSTANCES / "golden_d2_lambda100.txt"
GOLDEN_1E4 = INSTANCES / "golden_d2_lambda1e4.txt"
EXAMPLE_D5 = INSTANCES / "example_d5_m2.txt"
OVERFLOWING_EIGENVALUE = "lambdas = [1e308, 1.0]\nvector = [2.0, 0.0]\n"


class TestInstanceFormat:
    def test_parse_golden(self):
        inst = cli.load_instance(str(GOLDEN_100))
        assert inst.d == 2
        assert np.array_equal(inst.spectrum.lambdas, [100.0, 1.0])
        assert inst.m == 1
        assert inst.meta == "golden-d2-lambda100"

    def test_repeated_vector_lines(self):
        inst = cli.load_instance(str(EXAMPLE_D5))
        assert inst.m == 2
        assert inst.perts.vectors[1][0] == pytest.approx(1.4)

    def test_round_trip(self):
        inst = cli.load_instance(str(EXAMPLE_D5))
        text = cli.format_instance(inst)
        again = cli.parse_instance_text(text)
        assert np.array_equal(again.spectrum.lambdas, inst.spectrum.lambdas)
        for a, b in zip(again.perts.vectors, inst.perts.vectors):
            assert np.array_equal(a, b)
        assert again.seed == inst.seed

    def test_not_descending_names_line_and_indices(self):
        text = "dim = 2\nlambdas = [1.0, 2.0]\n"
        with pytest.raises(cli.InstanceParseError) as err:
            cli.parse_instance_text(text)
        assert err.value.line_no == 2
        assert "not descending" in str(err.value)
        assert "lambdas[1]" in str(err.value)

    def test_nonpositive_rejected(self):
        with pytest.raises(cli.InstanceParseError, match="not positive"):
            cli.parse_instance_text("lambdas = [1.0, 0.0]\n")

    def test_vector_length_mismatch_names_line(self):
        text = "dim = 3\nlambdas = [3.0, 2.0, 1.0]\nvector = [1.0, 2.0]\n"
        with pytest.raises(cli.InstanceParseError) as err:
            cli.parse_instance_text(text)
        assert err.value.line_no == 3

    def test_garbage_line(self):
        with pytest.raises(cli.InstanceParseError, match="key = value"):
            cli.parse_instance_text("lambdas = [2.0, 1.0]\nwhat is this\n")
        with pytest.raises(cli.InstanceParseError, match="unknown key"):
            cli.parse_instance_text("lambdas = [2.0, 1.0]\nfoo = 3\n")

    def test_missing_lambdas(self):
        with pytest.raises(cli.InstanceParseError, match="lambdas"):
            cli.parse_instance_text("dim = 2\n")

    def test_non_numeric_entry(self):
        with pytest.raises(cli.InstanceParseError, match="non-numeric"):
            cli.parse_instance_text('lambdas = [2.0, "x"]\n')

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("dim = True\nlambdas = [2.0]\n", 1, "dim must be a positive integer"),
            ("lambdas = [2.0, 1.0]\nseed = True\n", 2, "seed must be an integer"),
            ("lambdas = [1e999, 1.0]\n", 1, "not a finite number"),
            ("lambdas = [2.0, 1.0]\nvector = [1.0, 1e999]\n", 2, "not a finite number"),
            ("lambdas = [2.0, 1.0]\nvectors = [[1.0, -1e999]]\n", 2, "not a finite number"),
            ("lambdas = [2.0, True]\n", 1, "entry True is not a finite number"),
        ],
    )
    def test_rejected_values_exit_2(self, capsys, tmp_path, text, line_no, message):
        with pytest.raises(cli.InstanceParseError, match=message) as err:
            cli.parse_instance_text(text)
        assert err.value.line_no == line_no
        f = tmp_path / "bad.txt"
        f.write_text(text)
        assert cli.main(["eig", str(f)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line_no}: ")


class TestCmdEig:
    def test_golden_prints_quadratic_root(self, capsys):
        assert cli.main(["eig", str(GOLDEN_100)]) == 0
        out = capsys.readouterr().out
        # root of the characteristic quadratic of [[200, 10], [10, 2]]
        assert "eigenvalue 1 = 200.503768772846" in out
        vals = cli.parse_eig_values(out)
        tr, det = 202.0, 300.0
        hi = (tr + math.sqrt(tr * tr - 4 * det)) / 2.0
        assert vals[0] == pytest.approx(hi, rel=1e-14)

    def test_m0_identity(self, capsys, tmp_path):
        f = tmp_path / "diag.txt"
        f.write_text("lambdas = [4.0, 2.0, 1.0]\n")
        assert cli.main(["eig", str(f)]) == 0
        out = capsys.readouterr().out
        assert cli.parse_eig_values(out) == [4.0, 2.0, 1.0]
        assert "eigenvector 1 = [1, 0, 0]" in out

    def test_secular_method_matches_oracle(self, capsys):
        assert cli.main(["eig", str(GOLDEN_1E4), "--method", "secular"]) == 0
        sec = capsys.readouterr().out
        assert cli.main(["eig", str(GOLDEN_1E4), "--method", "oracle"]) == 0
        ora = capsys.readouterr().out
        a = cli.parse_eig_values(sec)
        b = cli.parse_eig_values(ora)
        assert a == pytest.approx(b, rel=1e-12)

    def test_secular_rejects_wrong_m(self, capsys, tmp_path):
        assert cli.main(["eig", str(EXAMPLE_D5), "--method", "secular"]) == 2
        assert "m=2" in capsys.readouterr().err

    def test_malformed_file_diagnostics(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("dim = 2\nlambdas = [1.0, 2.0]\n")
        assert cli.main(["eig", str(f)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "not descending" in err

    def test_round_trip_through_instance_file(self, capsys, tmp_path):
        # eigenvalues of an m=0 file, re-serialized as a new spectrum,
        # reproduce themselves exactly
        f = tmp_path / "m0.txt"
        f.write_text("lambdas = [9.5, 3.25, 1.0]\n")
        assert cli.main(["eig", str(f)]) == 0
        vals = cli.parse_eig_values(capsys.readouterr().out)
        g = tmp_path / "m0_again.txt"
        g.write_text("lambdas = [" + ", ".join(f"{v:.15g}" for v in vals) + "]\n")
        assert cli.main(["eig", str(g)]) == 0
        assert cli.parse_eig_values(capsys.readouterr().out) == vals


class TestCmdBounds:
    @pytest.mark.parametrize("path", sorted(INSTANCES.glob("*.txt")), ids=lambda p: p.stem)
    def test_golden_output(self, capsys, tmp_path, path):
        csv = tmp_path / "bounds.csv"
        assert cli.main(["bounds", str(path), "--csv", str(csv)]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / f"bounds_{path.stem}.txt").read_text()
        assert csv.read_bytes() == (GOLDEN_DIR / f"bounds_{path.stem}.csv").read_bytes()

    def test_golden_passes_and_shows_cm(self, capsys):
        assert cli.main(["bounds", str(GOLDEN_100)]) == 0
        out = capsys.readouterr().out
        assert "C_m=640" in out
        assert "overall: PASS" in out

    def test_m0_vacuous_pass(self, capsys, tmp_path):
        f = tmp_path / "m0.txt"
        f.write_text("lambdas = [2.0, 1.0]\n")
        assert cli.main(["bounds", str(f)]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_observed_always_recomputed(self, capsys):
        # the table carries no user-writable observed column: two runs of the
        # same file recompute identical observations
        assert cli.main(["bounds", str(GOLDEN_1E4)]) == 0
        first = capsys.readouterr().out
        assert cli.main(["bounds", str(GOLDEN_1E4)]) == 0
        assert capsys.readouterr().out == first

    def test_tiny_weight_m1_passes(self, capsys, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("lambdas = [4.0, 2.0, 1.0]\nvector = [1.0, 1e-7, 1.0]\n")
        assert cli.main(["bounds", str(f)]) == 0
        assert capsys.readouterr().out.endswith("overall: PASS\n")

    def test_parse_error_exit(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("lambdas = []\n")
        assert cli.main(["bounds", str(f)]) == 2

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", str(GOLDEN_100), "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.BOUNDS_CSV_HEADER
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {
            "eigenvalue-rankm",
            "eigenvalue-rank1",
            "eigvec-rankm",
            "eigvec-rank1",
            "eigvec-rank1-refined",
        }
        assert all(line.split(",")[-1] == "1" for line in lines[1:])


class TestCmdVerify:
    def test_single_instance_smoke(self, capsys):
        rc = cli.main(["verify", "--d", "2", "--m", "1", "--seeds", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "instances: 5" in out  # 1 d x 1 m x default 5 lambda1 x 1 seed
        assert "PASS" in out

    def test_injected_fault_reports_failures(self, capsys):
        rc = cli.main(
            ["verify", "--d", "2", "--m", "0", "--seeds", "1",
             "--lambda1-list", "100", "--perturb-bound", "0.9"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "failures: 2" in out
        assert "reproduce: eigenpert verify" in out

    def test_seed_list_reproduction(self, capsys):
        rc = cli.main(
            ["verify", "--d", "3", "--m", "2", "--lambda1-list", "1e4",
             "--seed-list", "7"]
        )
        assert rc == 0
        assert "instances: 1" in capsys.readouterr().out

    def test_default_grid_clean(self, capsys):
        rc = cli.main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "instances: 625" in out
        assert "failures: 0" in out
        assert out == (GOLDEN_DIR / "verify_default.txt").read_text()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["verify", "--d", "2", "--m", "-1", "--seeds", "1"], "m must be >= 0"),
            (["verify", "--d", "2", "--m", "0", "--seeds", "-1"], "--seeds must be >= 1"),
            (["verify", "--seeds", "0"], "--seeds must be >= 1"),
            (["scan", "--d", "3", "--m", "-1", "--j", "2", "--lambda1", "1e2:1e6:3"],
             "m must be >= 0"),
        ],
    )
    def test_bad_rank_or_seed_count_exit_2(self, capsys, args, message):
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_non_finite_perturb_bound_exit_2(self, capsys, scale):
        rc = cli.main(["verify", "--d", "2", "--m", "1", "--seeds", "1", "--perturb-bound", scale])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bound scale must be finite, got {scale}\n"


class TestNumericalFailure:
    @pytest.mark.parametrize(
        "args, text, message",
        [
            (["verify", "--d", "3", "--m", "1", "--lambda1-list", "1e100", "--seeds", "1"],
             None, "secular and Jacobi eigenvalues disagree at index 1: 1e+50 vs "),
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [2.0, 1.0]\nvector = [0.7071067811865476, 1e-11]\n",
             "secular root nu=1.0 lies within 1e-14 relative of undeflated pole "
             "lambda[1]=1.0"),
            (["verify", "--d", "2", "--m", "1", "--lambda1-list", "1e308", "--seed-list", "2"],
             None, "seed=2 meta=grid(d=2,m=1,lambda1=1e+308): an eigenvalue overflows"),
            # the top eigenvalue is 5e308, which no double holds
            (["eig", "{f}"], OVERFLOWING_EIGENVALUE, "an eigenvalue overflows"),
            (["bounds", "{f}"], OVERFLOWING_EIGENVALUE, "an eigenvalue overflows"),
        ],
        ids=["oracle-mismatch", "deflation", "overflow-verify", "overflow-eig", "overflow-bounds"],
    )
    @pytest.mark.filterwarnings("error")
    def test_exit_3_with_one_error_line(self, capsys, tmp_path, args, text, message):
        f = tmp_path / "instance.txt"
        if text is not None:
            f.write_text(text)
        assert cli.main([a.format(f=f) for a in args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert "np.float64" not in lines[0]

    def test_missing_lapack_symbol_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(symmat, "DGEJSV_SYMBOL", "nope")
        monkeypatch.setattr(symmat, "_dgejsv", None)
        assert cli.main(["verify", "--d", "2", "--m", "1", "--seeds", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot bind nope from ")
        assert symmat.OPENBLAS_GLOB.split("*")[0] in lines[0]

    def test_overflowing_diagonal_still_passes(self, capsys):
        # with m = 0 the matrix is diagonal: nothing to rotate, nothing to refuse
        argv = ["verify", "--d", "3", "--m", "0", "--lambda1-list", "1e300", "--seeds", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    def test_overflowing_norm_is_solved(self, capsys, tmp_path):
        # ||A||_F overflows at lambda_1 = 1e300, but the oracle never forms A
        argv = ["verify", "--d", "3", "--m", "2", "--lambda1-list", "1e300", "--seeds", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"
        f = tmp_path / "graded.txt"
        f.write_text(
            "lambdas = [1e300, 1e150, 1.0]\nvector = [1.0, 1.0, 0.5]\n"
            "vector = [0.5, -1.0, 0.1]\n"
        )
        assert cli.main(["eig", str(f)]) == 0
        # a 400-digit mpmath eigensolve gives 1.0988461538461538...
        assert "eigenvalue 3 = 1.09884615384615\n" in capsys.readouterr().out


class TestCmdScan:
    def test_csv_schema_and_slope(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(
            ["scan", "--d", "2", "--m", "1", "--j", "2",
             "--lambda1", "1e2:1e8:7", "--seed", "42", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 9  # header + 7 rows + slope footer
        assert lines[-1].startswith("# slope: -0.5")
        row = lines[1].split(",")
        assert len(row) == 9
        assert row[0] == "2" and row[1] == "1" and row[2] == "2"

    def test_j_last_alias(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(
            ["scan", "--d", "5", "--m", "2", "--j", "last",
             "--lambda1", "1e2:1e6:5", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().splitlines()[1].split(",")[2] == "5"

    def test_insufficient_points_footer(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(
            ["scan", "--d", "2", "--m", "1", "--j", "2",
             "--lambda1", "1e2:1e8:2", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0  # data still valid
        lines = out.read_text().splitlines()
        assert lines[-1] == "# slope: insufficient points"
        assert len(lines) == 4

    def test_m0_slope_guard(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(
            ["scan", "--d", "3", "--m", "0", "--j", "2",
             "--lambda1", "1e2:1e6:5", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().splitlines()[-1].startswith("# slope: skipped (m=0")

    def test_multi_seed_envelope(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(
            ["scan", "--d", "2", "--m", "1", "--j", "2",
             "--lambda1", "1e2:1e8:7", "--seed", "1", "2", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 16  # header + 2 x 7 rows + footer
        seeds = {line.split(",")[-1] for line in lines[1:-1]}
        assert seeds == {"1", "2"}

    def test_deterministic_output(self, tmp_path):
        args = ["scan", "--d", "3", "--m", "2", "--j", "3",
                "--lambda1", "1e2:1e6:5", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, capsys):
        rc = cli.main(
            ["scan", "--d", "2", "--m", "1", "--j", "2",
             "--lambda1", "1e2:1e4:3", "--seed", "0",
             "--out", "/nonexistent-dir/scan.csv"]
        )
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bad_grid_spec(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["scan", "--d", "2", "--m", "1", "--j", "2",
                      "--lambda1", "nope", "--seed", "0"])

    def test_bad_j_values(self, capsys):
        rc = cli.main(["scan", "--d", "3", "--m", "1", "--j", "7",
                       "--lambda1", "1e2:1e4:3", "--seed", "0"])
        assert rc == 2
        assert "j must lie" in capsys.readouterr().err
        rc = cli.main(["scan", "--d", "3", "--m", "1", "--j", "second",
                       "--lambda1", "1e2:1e4:3", "--seed", "0"])
        assert rc == 2

    def test_unfittable_observed_footer(self, monkeypatch, tmp_path):
        # an oracle that returns an exact-zero coordinate (as a Jacobi loop
        # with an absolute stopping test did from lambda_1 = 1e52 on) leaves
        # nothing to fit on a log scale
        oracle = harness._oracle

        def zero_tail(inst):
            eig = oracle(inst)
            if inst.spectrum.lambdas[0] < 1e52:
                return eig
            basis = eig.basis.copy()
            basis[1, 0] = 0.0
            return EigenDecomposition(eig.values, basis)

        monkeypatch.setattr(harness, "_oracle", zero_tail)
        out = tmp_path / "scan.csv"
        rc = cli.main(
            ["scan", "--d", "3", "--m", "1", "--j", "2",
             "--lambda1", "1e2:1e60:5", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert lines[-2].split(",")[5] == "0"
        assert lines[-1] == "# slope: not fittable (non-positive observed value)"

    def test_tiny_coordinates_at_large_lambda1(self, capsys):
        # |[e_1]_2| keeps its relative accuracy however large lambda_1 grows
        rc = cli.main(["scan", "--d", "3", "--m", "1", "--j", "2", "--lambda1", "1e2:1e60:5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("# slope: -0.50")
        at_1e52 = harness.scan(3, 1, 2, [1e52], seed=0)[0].observed
        at_1e60 = float(lines[-2].split(",")[5])
        for lambda1, observed, approx in ((1e52, at_1e52, 2.82e-14), (1e60, at_1e60, 2.82e-16)):
            inst = harness.gen_instance(3, 1, lambda1, 0)
            _, basis = mp_eigensolve(inst.spectrum.lambdas, inst.perts.vectors, 100)
            assert abs(observed - basis[1, 0]) <= 1e-13 * basis[1, 0]
            assert observed == pytest.approx(approx, rel=1e-3)

    def test_verify_bad_lambda1(self, capsys):
        rc = cli.main(["verify", "--d", "2", "--m", "0", "--seeds", "1",
                       "--lambda1-list", "0.5"])
        assert rc == 2
        assert "lambda1" in capsys.readouterr().err
