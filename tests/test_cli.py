import ast
import contextlib
import ctypes
import io
import math
import os
import shlex
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigenpert import bounds, cli, harness, symmat
from eigenpert.symmat import EigenDecomposition
from conftest import mp_eigensolve, shifted_dlaed9

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_100 = INSTANCES / "golden_d2_lambda100.txt"
GOLDEN_1E4 = INSTANCES / "golden_d2_lambda1e4.txt"
EXAMPLE_D5 = INSTANCES / "example_d5_m2.txt"
OVERFLOWING_EIGENVALUE = "lambdas = [1e308, 1.0]\nvector = [2.0, 0.0]\n"
OVERFLOWING_FACTOR = "lambdas = [1e300, 1.0]\nvector = [1e200, 1.0]\n"


def eig_values(out):
    """The eigenvalues printed by `eigenpert eig`."""
    lines = out.splitlines()
    return [float(line.split("=", 1)[1]) for line in lines if line.startswith("eigenvalue ")]


def bounds_nus(out):
    """The nu_i column of the eigenvalue table printed by `eigenpert bounds`."""
    lines = out.splitlines()
    rows = lines[lines.index("eigenvalues:") + 2 : lines.index("eigenvector coordinates:")]
    return [float(row.split()[1]) for row in rows]


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
            ("dim = 2\nlambdas = [2.0, 1.0]\ndim = 2\n", 3, "dim is already set on line 1"),
            ("seed = 1\nlambdas = [2.0, 1.0]\n\nseed = 1\n", 4, "seed is already set on line 1"),
            ('lambdas = [1.0]\nrecipe = "a"\nrecipe = "b"\n', 3, "recipe is already set on line 2"),
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
        vals = eig_values(out)
        tr, det = 202.0, 300.0
        hi = (tr + math.sqrt(tr * tr - 4 * det)) / 2.0
        assert vals[0] == pytest.approx(hi, rel=1e-14)

    def test_m0_identity(self, capsys, tmp_path):
        f = tmp_path / "diag.txt"
        f.write_text("lambdas = [4.0, 2.0, 1.0]\n")
        assert cli.main(["eig", str(f)]) == 0
        out = capsys.readouterr().out
        assert eig_values(out) == [4.0, 2.0, 1.0]
        assert "eigenvector 1 = [1, 0, 0]" in out

    def test_secular_method_matches_oracle(self, capsys):
        assert cli.main(["eig", str(GOLDEN_1E4), "--method", "secular"]) == 0
        sec = capsys.readouterr().out
        assert cli.main(["eig", str(GOLDEN_1E4), "--method", "oracle"]) == 0
        ora = capsys.readouterr().out
        a = eig_values(sec)
        b = eig_values(ora)
        assert a == pytest.approx(b, rel=1e-12)

    def test_methods_print_the_same_unsigned_zero(self, capsys, tmp_path):
        # the collision rotation of lambda_2 = lambda_3 leaves -0.0 in the
        # secular eigenvector, where the oracle has +0.0; both print 0
        f = tmp_path / "collision.txt"
        f.write_text("lambdas = [4.0, 2.0, 2.0]\nvector = [1.0, 0.0, 1.0]\n")
        outs = []
        for method in ("secular", "oracle"):
            assert cli.main(["eig", str(f), "--method", method]) == 0
            out = capsys.readouterr().out
            outs.append([line for line in out.splitlines() if line.startswith("eigenvector ")])
        assert outs[0] == outs[1]
        assert outs[0][0] == "eigenvector 1 = [0.888073833977115, 0, 0.459700843380983]"

    def test_fmt_drops_the_sign_of_zero(self):
        assert [cli._fmt(x) for x in (-0.0, np.float64(-0.0), 0.0, -1e-300, -2.5)] == [
            "0", "0", "0", "-1e-300", "-2.5"]

    @pytest.mark.filterwarnings("error")
    def test_secular_subnormal_spectrum(self, capsys, tmp_path):
        # lambda_3 = 1e-310 is subnormal: the secular problem is solved
        # scaled, and its eigenpairs match a 700-digit mpmath eigensolve
        f = tmp_path / "tiny.txt"
        f.write_text("lambdas = [1e-300, 1e-305, 1e-310]\nvector = [1.0, 1.0, 1.0]\n")
        assert cli.main(["eig", str(f), "--method", "secular"]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = np.array(eig_values("\n".join(lines)))
        basis = np.array([
            [float(x) for x in line.split("= [", 1)[1].rstrip("]").split(", ")]
            for line in lines if line.startswith("eigenvector ")
        ]).T
        ref_values, ref_basis = mp_eigensolve([1e-300, 1e-305, 1e-310], [[1.0, 1.0, 1.0]], 700)
        assert np.all(np.abs(values - ref_values) <= 1e-13 * ref_values)
        assert np.all(np.abs(np.abs(basis) - ref_basis) <= 1e-12 * ref_basis)

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
        vals = eig_values(capsys.readouterr().out)
        g = tmp_path / "m0_again.txt"
        g.write_text("lambdas = [" + ", ".join(f"{v:.15g}" for v in vals) + "]\n")
        assert cli.main(["eig", str(g)]) == 0
        assert eig_values(capsys.readouterr().out) == vals


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

    def test_cm_constant_once(self, capsys, monkeypatch):
        # the header's V, v_inf and C_m are the BoundParams certify built
        calls = []
        cm_constant = bounds.cm_constant
        monkeypatch.setattr(bounds, "cm_constant", lambda p: calls.append(p) or cm_constant(p))
        assert cli.main(["bounds", str(EXAMPLE_D5)]) == 0
        assert len(calls) == 1

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

    @pytest.mark.filterwarnings("error")
    def test_extreme_ratio_passes_without_warning(self, capsys, tmp_path):
        # lambda_1 / lambda_2 = 1e600 overflows only in the pivot-index
        # columns j < i, which the feasibility mask drops
        f = tmp_path / "graded.txt"
        f.write_text("lambdas = [1e300, 1e-300]\nvector = [1.0, 1.0]\n")
        assert cli.main(["bounds", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "  2  1.5e-300  1e-300  3e-300  2e-300  ok\n" in captured.out
        assert captured.out.endswith("overall: PASS\n")

    def test_underflowing_ratio_bounds_every_coordinate(self, capsys, tmp_path):
        # lambda_2 / lambda_1 = 1e-600 underflows to 0; the coordinate bounds
        # (multiples of alpha = 1e-300) must still lie above the observed
        # 5e-301, not at 0
        f = tmp_path / "graded.txt"
        f.write_text("lambdas = [1e300, 1e-300]\nvector = [1.0, 1.0]\n")
        assert cli.main(["bounds", str(f)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = lines[lines.index("eigenvector coordinates:") + 2 : -2]
        assert len(rows) == 4
        for row in rows:
            _, _, observed, *cells, verdict = row.split()
            assert verdict == "ok"
            assert len(cells) == 3 and all(float(c) >= float(observed) for c in cells), row
        assert "  1  2  5e-301  2e-299  9.65685424949238e-300  6.4e-298  ok" in rows

    def test_eigenvalue_below_its_tiny_interval_fails(self, capsys, tmp_path):
        # the oracle's nu_3 = 5.0e-321 lies below lambda_3 = 1e-320 (the true
        # value is 5.0e-161): a slack of -5e-321 is no longer forgiven
        f = tmp_path / "graded.txt"
        f.write_text("lambdas = [1.0, 1e-160, 1e-320]\nvector = [1.0, 1e80, 1e160]\n")
        assert cli.main(["bounds", str(f)]) == 1
        out = capsys.readouterr().out
        assert "  3  4.99994433591342e-321  9.99988867182683e-321  inf  inf  FAIL\n" in out
        assert out.count("FAIL") == 2 and out.endswith("overall: FAIL\n")

    @pytest.mark.parametrize(
        "lambdas, vector",
        [([1.0] * 4, [-2.161505718645157e16, -2.161505718645157e16, 2.22775110140504e16, 0.0]),
         ([0.4210621756553089] * 3,
          [3.780620067088606e16, 0.4210621756553089, 3.780620067088606e16])],
        ids=["flat-d4", "flat-d3"],
    )
    def test_wrong_oracle_eigenvalue_never_passes(self, capsys, tmp_path, lambdas, vector):
        # [I | v] is ill-conditioned, and the oracle puts a low eigenvalue
        # well off lambda (0.33 and 0.21 where it is 1 and 0.42): bounds
        # refuses the file, or every nu it prints is right
        f = tmp_path / "flat.txt"
        f.write_text(f"lambdas = {lambdas!r}\nvector = {vector!r}\n")
        code = cli.main(["bounds", str(f)])
        captured = capsys.readouterr()
        if code == 3:
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            return
        # a flat spectrum lambda keeps lambda d - 1 times and adds lambda ||v||^2 to one
        lam = lambdas[0]
        exact = [lam * (1.0 + math.fsum(x * x for x in vector))] + [lam] * (len(lambdas) - 1)
        assert code in (0, 1)
        assert bounds_nus(captured.out) == pytest.approx(exact, rel=1e-9, abs=0.0)

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
        # the printed command reproduces the failure, scale included
        (line,) = [x for x in out.splitlines() if x.startswith("reproduce: eigenpert verify ")]
        assert line.endswith(" --perturb-bound 0.9")
        assert cli.main(line.split()[2:]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seed_list_reproduction(self, capsys):
        rc = cli.main(
            ["verify", "--d", "3", "--m", "2", "--lambda1-list", "1e4",
             "--seed-list", "7"]
        )
        assert rc == 0
        assert "instances: 1" in capsys.readouterr().out

    def test_seeds_and_seed_list_are_exclusive(self, capsys):
        # argparse refuses the pair instead of certifying the --seed-list seeds alone
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--d", "2", "--m", "1", "--seeds", "3", "--seed-list", "1",
                      "--lambda1-list", "1e2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: eigenpert verify ")
        assert captured.err.splitlines()[-1] == (
            "eigenpert verify: error: argument --seed-list: not allowed with argument --seeds"
        )

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
             None, "secular and Jacobi eigenvalues disagree at index 2: 1e+50 vs "),
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [2.0, 1.0]\nvector = [0.7071067811865476, 1e-11]\n",
             "secular root nu=1.0 lies within 1e-14 relative of undeflated pole "
             "lambda[2]=1.0"),
            (["verify", "--d", "2", "--m", "1", "--lambda1-list", "1e308", "--seed-list", "2"],
             None, "seed=2 meta=grid(d=2,m=1,lambda1=1e+308): an eigenvalue overflows"),
            # the top eigenvalue is 5e308, which no double holds
            (["eig", "{f}"], OVERFLOWING_EIGENVALUE, "an eigenvalue overflows"),
            (["bounds", "{f}"], OVERFLOWING_EIGENVALUE, "an eigenvalue overflows"),
            # ||z||^2 overflows, which would deflate every coordinate
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [3.0, 2.0]\nvector = [1e200, 1e200]\n", "an eigenvalue overflows"),
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [3.0, 2.0]\nvector = [1e155, 1e155]\n", "an eigenvalue overflows"),
            # the BNS components are about 1e160, so their norm overflows
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [1e-320, 1e-321]\nvector = [1.0, 1.0]\n", "has a norm that overflows"),
            # three active roots: the component of the root near 5e-161 at the
            # pole 1e-320 is about 1e160
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [1.0, 1e-160, 1e-320]\nvector = [1.0, 1e80, 1e160]\n",
             "above lambda[3]=1e-320 has a norm that overflows"),
            # ||z||^2 = 1e-506 rounds to zero: no weight is left to solve for
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [1e-54, 1e-54]\nvector = [1e-226, 1e-228]\n",
             "the update underflows: ||z||^2 is below the double range"),
            # lambda_1 = 1e250: the z-deflation leaves wrong eigenvalues, which
            # only the cross-check sees (at d = 20 two roots stay active, at
            # d = 50 five, solved scaled by dlaed9)
            (["verify", "--d", "20", "--m", "1", "--lambda1-list", "1e250", "--seeds", "1"],
             None, "secular and Jacobi eigenvalues disagree at index 3: "),
            (["verify", "--d", "50", "--m", "1", "--lambda1-list", "1e250", "--seeds", "1"],
             None, "secular and Jacobi eigenvalues disagree at index 6: "),
            # z = (1, 1, 1) over poles 1e300, 1e140, 1e-20: dlaed4 solves the
            # lowest root and fails on the next one
            (["eig", "{f}", "--method", "secular"],
             "lambdas = [1e300, 1e140, 1e-20]\nvector = [1e-150, 1e-70, 1e10]\n",
             "LAPACK dlaed9 failed on the secular root above lambda[2]=1e+140: info = 1, nu = nan"),
            # sqrt(lambda) v = 1e350 lies past the double range, in F and in z
            (["eig", "{f}"], OVERFLOWING_FACTOR, "the factor has a non-finite entry"),
            (["bounds", "{f}"], OVERFLOWING_FACTOR, "the factor has a non-finite entry"),
            (["eig", "{f}", "--method", "secular"], OVERFLOWING_FACTOR,
             "an eigenvalue overflows: z = sqrt(lambda) v exceeds the double range"),
        ],
        ids=["oracle-mismatch", "deflation", "overflow-verify", "overflow-eig", "overflow-bounds",
             "secular-znorm-1e200", "secular-znorm-1e155", "secular-subnormal", "secular-norm-d3",
             "secular-znorm-underflow", "secular-d20-1e250", "secular-d50-1e250", "dlaed9-info",
             "factor-overflow-eig", "factor-overflow-bounds", "factor-overflow-secular"],
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

    def test_missing_dlaed9_symbol_exit_3(self, capsys, monkeypatch, tmp_path):
        # three active roots: the secular path calls dlaed9 (one or two use closed forms)
        monkeypatch.setattr(symmat, "DLAED9_SYMBOL", "nope")
        monkeypatch.setattr(symmat, "_dlaed9", None)
        f = tmp_path / "instance.txt"
        f.write_text("lambdas = [3.0, 2.0, 1.0]\nvector = [1.0, 1.0, 1.0]\n")
        assert cli.main(["eig", str(f), "--method", "secular"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot bind nope from ")
        assert symmat.OPENBLAS_GLOB.split("*")[0] in lines[0]

    @pytest.mark.parametrize(
        "args", [["bounds"], ["eig", "--method", "secular"]], ids=["bounds", "eig-secular"]
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_vector_norm_is_vacuous(self, capsys, tmp_path, args):
        # ||v||_inf^2 = 1e400 lies past the double range, while A does not:
        # the bounds it enters are +inf or capped at 1, without a warning
        f = tmp_path / "instance.txt"
        f.write_text("lambdas = [1.0, 1e-300]\nvector = [1.0, 1e200]\n")
        assert cli.main([args[0], str(f), *args[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if args[0] == "bounds":
            assert "  1  1e+100  1  inf  inf  ok\n" in captured.out
            assert captured.out.endswith("overall: PASS\n")
        else:
            assert eig_values(captured.out) == [1e100, 1.0]

    @pytest.mark.parametrize(
        "text",
        [
            "lambdas = [1e300, 1e-300]\nvector = [1.0, 1.0]\nvector = [1.0, -1.0]\n"
            "vector = [0.5, 1.0]\nvector = [1.0, 0.5]\n",
            "lambdas = [1e300, 1e-300]\nvector = [1e-100, 1e100]\n",
        ],
        ids=["saturated-cm", "overflowing-v4"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowed_constant_caps_at_one(self, capsys, tmp_path, text):
        # alpha(1e300, 1e-300) underflows to 0, and the constant it multiplies
        # (C_m, 5 d^2 V^4 or w psi_inf(w)) overflowed to inf: the bound is the
        # vacuous 1, where inf * 0 would give nan and a failed entry
        f = tmp_path / "instance.txt"
        f.write_text(text)
        assert cli.main(["bounds", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = captured.out.split("eigenvector coordinates:\n")[1].splitlines()[1:5]
        for row in rows:
            cells = row.split()
            assert set(cells[3:6]) <= {"1", "-"} and cells[6] == "ok", row
        assert captured.out.endswith("overall: PASS\n")

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "lambdas = [1e200, 1.0]\nvector = [1e-90, 1e90]\n",
                "instance: d=2 m=1 V=1e+90 v_inf=1e+90 C_m=inf\n"
                "eigenvalues:\n"
                "  i  nu_i  interval_lo  interval_hi  bound_rank1  pass\n"
                "  1  1e+200  1e+200  inf  inf  ok\n"
                "  2  1e+180  1  2e+180  1e+180  ok\n"
                "eigenvector coordinates:\n"
                "  i  j  observed  bound_rank1  bound_refined  bound_rankm  pass\n"
                "  1  1  1  1  1  1  ok\n"
                "  1  2  1e-100  1  1  1  ok\n"
                "  2  1  0  1  1  1  ok\n"
                "  2  2  1  1  1  1  ok\n"
                "note (eigenvalue-rank1): refinement wins at i=2: 1e+180 < 2e+180\n"
                "note (eigvec-rankm): C_m saturated: bound is vacuous (capped at 1)\n"
                "overall: PASS\n",
            ),
            (
                "lambdas = [1.0, 1e-300]\nvector = [1.0, 1e150]\n",
                "instance: d=2 m=1 V=1e+150 v_inf=1e+150 C_m=inf\n"
                "eigenvalues:\n"
                "  i  nu_i  interval_lo  interval_hi  bound_rank1  pass\n"
                "  1  2.6180339887499  1  2e+300  2e+300  ok\n"
                "  2  0.381966011250105  1e-300  2  1  ok\n"
                "eigenvector coordinates:\n"
                "  i  j  observed  bound_rank1  bound_refined  bound_rankm  pass\n"
                "  1  1  0.85065080835204  1  1  1  ok\n"
                "  1  2  0.525731112119134  1  1  1  ok\n"
                "  2  1  0.525731112119134  1  1  1  ok\n"
                "  2  2  0.85065080835204  1  1  1  ok\n"
                "note (eigenvalue-rank1): refinement wins at i=2: 1 < 2\n"
                "note (eigvec-rankm): C_m saturated: bound is vacuous (capped at 1)\n"
                "overall: PASS\n",
            ),
        ],
        ids=["interval-overflow", "psi-inf-overflow"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_intermediates_pass_silently(self, capsys, tmp_path, text, expected):
        # lambda_1 (1 + d V^2), (1 + d V^2) lambda_j and w^2 overflow to inf in
        # entries that pass; the output is the same, without a numpy warning
        f = tmp_path / "instance.txt"
        f.write_text(text)
        assert cli.main(["bounds", str(f)]) == 0
        assert capsys.readouterr() == (expected, "")
        assert cli.main(["eig", str(f), "--method", "secular"]) == 0
        assert capsys.readouterr().err == ""

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

    def test_one_point_grid(self, capsys):
        # COUNT = 1 scans FROM alone: one row, and too few points for a slope
        rc = cli.main(["scan", "--d", "3", "--m", "1", "--j", "2", "--lambda1", "1e2:1e2:1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            cli.CSV_HEADER, "3,1,2,100,10,0.0939057741501395,1,1,0", "# slope: insufficient points"]

    def test_grid_below_1_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--d", "3", "--m", "1", "--j", "2", "--lambda1", "0.5:10:3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "eigenpert scan: error: argument --lambda1: invalid grid '0.5:10:3'")

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1e2:inf:3", "grid TO must be finite, got inf in '1e2:inf:3'"),
            ("1e2:1e400:3", "grid TO must be finite, got inf in '1e2:1e400:3'"),
            ("nan:1e4:3", "grid FROM must be finite, got nan in 'nan:1e4:3'"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_grid_end_exit_2(self, capsys, grid, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--d", "3", "--m", "1", "--j", "2", "--lambda1", grid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(f"argument --lambda1: {message}")

    @pytest.mark.parametrize("grid", ["1e2:1e8:2.5", "a:1e8:3", "1e2:1e8:x"])
    def test_non_numeric_grid_part_exit_2(self, capsys, grid):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--d", "3", "--m", "1", "--j", "2", "--lambda1", grid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"eigenpert scan: error: argument --lambda1: "
            f"expected FROM:TO:COUNT (log-spaced), got '{grid}'"
        )

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


SECULAR_ZNORM_OVERFLOW = "lambdas = [3.0, 2.0]\nvector = [1e200, 1e200]\n"

# Every rejection `cli.main` makes, one case per site (every `raise` of the
# instance parser among them, which TestRejectionContract checks): argv and instance text
# ({f} is the instance file, {lib} numpy's OpenBLAS and {dlerror} the loader's
# message for the missing symbol), the symmat attributes
# patched first, the exit code, and the exact stderr (stdout stays empty).
REJECTIONS = {
    "eig-missing-file": (
        ["eig", "/nonexistent/instance.txt"], None, None, 2,
        "error: [Errno 2] No such file or directory: '/nonexistent/instance.txt'\n"),
    "eig-parse": (
        ["eig", "{f}"], "dim = 2\nlambdas = [1.0, 2.0]\n", None, 2,
        "error: line 2: lambdas[1] = 1.0 < lambdas[2] = 2.0: not descending\n"),
    "eig-no-equals": (
        ["eig", "{f}"], "lambdas [2.0, 1.0]\n", None, 2,
        "error: line 1: expected 'key = value', got 'lambdas [2.0, 1.0]'\n"),
    "eig-unparsable-value": (
        ["eig", "{f}"], "dim = 2 +\nlambdas = [2.0, 1.0]\n", None, 2,
        "error: line 1: cannot parse value '2 +': invalid syntax (<unknown>, line 1)\n"),
    "eig-non-numeric-entry": (
        ["eig", "{f}"], 'lambdas = [2.0, "x"]\n', None, 2,
        "error: line 1: lambdas has a non-numeric entry: could not convert string to float: 'x'\n"),
    "eig-bool-entry": (
        ["eig", "{f}"], "lambdas = [2.0, True]\n", None, 2,
        "error: line 1: lambdas entry True is not a finite number\n"),
    "eig-dim-0": (
        ["eig", "{f}"], "dim = 0\nlambdas = [2.0, 1.0]\n", None, 2,
        "error: line 1: dim must be a positive integer, got 0\n"),
    "eig-vectors-not-array": (
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nvectors = 3\n", None, 2,
        "error: line 2: vectors must be an array of arrays\n"),
    "eig-vectors-row-not-array": (
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nvectors = [[1.0, 1.0], 3]\n", None, 2,
        "error: line 2: vectors[2] is not an array\n"),
    "eig-vectors-row-non-numeric": (  # the row's 1-based index, as in every message
        ["eig", "{f}"], 'lambdas = [2.0, 1.0]\nvectors = [[1.0, 1.0], [1.0, "x"]]\n', None, 2,
        "error: line 2: vectors[2] has a non-numeric entry: "
        "could not convert string to float: 'x'\n"),
    "eig-vector-not-array": (
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nvector = 3\n", None, 2,
        "error: line 2: vector must be an array\n"),
    "eig-seed-not-integer": (
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nseed = 1.5\n", None, 2,
        "error: line 2: seed must be an integer, got 1.5\n"),
    "eig-unknown-key": (
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nlambda = [2.0, 1.0]\n", None, 2,
        "error: line 2: unknown key 'lambda'\n"),
    "eig-missing-lambdas": (
        ["eig", "{f}"], "dim = 2\n", None, 2, "error: line 0: missing required key 'lambdas'\n"),
    "eig-lambdas-vs-dim": (
        ["eig", "{f}"], "dim = 3\nlambdas = [2.0, 1.0]\n", None, 2,
        "error: line 2: lambdas has 2 entries but dim = 3\n"),
    "eig-not-positive": (  # the first entry that is not positive, not the smallest
        ["eig", "{f}"], "lambdas = [1.0, 0.0, -1.0]\n", None, 2,
        "error: line 1: lambdas[2] = 0.0 is not positive\n"),
    "eig-vector-length": (  # the second vector, on line 3
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nvector = [1.0, 1.0]\nvector = [1.0]\n", None, 2,
        "error: line 3: vector 2 has 1 entries, expected 2\n"),
    "eig-secular-m2": (
        ["eig", "{f}", "--method", "secular"],
        "lambdas = [2.0, 1.0]\nvector = [1.0, 1.0]\nvector = [0.5, 1.0]\n", None, 2,
        "error: --method secular requires exactly one perturbation vector, instance has m=2\n"),
    "bounds-missing-file": (
        ["bounds", "/nonexistent/instance.txt"], None, None, 2,
        "error: [Errno 2] No such file or directory: '/nonexistent/instance.txt'\n"),
    "bounds-parse": (
        ["bounds", "{f}"], "lambdas = []\n", None, 2,
        "error: line 1: lambdas must be a non-empty array\n"),
    "bounds-repeated-key": (
        ["bounds", "{f}"], "lambdas = [3.0, 1.0]\nvector = [1.0, 1.0]\nlambdas = [5.0, 1.0]\n",
        None, 2, "error: line 3: lambdas is already set on line 1\n"),
    "bounds-int-past-double-range": (
        ["bounds", "{f}"], "lambdas = [1" + "0" * 400 + ", 1.0]\nvector = [1.0, 1.0]\n", None, 2,
        "error: line 1: lambdas has an entry past the double range: "
        "int too large to convert to float\n"),
    "eig-int-past-double-range": (
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nvector = [1.0, 1" + "0" * 400 + "]\n", None, 2,
        "error: line 2: vector has an entry past the double range: "
        "int too large to convert to float\n"),
    "eig-dim-too-long": (
        ["eig", "{f}"], "dim = 0x" + "f" * 4000 + "\nlambdas = [2.0, 1.0]\n", None, 2,
        "error: line 1: dim holds an integer of more than 4300 digits\n"),
    "eig-seed-too-long": (
        ["eig", "{f}"], "seed = 0x" + "f" * 4000 + "\n" + OVERFLOWING_EIGENVALUE, None, 2,
        "error: line 1: seed holds an integer of more than 4300 digits\n"),
    "eig-recipe-too-long": (
        ["eig", "{f}"], "lambdas = [2.0, 1.0]\nrecipe = 0x" + "f" * 4000 + "\n", None, 2,
        "error: line 2: recipe holds an integer of more than 4300 digits\n"),
    "bounds-csv-unwritable": (
        ["bounds", "{f}", "--csv", "/nonexistent/x.csv"],
        "lambdas = [100.0, 1.0]\nvector = [1.0, 1.0]\n", None, 2,
        "error: cannot write /nonexistent/x.csv: "
        "[Errno 2] No such file or directory: '/nonexistent/x.csv'\n"),
    "verify-seeds-0": (
        ["verify", "--seeds", "0"], None, None, 2, "error: --seeds must be >= 1, got 0\n"),
    "verify-m-negative": (
        ["verify", "--d", "2", "--m", "-1", "--seeds", "1"], None, None, 2,
        "error: m must be >= 0, got -1\n"),
    "verify-d-1": (
        ["verify", "--d", "1", "--m", "1", "--seeds", "1"], None, None, 2,
        "error: d must be >= 2 (the ratio grid is undefined at d=1)\n"),
    "verify-lambda1-below-1": (
        ["verify", "--d", "2", "--m", "0", "--seeds", "1", "--lambda1-list", "0.5"], None, None, 2,
        "error: lambda1 must be >= 1, got 0.5\n"),
    "verify-lambda1-inf": (
        ["verify", "--d", "2", "--m", "1", "--seeds", "1", "--lambda1-list", "inf"], None, None, 2,
        "error: spectrum entries must be finite\n"),
    "verify-lambda1-nan": (
        ["verify", "--d", "2", "--m", "1", "--seeds", "1", "--lambda1-list", "nan"], None, None, 2,
        "error: spectrum entries must be finite\n"),
    "verify-perturb-bound-inf": (
        ["verify", "--d", "2", "--m", "1", "--seeds", "1", "--perturb-bound", "inf"], None, None,
        2, "error: bound scale must be finite, got inf\n"),
    "scan-j-word": (
        ["scan", "--d", "3", "--m", "1", "--j", "second", "--lambda1", "1e2:1e4:3"], None, None,
        2, "error: --j must be an integer or 'last', got 'second'\n"),
    "scan-j-out-of-range": (
        ["scan", "--d", "3", "--m", "1", "--j", "7", "--lambda1", "1e2:1e4:3"], None, None, 2,
        "error: j must lie in 2..d=3, got 7\n"),
    "scan-m-negative": (
        ["scan", "--d", "3", "--m", "-1", "--j", "2", "--lambda1", "1e2:1e6:3"], None, None, 2,
        "error: m must be >= 0, got -1\n"),
    "scan-d-1": (
        ["scan", "--d", "1", "--m", "1", "--j", "last", "--lambda1", "1:10:3"], None, None, 2,
        "error: d must be >= 2 (the ratio grid is undefined at d=1)\n"),
    "scan-flat-grid": (
        ["scan", "--d", "3", "--m", "1", "--j", "2", "--lambda1", "1e2:1e2:3"], None, None, 2,
        "error: lambda1 grid must be strictly ascending\n"),
    "scan-out-unwritable": (
        ["scan", "--d", "2", "--m", "1", "--j", "2", "--lambda1", "1e2:1e4:3",
         "--out", "/nonexistent/scan.csv"], None, None, 2,
        "error: cannot write /nonexistent/scan.csv: "
        "[Errno 2] No such file or directory: '/nonexistent/scan.csv'\n"),
    "oracle-overflow": (
        ["eig", "{f}"], OVERFLOWING_EIGENVALUE, None, 3,
        "error: numerical failure: oracle failed on instance seed=0 meta=file:{f}: "
        "an eigenvalue overflows: singular value 2.2360679774997897e+154 squared\n"),
    "secular-overflow": (
        ["eig", "{f}", "--method", "secular"], SECULAR_ZNORM_OVERFLOW, None, 3,
        "error: numerical failure: an eigenvalue overflows: ||z||^2 exceeds the double range\n"),
    "oracle-mismatch": (
        ["verify", "--d", "3", "--m", "1", "--lambda1-list", "1e100", "--seeds", "1"], None, None,
        3, "error: numerical failure: secular and Jacobi eigenvalues disagree at index 2: "
        "1e+50 vs 1.1523583053740006e+50 (instance seed=0, meta=grid(d=3,m=1,lambda1=1e+100))\n"),
    "deflation": (
        ["eig", "{f}", "--method", "secular"],
        "lambdas = [2.0, 1.0]\nvector = [0.7071067811865476, 1e-11]\n", None, 3,
        "error: numerical failure: secular root nu=1.0 lies within 1e-14 relative of "
        "undeflated pole lambda[2]=1.0; deflation thresholds are misconfigured\n"),
    "secular-root-outside-interval": (
        ["eig", "{f}", "--method", "secular"],
        "lambdas = [3.0, 2.0, 1.0]\nvector = [1.0, 1.0, 1.0]\n", {"_dlaed9": shifted_dlaed9}, 3,
        "error: numerical failure: secular root 3 violates interlacing: nu=0.5 lambda=1.0\n"),
    "lapack-binding": (
        ["verify", "--d", "2", "--m", "1", "--seeds", "1"], None,
        {"DGEJSV_SYMBOL": "nope", "_dgejsv": None}, 3,
        "error: cannot bind nope from {lib}: {dlerror}\n"),
}


@st.composite
def instance_files(draw):
    """A valid instance file and its m: d <= 6, m <= 3, lambda from 5e-324 to
    1e308 with ties, v over the double range with zeros."""
    d = draw(st.integers(1, 6))
    pool = draw(st.lists(st.floats(5e-324, 1e308), min_size=1, max_size=d))
    lambdas = sorted(draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d)), reverse=True)
    entry = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=3))
    text = f"lambdas = {lambdas!r}\n" + "".join(f"vector = {v!r}\n" for v in vectors)
    return text, len(vectors)


def _run_rejection(monkeypatch, f, case) -> int:
    """`cli.main` on REJECTIONS[case], its instance text written to the
    path f and its symmat attributes patched; the exit code."""
    args, text, patch, _, _ = REJECTIONS[case]
    if text is not None:
        f.write_text(text)
    for name, value in (patch or {}).items():
        monkeypatch.setattr(symmat, name, value)
    return cli.main([a.format(f=f) for a in args])


def _missing_symbol_fields() -> dict:
    """{lib} and {dlerror} for the symbol `nope` of numpy's OpenBLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    lib = str(sorted(libdir.glob(symmat.OPENBLAS_GLOB))[0])
    try:
        ctypes.CDLL(lib).nope
    except AttributeError as exc:
        return {"lib": lib, "dlerror": str(exc)}
    raise AssertionError(f"{lib} exports nope")


class TestRejectionContract:
    @pytest.mark.parametrize("case", REJECTIONS)
    @pytest.mark.filterwarnings("error")
    def test_rejection_bytes_pinned(self, capsys, monkeypatch, tmp_path, case):
        _, _, patch, code, stderr = REJECTIONS[case]
        f = tmp_path / "instance.txt"
        assert _run_rejection(monkeypatch, f, case) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        fields = _missing_symbol_fields() if patch else {}
        assert captured.err == stderr.format(f=f, **fields)

    def test_every_parse_raise_has_a_case(self, capsys, monkeypatch, tmp_path):
        # each `raise` line of parse_instance_text and its nested as_floats
        # runs in some REJECTIONS case
        parse = cli.parse_instance_text.__code__
        traced = {parse, *(c for c in parse.co_consts if isinstance(c, types.CodeType))}
        ran = set()

        def lines(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return lines

        def calls(frame, event, arg):
            return lines if frame.f_code in traced else None

        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            for case in REJECTIONS:
                with monkeypatch.context() as patched:
                    _run_rejection(patched, tmp_path / "instance.txt", case)
        finally:
            sys.settrace(previous)
        capsys.readouterr()
        module = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        (func,) = [node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)
                   and node.name == "parse_instance_text"]
        raises = {node.lineno for node in ast.walk(func) if isinstance(node, ast.Raise)}
        assert len(raises) > 10
        assert sorted(raises - ran) == []

    @given(instance_files())
    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @pytest.mark.filterwarnings("error")
    def test_valid_files_verdict_or_one_error_line(self, tmp_path_factory, instance):
        # every command answers or refuses on one line; exit 1 stays allowed
        # until the pass rule and the eigenvalue checks stop producing false
        # FAILs on such files
        text, m = instance
        f = tmp_path_factory.mktemp("fuzz") / "instance.txt"
        f.write_text(text)
        commands = [["eig"], ["bounds"]]
        if m == 1:
            commands.append(["eig", "--method", "secular"])
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([cmd[0], str(f), *cmd[1:]])
            assert code in (0, 1, 2, 3)
            lines = err.getvalue().splitlines()
            if code >= 2:
                assert len(lines) == 1 and lines[0].startswith("error: "), (cmd, lines)
            else:
                assert lines == [], (cmd, lines)

    @pytest.mark.parametrize(
        "args",
        [["verify", "--d", "2", "--m", "1", "--seeds", "1"],
         ["scan", "--d", "3", "--m", "1", "--j", "2", "--lambda1", "1e2:1e4:3"]],
        ids=["verify", "scan"],
    )
    def test_internal_value_error_is_not_bad_input(self, capsys, monkeypatch, args):
        # an invariant that fails inside the program is a fault, not a
        # rejection: it propagates instead of exiting 2 as bad input
        def broken(inst):
            raise ValueError("basis is not orthonormal: residual 1.133e-04")

        monkeypatch.setattr(harness, "_oracle", broken)
        with pytest.raises(ValueError, match="not orthonormal"):
            cli.main(args)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", ["verify-seeds-0", "secular-overflow"])
    def test_module_entry_point_exit_code(self, tmp_path, case):
        args, text, _, code, stderr = REJECTIONS[case]
        f = tmp_path / "instance.txt"
        if text is not None:
            f.write_text(text)
        proc = _run_module([a.format(f=f) for a in args])
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr.format(f=f))

    def test_module_entry_point_help(self):
        proc = _run_module(["--help"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: eigenpert ")
        assert proc.stderr == ""


def readme_commands():
    """Every `eigenpert ...` line inside README's code fences."""
    commands, fenced = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("eigenpert "):
            commands.append(line)
    return commands


# Options that collect every occurrence (argparse's append action); any
# other option keeps only its last occurrence
APPEND_OPTIONS = {"verify": {"--d", "--m"}}


class TestReadmeCommands:
    def test_readme_commands_run(self, capsys, monkeypatch, tmp_path):
        # each command parses, repeats no option whose earlier value argparse
        # would drop, and exits 1 where marked `# expected to FAIL`, 0 elsewhere
        twice = cli.build_parser().parse_args(["verify", "--d", "2", "--d", "3", "--m", "0",
                                               "--m", "1"])
        assert (twice.d, twice.m) == ([2, 3], [0, 1])
        commands = readme_commands()
        assert len(commands) == 8
        shutil.copytree(INSTANCES, tmp_path / "instances")
        monkeypatch.chdir(tmp_path)
        for line in commands:
            argv = shlex.split(line, comments=True)[1:]
            cli.build_parser().parse_args(argv)
            options = [tok.split("=", 1)[0] for tok in argv if tok.startswith("--")]
            repeated = {o for o in options if options.count(o) > 1}
            assert repeated <= APPEND_OPTIONS.get(argv[0], set()), line
            expected = 1 if "# expected to FAIL" in line else 0
            assert cli.main(argv) == expected, line
            assert capsys.readouterr().err == "", line


# Run `cli.main(ARGS)` and print its exit code and every eigenpert module
# the interpreter then holds on stderr, one line.
LOADED_MODULES = """\
import contextlib, io, sys
from eigenpert import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "dataclasses" in sys.modules,
      *sorted(m for m in sys.modules if m.partition(".")[0] == "eigenpert"), file=sys.stderr)
"""

BASE_MODULES = ["eigenpert", "eigenpert.cli", "eigenpert.symmat"]
CERTIFY_MODULES = BASE_MODULES + ["eigenpert.bounds", "eigenpert.harness"]


class TestStartupModules:
    # each command imports only the modules it runs: without a bytecode
    # cache every module a process loads is compiled in that process.  None
    # imports dataclasses, whose decorator takes about 0.6 ms a class
    @pytest.mark.parametrize(
        "args, modules",
        [
            (["eig", str(EXAMPLE_D5)], BASE_MODULES),
            (["eig", str(GOLDEN_100), "--method", "secular"], BASE_MODULES + ["eigenpert.rankone"]),
            (["bounds", str(EXAMPLE_D5)], CERTIFY_MODULES),
            (["bounds", str(GOLDEN_100)], CERTIFY_MODULES + ["eigenpert.rankone"]),
            (["scan", "--d", "5", "--m", "2", "--j", "2", "--lambda1", "1e2:1e4:3"],
             CERTIFY_MODULES),
            (["verify", "--d", "3", "--m", "2", "--seeds", "1"], CERTIFY_MODULES),
        ],
        ids=["eig", "eig-secular", "bounds-m2", "bounds-m1", "scan-m2", "verify-m2"],
    )
    def test_modules_loaded_by_each_command(self, args, modules):
        proc = _run_python(["-c", LOADED_MODULES, *args])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["0", "False", *sorted(modules)]


def _run_python(argv):
    """`python -W error ARGV` in a fresh interpreter that imports eigenpert
    from this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def _run_module(args):
    """`python -W error -m eigenpert.cli ARGS` in a fresh interpreter."""
    return _run_python(["-m", "eigenpert.cli", *args])
