"""Self-test of the benchmark's output checks: correct outputs pass, and
deliberately corrupted ones are caught and counted as failed ops.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from eigenpert import bounds, harness  # noqa: E402

GOLDEN = HERE.parent / "instances" / "golden_d2_lambda1e4.txt"


@pytest.fixture(scope="module")
def secular():
    """One seeded rank1-secular op and its (correct) output."""
    op = workloads.rank1_secular(0).ops[0]
    return op, op.run()


def scaled_values(eig, factor):
    return SimpleNamespace(values=eig.values * factor, basis=eig.basis)


def flipped_coordinate(eig):
    basis = eig.basis.copy()
    i = basis.shape[1] // 2
    k = int(np.argmax(np.abs(basis[:, i])))
    basis[k, i] = -basis[k, i]
    return SimpleNamespace(values=eig.values, basis=basis)


def test_secular_passes_correct_output(secular):
    op, eig = secular
    assert op.check(eig) == []


@pytest.mark.parametrize("corrupt", [lambda e: scaled_values(e, 1 + 1e-8), flipped_coordinate])
def test_secular_catches_corruption(secular, corrupt):
    op, eig = secular
    assert op.check(corrupt(eig))


def test_corrupted_op_counts_as_failed(secular):
    op, _ = secular
    bad = workloads.Op("corrupted", lambda: scaled_values(op.run(), 1 + 1e-8), op.check)
    plan = workloads.Plan("self-test", [op, bad], rounds=2)
    res = run.run_timed(plan)
    assert res["attempted"] == 4
    assert res["failed"] == 2
    assert res["problems"] and all(p.startswith("corrupted") for p in res["problems"])
    assert res["completed"] == [[True, True], [False, False]]


def test_known_fault_is_failed_but_not_a_problem():
    plan = workloads.rank1_secular(0)
    fault = next(op for op in plan.ops if op.known_fault)
    res = run.run_timed(workloads.Plan("fault", [fault], rounds=1))
    assert (res["attempted"], res["failed"], res["problems"]) == (1, 1, [])


def test_grid_check_catches_corruption():
    inst = harness.gen_instance(10, 2, 1e6, 3)
    reports = harness.certify(inst)
    assert checks.check_certified(inst, reports) == []
    ev = next(r for r in reports if r.kind == "eigenvalue-rankm")
    scaled = bounds.make_report(
        ev.kind,
        [
            bounds.BoundEntry(e.i, e.j, e.observed * (1 + 1e-8), e.bound, e.slack, e.side)
            for e in ev.entries
        ],
    )
    corrupted = [scaled if r is ev else r for r in reports]
    assert checks.check_certified(inst, corrupted)
    failing = [bounds.BoundReport(r.kind, r.entries, False, r.notes) for r in reports]
    assert checks.check_certified(inst, failing)


def test_scan_check_catches_corruption():
    d, m, seed = workloads.SCAN_D, 2, 5
    records, slope = workloads._scan(d, m, seed)
    instances = [harness.gen_instance(d, m, lam1, seed) for lam1 in workloads.SCAN_GRID]
    assert checks.check_scan(records, instances, slope) == []
    bumped = [
        harness.ScanRecord(**{**vars(r), "observed": r.observed * (1 + 1e-8)}) for r in records
    ]
    assert checks.check_scan(bumped, instances, slope)
    assert checks.check_scan(records, instances, slope + 0.01)


def test_cli_checks_catch_corruption():
    text = GOLDEN.read_text()
    lambdas, vectors = checks.parse_instance_file(text)
    top, low = map(float, checks.quadratic_roots(checks.assemble(lambdas, vectors)))
    good = f"d = 2\nm = 1\neigenvalue 1 = {top!r}\neigenvalue 2 = {low!r}\n"
    assert checks.check_cli_eig(good, text, "eig") == []
    bad = good.replace(repr(low), repr(low * (1 + 1e-8)))
    assert checks.check_cli_eig(bad, text, "eig")

    args = ["bounds", str(GOLDEN.relative_to(HERE.parent))]
    assert workloads._check_cli(args, (0, "overall: PASS\n", "")) == []
    assert workloads._check_cli(args, (0, "overall: FAIL\n", ""))
    assert workloads._check_cli(args, (1, "overall: PASS\n", ""))

    header = "d,m,j,lambda1,ratio,observed,bound_rankm,bound_rank1,seed"

    def scan_csv(rate):
        rows = [f"2,1,2,{lam:g},{lam:g},{lam ** rate:.15g},1,nan,0" for lam in (1e2, 1e4, 1e6)]
        return "\n".join([header, *rows]) + "\n"

    csv = scan_csv(-0.5)
    assert checks.check_cli_scan(csv, "scan") == []
    assert checks.check_cli_scan(scan_csv(-1.5), "scan")
    over = csv.replace(f"{1e4 ** -0.5:.15g},1,", f"{1e4 ** -0.5:.15g},0.001,")
    assert checks.check_cli_scan(over, "scan")
