"""Every observed value in the golden files against a high-precision
reference: eigenvalues within 1e-14 relative, |[e_i]_j| within 1e-13.

The goldens pin the program's output bytes; this gate pins that those bytes
are right, so a regenerated golden file has to be at least this accurate.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest

from eigenpert import cli, harness
from conftest import mp_eigensolve

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EIGENVALUE_RTOL = 1e-14
COMPONENT_RTOL = 1e-13
# the grid of the golden scans (tests/test_acceptance.py, criterion 6)
SCAN_GRID = tuple(np.logspace(2, 8, 7))


@functools.cache
def _reference(lambdas: tuple, vectors: tuple):
    digits = int(math.log10(lambdas[0] / lambdas[-1])) + 40
    return mp_eigensolve(lambdas, vectors, digits)


def _instance_reference(inst):
    return _reference(
        tuple(inst.spectrum.lambdas.tolist()), tuple(tuple(v.tolist()) for v in inst.perts.vectors)
    )


def _assert_close(observed: float, reference: float, rtol: float, where: str):
    assert abs(observed - reference) <= rtol * abs(reference), (
        f"{where}: golden {observed!r}, reference {reference!r}"
    )


@pytest.mark.parametrize(
    "path", sorted(GOLDEN_DIR.glob("bounds_*.csv")), ids=lambda p: p.stem
)
def test_bounds_golden_observed(path):
    inst = cli.load_instance(str(ROOT / "instances" / f"{path.stem[len('bounds_'):]}.txt"))
    values, basis = _instance_reference(inst)
    rows = path.read_text().splitlines()[1:]
    assert rows
    for row in rows:
        kind, _, i, j, observed = row.split(",")[:5]
        where = f"{path.name}: {row}"
        if kind.startswith("eigenvalue"):
            _assert_close(float(observed), values[int(i) - 1], EIGENVALUE_RTOL, where)
        else:
            _assert_close(float(observed), basis[int(j) - 1, int(i) - 1], COMPONENT_RTOL, where)


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("scan_*.csv")), ids=lambda p: p.stem)
def test_scan_golden_observed(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:-1]]
    assert len(rows) == len(SCAN_GRID)
    for row, lambda1 in zip(rows, SCAN_GRID):
        d, m, j = (int(x) for x in row[:3])
        assert float(row[3]) == pytest.approx(lambda1, rel=1e-14)
        _, basis = _instance_reference(harness.gen_instance(d, m, lambda1, int(row[8])))
        _assert_close(float(row[5]), basis[j - 1, 0], COMPONENT_RTOL, f"{path.name}: {row}")
