"""The benchmark's workloads: seeded inputs, one round of ops, and checks.

A run repeats a fixed number of whole rounds of the same ops, so every run
of a workload does the same work and the share of failed ops is the same in
every run.  The round counts make a run last about 20 s on the reference
machine (README.md).  Each workload is dominated by one layer and nearly
free of another; see README.md for the map.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from eigenpert import cli, harness, rankone, symmat

import checks

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    """One timed unit of work and the independent check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # Exceptions this op raises on every run until a known fault is mended.
    known_fault: tuple = ()


@dataclass
class Plan:
    name: str
    ops: list  # one round, as the timed phase runs it
    rounds: int  # rounds per timed run
    trace_ops: list = field(default_factory=list)  # in-process round, traced runs
    # Whether each op is a fresh interpreter, calibrated by a reference
    # child process rather than by the in-process kernel (see run.py).
    subprocess_ops: bool = False


# -- grid-default: the work of `eigenpert verify` ---------------------------


def _certify_points(points) -> list:
    out = []
    for p in points:
        inst = harness.gen_instance(p.d, p.m, p.lambda1, p.seed)
        out.append((inst, harness.certify(inst)))
    return out


def _check_certified_points(pairs) -> list:
    return [msg for inst, reports in pairs for msg in checks.check_certified(inst, reports)]


def grid_default(seed: int) -> Plan:
    """The 625-point default grid, one op per (lambda_1, seed) slice of 25
    instances (every d and m), slices in a seeded order.  Single-instance
    ops are too small to time steadily; a slice is about 0.17 s."""
    slices: dict = {}
    for p in harness.default_grid():
        slices.setdefault((p.lambda1, p.seed), []).append(p)
    keys = sorted(slices)
    random.Random(seed).shuffle(keys)
    ops = [
        Op(
            label=f"grid lambda1={lam1:g} seed={s}",
            run=partial(_certify_points, slices[(lam1, s)]),
            check=_check_certified_points,
        )
        for lam1, s in keys
    ]
    return Plan("grid-default", ops, rounds=5, trace_ops=ops)


# -- scan-graded: the oracle at d = 30, lambda_1 up to 1e12 ----------------

SCAN_D = 30
SCAN_MS = (1, 2)
SCAN_GRID = (1e4, 1e8, 1e12)
# Jacobi needs 4 to 7 sweeps per instance depending on the Gaussian
# directions, so the work of a round depends on the seed; thirty
# realizations per m hold that to about 2%.  d = 30 keeps one op near
# 0.15 s: ops of half a second outlast the processor's speed swings that the
# calibration between ops can follow (see run.py).
SCAN_REALIZATIONS = 30


def _scan(d: int, m: int, seed: int):
    records = harness.scan(d, m, d, SCAN_GRID, seed)
    return records, harness.fit_slope(records).slope


@functools.cache
def _scan_instances(d: int, m: int, seed: int) -> tuple:
    # cached so that a traced run, which checks a round it already checked
    # untraced, does not count these calls as the workload's
    return tuple(harness.gen_instance(d, m, lam1, seed) for lam1 in SCAN_GRID)


def _check_scan(d: int, m: int, seed: int, out) -> list:
    records, slope = out
    return checks.check_scan(records, _scan_instances(d, m, seed), slope)


def scan_graded(seed: int) -> Plan:
    """`harness.scan` with j = d = 30 and m in {1, 2}, over lambda_1 in
    {1e4, 1e8, 1e12}, then the slope fit; thirty scan seeds per m, derived
    from --seed."""
    ops = [
        Op(
            label=f"scan d={SCAN_D} m={m} seed={s}",
            run=partial(_scan, SCAN_D, m, s),
            check=partial(_check_scan, SCAN_D, m, s),
        )
        for m in SCAN_MS
        for s in range(seed * SCAN_REALIZATIONS, (seed + 1) * SCAN_REALIZATIONS)
    ]
    return Plan("scan-graded", ops, rounds=2, trace_ops=ops)


# -- rank1-secular: the secular path alone ----------------------------------

RANK1_D = 64
RANK1_SEEDED = 45
# lambda_1 = lambda_1/lambda_d spans 1e2..1e11.  Above about 1e11 the fixed
# LAMBDA_COLLISION_RTOL * lambda_1 test merges the two smallest eigenvalues
# of a d = 64 graded spectrum on some seeds only, and the roots come out
# wrong (see the FOUND line in CHANGES.md); such ops cannot be counted the
# same way on every seed, so that regime is left out.
RANK1_LOG_LAMBDA1 = (2.0, 11.0)
# Fixed inputs (independent of --seed) on which `bns_eigenvector` raises
# DeflationError: weights of 1e-8 and 1e-9 on coordinates whose lambda_j is
# too large for Z_DEFLATION_RTOL to deflate them, so their roots land within
# POLE_PROXIMITY_RTOL of an undeflated pole.
RANK1_FAULT_SEEDS = (9001, 9002, 9003, 9004, 9005)
RANK1_FAULT_WEIGHTS = {2: 1e-8, 5: -1e-9}


def graded_rank1(rng: np.random.Generator, log_l1: float, d: int = RANK1_D):
    """A graded spectrum from lambda_1 = 10**log_l1 down to 1, with jittered
    log-gaps, and weights |v_j| log-uniform in [1e-3, 2]."""
    gaps = rng.uniform(0.5, 1.5, d - 1)
    gaps *= log_l1 / gaps.sum()
    lambdas = 10.0 ** np.concatenate([[0.0], np.cumsum(gaps)])[::-1]
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    v = signs * 10.0 ** rng.uniform(-3.0, np.log10(2.0), d)
    return lambdas, v


def _rankone_full(spec, v):
    # looked up at call time, so that a traced run sees the call
    return rankone.rankone_full(spec, v)


def _rank1_op(label: str, lambdas, v, known_fault=()) -> Op:
    spec = symmat.Spectrum(lambdas)
    return Op(
        label=label,
        run=partial(_rankone_full, spec, v),
        check=lambda eig: checks.check_secular(lambdas, v, eig.values, eig.basis),
        known_fault=known_fault,
    )


def rank1_secular(seed: int) -> Plan:
    """`rankone_full` (the body of `eig --method secular`) on d = 64 graded
    m = 1 instances: 45 drawn from --seed plus 5 fixed ones that hit the
    DeflationError fault, so one op in ten fails, the same ones every run."""
    rng = np.random.default_rng([seed, RANK1_D])
    lo, hi = RANK1_LOG_LAMBDA1
    ops = []
    for k in range(RANK1_SEEDED):
        # one instance per stratum of log10(lambda_1): less spread between seeds
        log_l1 = lo + (hi - lo) * (k + rng.random()) / RANK1_SEEDED
        ops.append(_rank1_op(f"rank1 seed={seed} #{k}", *graded_rank1(rng, log_l1)))
    stride = (RANK1_SEEDED + len(RANK1_FAULT_SEEDS)) // len(RANK1_FAULT_SEEDS)
    for k, fault_seed in enumerate(RANK1_FAULT_SEEDS):
        fault_rng = np.random.default_rng(fault_seed)
        lambdas, v = graded_rank1(fault_rng, fault_rng.uniform(*RANK1_LOG_LAMBDA1))
        for j, w in RANK1_FAULT_WEIGHTS.items():
            v[j] = w
        op = _rank1_op(f"rank1 fault #{k}", lambdas, v, (rankone.DeflationError,))
        ops.insert(stride * (k + 1) - 1, op)
    return Plan("rank1-secular", ops, rounds=24, trace_ops=ops)


# -- cli-oneshot: fresh `python -m eigenpert.cli` processes -----------------


def cli_commands(seed: int) -> list:
    """eig and bounds on every checked-in instance, one scan, one small verify."""
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "instances").glob("*.txt"))
    cmds = [["eig", f] for f in files] + [["bounds", f] for f in files]
    cmds.append(
        ["scan", "--d", "10", "--m", "2", "--j", "last", "--lambda1", "1e2:1e8:7",
         "--seed", str(seed), "--out", "-"]
    )
    cmds.append(["verify", "--d", "5", "--m", "2"])
    return cmds


def _subprocess_cli(args) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "eigenpert.cli", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _inprocess_cli(args) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def _check_cli(args, result) -> list:
    code, stdout, stderr = result
    where = "eigenpert " + " ".join(args)
    if code != 0:
        return [f"{where}: exit code {code}: {stderr.strip()[-200:]}"]
    command = args[0]
    if command == "eig":
        return checks.check_cli_eig(stdout, (ROOT / args[1]).read_text(), where)
    if command == "scan":
        return checks.check_cli_scan(stdout, where)
    expected = {"bounds": "overall: PASS", "verify": "PASS"}[command]
    if checks.last_line(stdout) != expected:
        return [f"{where}: last line {checks.last_line(stdout)!r}, expected {expected!r}"]
    return []


def cli_oneshot(seed: int) -> Plan:
    def ops_for(runner):
        return [
            Op(label="cli " + " ".join(a), run=partial(runner, a), check=partial(_check_cli, a))
            for a in cli_commands(seed)
        ]

    return Plan(
        "cli-oneshot",
        ops_for(_subprocess_cli),
        rounds=8,
        trace_ops=ops_for(_inprocess_cli),
        subprocess_ops=True,
    )


BUILDERS = {
    "grid-default": grid_default,
    "scan-graded": scan_graded,
    "rank1-secular": rank1_secular,
    "cli-oneshot": cli_oneshot,
}


def prepare(name: str, seed: int) -> Plan:
    return BUILDERS[name](seed)
