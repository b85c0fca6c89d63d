"""eigenpert benchmark: one command for every workload.

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload grid-default --seed 3
    python3 perfbench/run.py --workload scan-graded --trace 1

Run from the root of a checkout; eigenpert is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones (see README.md).
Result files and span traces go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned to 1 before numpy loads, here and in every
# subprocess (they inherit this environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import dataclasses
import hashlib
import json
import math
import pickle
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# cli-oneshot first: its peak RSS is the peak over child processes, which
# must not include the set-up probes of another workload.
NAMES = ("cli-oneshot", "grid-default", "scan-graded", "rank1-secular")
# latency_tail_ms is this percentile; every run completes at least 50 ops,
# so at least ten lie beyond it.  Higher percentiles repeated worse than the
# bound on this machine.
TAIL_PCT = 80.0
SETUP_PROBES = 5
CLI_PROBES = 3
# Jacobi calls per dimension in the traced runs' probe (after one untraced
# warm-up call), so every per-d cost is measured on every workload (graded
# instance, m = 2, lambda_1 = 1e8).  The workloads use d = 2..30.
LADDER_DIMS = (2, 3, 5, 10, 20, 30, 32, 48, 64)
LADDER_CALLS = 2


def _import_program() -> None:
    """Put the checkout's src/ first on the path and insist on using it."""
    if not (SRC / "eigenpert" / "__init__.py").is_file():
        sys.exit(f"error: no eigenpert sources under {SRC}")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    sys.path.insert(0, str(SRC))
    import eigenpert

    if Path(eigenpert.__file__).resolve().parent != (SRC / "eigenpert").resolve():
        sys.exit(f"error: eigenpert imported from {eigenpert.__file__}, not {SRC}")


def _pin_one_core() -> None:
    """Run the benchmark (and its subprocesses) on a single core."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def _percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile: at least (100 - pct)% of values lie above or at it."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def _fingerprint(output) -> bytes:
    return hashlib.sha256(pickle.dumps(output, protocol=5)).digest()


def _check(op, output) -> list:
    """The op's output check; a malformed output that makes it raise fails it."""
    try:
        return op.check(output)
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- machine speed ------------------------------------------------------------
#
# The processor this benchmark was tuned on changes speed by up to a third
# from one stretch of seconds to the next (same code, same seed: a grid pass
# ran at 5.7 and at 7.1 ops/s).  A fixed calibration kernel therefore runs
# before the first op and after every op, and each op's wall time is
# rescaled by the kernel's reference time over the mean kernel time of the
# two samples beside it.  Times are reported at the reference speed; the raw
# wall times stay in the result file.
#
# For in-process ops the kernel is the program's own mix at small scale:
# interpreted float arithmetic plus small numpy array operations.  (Kernels
# that allocate many objects, stream a 4 MB array or run pure Python
# tracked the ops no better.)  It runs twice and only the second run is
# timed: a first run right after an op reads slow by an amount that depends
# on what the op did last, which would absorb part of a change to the
# program.
#
# Ops that are fresh interpreters (cli-oneshot, the set-up probes) follow
# that kernel poorly.  Their kernel is a fresh interpreter too: the
# reference child `python -c "import numpy"`, which starts the interpreter
# and loads the library that eigenpert's own import is mostly made of, and
# which no change to the program alters.
#
# calibration_check.py shows that an injected slowdown moves the rescaled
# times by as much as the raw ones.

CALIBRATION_REF_S = 0.0012
REFERENCE_CHILD_S = 0.15


def _kernel() -> None:
    a = np.arange(20.0)
    s = 0.0
    for i in range(300):
        b = a.copy()
        a = 0.5 * b - 0.25 * a
        s += float(a[3]) * 1.0000001 + i


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes right now, warmed up."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def reference_child() -> float:
    """Seconds the reference child process takes right now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration samples (start time, kernel seconds) taken during a run."""

    def __init__(self, kernel=calibrate, reference_s: float = CALIBRATION_REF_S):
        self.kernel, self.reference_s = kernel, reference_s
        self.starts: list = []
        self.kernel_s: list = []

    @classmethod
    def for_children(cls) -> "SpeedLog":
        return cls(reference_child, REFERENCE_CHILD_S)

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.kernel_s.append(self.kernel())

    def rescale(self, raw_s: float, mid: float) -> float:
        """raw_s at the reference speed, for an op centred at `mid`."""
        i = bisect.bisect_left(self.starts, mid)  # samples i - 1 and i surround it
        return raw_s * self.reference_s / (0.5 * (self.kernel_s[i - 1] + self.kernel_s[i]))


def timed_calls(calls, speed: SpeedLog) -> tuple:
    """Run each call, sampling the machine speed before the first call and
    after every call.

    Returns (results, errors, raw_s, mids): the error is the exception a call
    raised (or None), and mids are the midpoints of the calls.
    """
    results, errors, raw, mids = [], [], [], []
    speed.sample()
    for call in calls:
        t0 = time.perf_counter()
        try:
            res, err = call(), None
        except Exception as exc:  # noqa: BLE001 - a failing op is a result
            res, err = None, exc
        t1 = time.perf_counter()
        speed.sample()
        results.append(res)
        errors.append(err)
        raw.append(t1 - t0)
        mids.append(0.5 * (t0 + t1))
    return results, errors, raw, mids


# -- set-up time --------------------------------------------------------------


def _setup_probe(name: str, seed: int) -> None:
    """Child side: import the program, build the inputs, report ready."""
    import workloads

    workloads.prepare(name, seed)
    print("ready", flush=True)


def _one_setup(argv) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def measure_setup_s(name: str, seed: int) -> tuple:
    """Median over fresh interpreters of: start -> inputs built, each probe
    rescaled by the reference children beside it.  Returns (rescaled, raw)
    seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    speed = SpeedLog.for_children()
    speed.sample()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        elapsed = _one_setup(argv)
        speed.sample()
        raw.append(elapsed)
        scaled.append(speed.rescale(elapsed, t0 + 0.5 * elapsed))
    return statistics.median(scaled), statistics.median(raw)


# -- timed run ----------------------------------------------------------------


def run_timed(plan) -> dict:
    """Run the plan's rounds of ops, then check the outputs.

    Each op's first output is checked against the independent references;
    later rounds must reproduce it exactly.  Checks and
    comparisons run after the timed phase or between rounds.  Returns the
    rescaled time of every attempt of every op, and which attempts completed.
    """
    ops, rounds = plan.ops, plan.rounds
    speed = SpeedLog.for_children() if plan.subprocess_ops else SpeedLog()
    raw_times = [[] for _ in ops]
    mids = [[] for _ in ops]
    completed = [[] for _ in ops]
    first = [None] * len(ops)
    problems: list = []
    for r in range(rounds):
        outputs, errors, raw, mid = timed_calls([op.run for op in ops], speed)
        for i, (op, out, err) in enumerate(zip(ops, outputs, errors)):
            raw_times[i].append(raw[i])
            mids[i].append(mid[i])
            ok = err is None
            if err is not None and not isinstance(err, op.known_fault):
                problems.append(f"{op.label}: {type(err).__name__}: {err}")
            if ok:
                digest = _fingerprint(out)
                if first[i] is None:
                    first[i] = (out, digest)
                elif digest != first[i][1]:
                    ok = False
                    problems.append(f"{op.label}: round {r + 1} output differs from the first")
            completed[i].append(ok)
        del outputs

    who = resource.RUSAGE_CHILDREN if plan.name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    for i, op in enumerate(ops):
        if first[i] is None:
            continue
        found = _check(op, first[i][0])
        if found:
            problems += [f"{op.label}: {msg}" for msg in found[:3]]
            completed[i] = [False] * rounds
    times = [[speed.rescale(t, m) for t, m in zip(ts, ms)] for ts, ms in zip(raw_times, mids)]
    return {
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": sum(oks.count(False) for oks in completed),
        "times_s": times,
        "raw_times_s": raw_times,
        "mids_s": mids,
        "speed": speed,
        "completed": completed,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end(plan, seed: int) -> dict:
    res = run_timed(plan)
    times, completed = res["times_s"], res["completed"]
    done = sorted(t for ts, oks in zip(times, completed) for t, ok in zip(ts, oks) if ok)
    n_done = len(done)
    setup_scaled, setup_raw = measure_setup_s(plan.name, seed)
    metrics = {
        "ops_per_s": _metric(n_done / sum(map(sum, times)), "1/s"),
        "latency_p50_ms": _metric(statistics.median(done) * 1e3 if done else math.nan, "ms"),
        "latency_tail_ms": _metric(
            _percentile(done, TAIL_PCT) * 1e3 if done else math.nan, "ms"
        ),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        "setup_s": _metric(setup_scaled, "s"),
    }
    detail = {
        "rounds": res["rounds"],
        "completed": n_done,
        "tail_percentile": TAIL_PCT,
        "raw_ops_per_s": n_done / sum(map(sum, res["raw_times_s"])),
        "raw_setup_s": setup_raw,
        "times_ms": [[t * 1e3 for t in ts] for ts in times],
        "raw_times_ms": [[t * 1e3 for t in ts] for ts in res["raw_times_s"]],
        "mids_s": res["mids_s"],
        "speed_samples": list(zip(res["speed"].starts, res["speed"].kernel_s)),
        "problems": res["problems"],
    }
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "detail": detail,
    }


# -- traced run ---------------------------------------------------------------


def _wall_ms(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3


def _in_process_round(plan) -> tuple:
    """One checked round of the plan's in-process ops; returns (seconds,
    attempted, failed, problems), seconds as the timed run reports them."""
    res = run_timed(dataclasses.replace(plan, ops=plan.trace_ops, rounds=1, subprocess_ops=False))
    return sum(map(sum, res["times_s"])), res["attempted"], res["failed"], res["problems"]


def traced(plan, seed: int) -> dict:
    """A warm-up round, one round untraced, then the same round traced, then
    the probe that every traced run shares: in-process CLI commands and the
    Jacobi ladder; last, fresh-interpreter start-up and import times."""
    import tracer as tr
    import workloads
    from eigenpert import harness, symmat

    _in_process_round(plan)
    untraced_s, *_ = _in_process_round(plan)
    ladder = []
    for d in LADDER_DIMS:
        inst = harness.gen_instance(d, 2, 1e8, 0)
        matrix = symmat.build_perturbed(inst.spectrum, inst.perts)
        symmat.jacobi_eig(matrix)  # warm-up
        ladder.append(matrix)

    t = tr.Tracer()
    t.install()
    try:
        traced_s, attempted, failed, problems = _in_process_round(plan)
        t.phase = "probe"
        if plan.name != "cli-oneshot":
            problems += _in_process_round(workloads.cli_oneshot(seed))[3]
        for matrix in ladder:
            for _ in range(LADDER_CALLS):
                symmat.jacobi_eig(matrix)
    finally:
        t.uninstall()

    interp = statistics.median(_wall_ms([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES))
    imported = statistics.median(
        _wall_ms([sys.executable, "-c", "import eigenpert.cli"]) for _ in range(CLI_PROBES)
    )
    work, probe = tr.summarize(t, "workload"), tr.summarize(t, "probe")
    OUT_DIR.mkdir(exist_ok=True)
    t.write(OUT_DIR / f"trace-{plan.name}-seed{seed}.csv.gz")
    metrics, from_probe = layer_metrics(work, probe, interp, imported)
    overhead = {
        "untraced_round_ms": untraced_s * 1e3,
        "traced_round_ms": traced_s * 1e3,
        "overhead_ms": (traced_s - untraced_s) * 1e3,
        "spans": len(t.spans),
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "overhead": overhead,
            "from_probe": from_probe,
            "workload": work,
            "probe": probe,
            "problems": problems,
        },
    }


def layer_metrics(work: dict, probe: dict, interpreter_ms: float, import_total_ms: float):
    """The per-layer metrics, and the names of those read from the probe.

    A metric reads the workload round's own spans when that round reaches
    the function it measures, and the shared probe's spans otherwise.
    """
    from_probe = []

    def source(key):
        if any(key in work[part] for part in ("calls", "counters", "layer_outer_ms")):
            return work
        from_probe.append(key)
        return probe

    def ms(name):
        return _metric(source(name)["total_ms"].get(name, 0.0), "ms")

    def self_ms(name):
        return _metric(source(name)["self_ms"].get(name, 0.0), "ms")

    def calls(name):
        return _metric(source(name)["calls"].get(name, 0), "count")

    m = {
        "harness.gen_instance.ms": ms("harness.gen_instance"),
        "harness.certify.self_ms": self_ms("harness.certify"),
        "harness.scan.self_ms": self_ms("harness.scan"),
        "harness.fit_slope.ms": ms("harness.fit_slope"),
        "symmat.build_perturbed.ms": ms("symmat.build_perturbed"),
        "symmat.jacobi_eig.ms": ms("symmat.jacobi_eig"),
        "symmat.jacobi_eig.calls": calls("symmat.jacobi_eig"),
    }
    for d in LADDER_DIMS:
        src = source(f"symmat.jacobi_eig.d{d}.calls")["counters"]
        per_call = src.get(f"symmat.jacobi_eig.d{d}.ms", 0.0) / src[f"symmat.jacobi_eig.d{d}.calls"]
        m[f"symmat.jacobi_eig.d{d}.ms"] = _metric(per_call, "ms")
    cm = source("bounds.cm_constant")["calls"]
    deflated = source("rankone.secular_eigenvalues")["counters"]
    entries = source("bounds.make_report")["counters"]
    cli_total = source("cli.main")["total_ms"]
    m.update(
        {
            "rankone.rankone_full.ms": ms("rankone.rankone_full"),
            "rankone.secular_eigenvalues.ms": ms("rankone.secular_eigenvalues"),
            "rankone.bns_eigenvector.ms": ms("rankone.bns_eigenvector"),
            "rankone.bns_eigenvector.calls": calls("rankone.bns_eigenvector"),
            "rankone.deflated": _metric(deflated.get("rankone.deflated", 0), "count"),
            "rankone.failed": _metric(
                source("rankone.rankone_full")["raised"].get("rankone.rankone_full", 0), "count"
            ),
            "bounds.self_ms": _metric(source("bounds")["layer_outer_ms"].get("bounds", 0.0), "ms"),
            "bounds.cm_constant.calls": _metric(cm.get("bounds.cm_constant", 0), "count"),
            "bounds.cm_constant.per_instance": _metric(
                cm.get("bounds.cm_constant", 0) / max(cm.get("symmat.build_perturbed", 0), 1),
                "calls/instance",
            ),
            "bounds.entries": _metric(entries.get("bounds.entries", 0), "count"),
            "bounds.make_report.ms": ms("bounds.make_report"),
            "cli.interpreter_ms": _metric(interpreter_ms, "ms"),
            "cli.import_ms": _metric(import_total_ms - interpreter_ms, "ms"),
            "cli.main_ms": ms("cli.main"),
            "cli.load_instance.ms": ms("cli.load_instance"),
            "cli.render.ms": _metric(
                sum(v for k, v in cli_total.items() if k.startswith("cli.render_")), "ms"
            ),
        }
    )
    return m, sorted(set(from_probe))


# -- command line -------------------------------------------------------------


def run_one(name: str, seed: int, trace: bool) -> dict:
    import workloads

    plan = workloads.prepare(name, seed)
    return traced(plan, seed) if trace else end_to_end(plan, seed)


def _print_human(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for msg in result["detail"].get("problems", [])[:10]:
        print(f"  problem: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    # Every run of a workload does the same fixed work (workloads.Plan.rounds),
    # sized to about 20 s on the reference machine; a run length is accepted
    # for the common benchmark interface and does not change that work.
    parser.add_argument("--seconds", type=float, default=20.0, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    _pin_one_core()

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, bool(args.trace))
        _print_human(name, results[name])
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(results, indent=1, default=str))

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
