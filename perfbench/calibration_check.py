"""Check that calibrated times pass a slowdown of the program through in full.

    python3 perfbench/calibration_check.py --workload grid-default --ops 300
    python3 perfbench/calibration_check.py --workload children --ops 60

In-process workloads: the workload's ops run in alternating blocks, plain
and slowed, where a slowed op is the op followed by a fixed busy loop (an
injected slowdown).  The op part and the loop are timed apart.  If a kernel
sample is not swayed by what ran just before it, the calibrated op part
reads the same in both kinds of block (as the raw op part does, up to the
machine's own speed changes), and the calibrated slowdown equals the raw one.

`children`: fresh interpreters in alternating blocks, `import eigenpert`
and `import eigenpert` followed by a busy loop (a heavier start-up), each
followed by the reference child that calibrates cli-oneshot and setup_s.
The reference child after a heavier child should read as after a plain one,
and the calibrated slowdown should equal the raw one.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time

import run  # pins BLAS threads before numpy loads

LOOPS = {"grid-default": 300_000, "scan-graded": 300_000, "rank1-secular": 35_000}
BUSY = "s = 0.0\nfor i in range({n}):\n    s += i * 0.5\n"


def busy(n: int) -> float:
    s = 0.0
    for i in range(n):
        s += i * 0.5
    return s


def in_process(name: str, n_ops: int, block: int) -> None:
    import workloads

    ops = [op.run for op in workloads.prepare(name, 1).ops if not op.known_fault]
    loop = LOOPS[name]
    speed = run.SpeedLog()
    speed.sample()
    rows = []  # (slowed, op seconds, loop seconds, mid)
    for k in range(n_ops):
        slowed = (k // block) % 2 == 1
        t0 = time.perf_counter()
        ops[k % len(ops)]()
        tm = time.perf_counter()
        if slowed:
            busy(loop)
        t1 = time.perf_counter()
        speed.sample()
        rows.append((slowed, tm - t0, t1 - tm, 0.5 * (t0 + t1)))
    for label, scale in (("raw", lambda t, mid: t), ("calibrated", speed.rescale)):
        plain = statistics.mean(scale(r[1], r[3]) for r in rows if not r[0])
        op_part = statistics.mean(scale(r[1], r[3]) for r in rows if r[0])
        loop_part = statistics.mean(scale(r[2], r[3]) for r in rows if r[0])
        print(f"{name} {label:10s}: op part in slowed blocks / plain {op_part / plain - 1:+.4f}, "
              f"slowdown {(op_part + loop_part) / plain - 1:+.4f}")


def children(n_children: int, block: int) -> None:
    speed = run.SpeedLog.for_children()
    speed.sample()
    rows = []  # (heavier, seconds, mid)
    for k in range(n_children):
        heavier = (k // block) % 2 == 1
        code = "import eigenpert\n" + (BUSY.format(n=700_000) if heavier else "")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, check=True)
        t1 = time.perf_counter()
        speed.sample()
        rows.append((heavier, t1 - t0, 0.5 * (t0 + t1)))
    for label, scale in (("raw", lambda t, mid: t), ("calibrated", speed.rescale)):
        plain = statistics.mean(scale(t, m) for h, t, m in rows if not h)
        heavy = statistics.mean(scale(t, m) for h, t, m in rows if h)
        print(f"children {label:10s}: heavier / plain {heavy / plain - 1:+.4f}")
    after = {h: statistics.median(speed.kernel_s[i + 1] for i, (hh, _, _) in enumerate(rows) if hh == h)
             for h in (False, True)}
    print(f"children: reference child after heavier / after plain {after[True] / after[False] - 1:+.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*LOOPS, "children"), default="grid-default")
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--block", type=int, default=5)
    args = parser.parse_args()
    run._import_program()
    run._pin_one_core()
    if args.workload == "children":
        children(args.ops, args.block)
    else:
        in_process(args.workload, args.ops, args.block)


if __name__ == "__main__":
    main()
