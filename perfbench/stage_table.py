"""Per-stage, per-dimension time of a default-grid pass, as a Markdown table.

    python3 perfbench/stage_table.py

Certifies the 625 default grid points one dimension at a time under the
tracer and splits the time into the stages of `harness.certify`: generate,
assemble A, Jacobi oracle, m = 1 secular cross-check, bound evaluation
(outermost calls into `bounds`) and the rest of `certify` (report assembly).
Times include the tracer's own cost; run.py --trace 1 reports it.
"""

from __future__ import annotations

import run  # pins BLAS threads before numpy loads

STAGES = (
    ("generate", "total_ms", "harness.gen_instance"),
    ("assemble A", "total_ms", "symmat.build_perturbed"),
    ("oracle", "total_ms", "symmat.jacobi_eig"),
    ("secular cross-check", "total_ms", "rankone.rankone_full"),
    ("bounds", "layer_outer_ms", "bounds"),
    ("certify self", "self_ms", "harness.certify"),
)


def main() -> None:
    run._import_program()
    run._pin_one_core()
    import tracer as tr
    from eigenpert import harness

    points = harness.default_grid()
    dims = sorted({p.d for p in points})
    t = tr.Tracer()
    t.install()
    try:
        for d in dims:
            t.phase = f"d{d}"
            for p in points:
                if p.d == d:
                    harness.certify(harness.gen_instance(p.d, p.m, p.lambda1, p.seed))
    finally:
        t.uninstall()

    print("| d | instances | " + " | ".join(name for name, _, _ in STAGES) + " | total |")
    print("|---" * (len(STAGES) + 3) + "|")
    for d in dims:
        s = tr.summarize(t, phase=f"d{d}")
        cells = [s[table].get(key, 0.0) for _, table, key in STAGES]
        total = s["total_ms"]["harness.certify"] + s["total_ms"]["harness.gen_instance"]
        n = s["calls"]["harness.certify"]
        print(f"| {d} | {n} | " + " | ".join(f"{c:.0f} ms" for c in cells) + f" | {total:.0f} ms |")


if __name__ == "__main__":
    main()
