"""Command-line front end: instance file I/O, bound tables, certification
sweeps, and tightness scans with CSV output.

Instance files are plain text, one `key = value` pair per line:

    # comment lines and blank lines are ignored
    dim = 2
    lambdas = [100.0, 1.0]
    vectors = [[1.0, 1.0]]     # or one `vector = [...]` line per direction
    seed = 42                  # optional
    recipe = "golden"          # optional

Library indices are 0-based; everything printed or serialized here (tables,
CSV columns, the --j flag) uses the 1-based convention of the plots.

Only `symmat` is imported with this module.  `bounds`, `verify` and `scan`
import `harness` and `bounds` when they run, and `eig --method secular`
imports `rankone`, so each command loads (and, without a bytecode cache,
compiles) only the modules it uses.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys

import numpy as np

from .symmat import (
    ConvergenceError,
    DimensionMismatchError,
    InputError,
    Instance,
    LapackBindingError,
    PerturbationSet,
    Spectrum,
    oracle,
)

CSV_HEADER = "d,m,j,lambda1,ratio,observed,bound_rankm,bound_rank1,seed"


class InstanceParseError(InputError):
    """Instance file rejected; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _fmt(x: float) -> str:
    """15 significant digits, plain decimal point; a zero prints unsigned."""
    return f"{x + 0.0:.15g}"


def parse_instance_text(text: str, source: str = "<string>") -> Instance:
    """Parse the key/array instance format with line-precise diagnostics."""
    dim = None
    lambdas = None
    first_line: dict = {}  # the line of each single-valued key
    vectors: list = []
    vector_lines: list = []
    seed = 0
    recipe = f"file:{source}"

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InstanceParseError(line_no, f"expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key in ("dim", "lambdas", "seed", "recipe"):
            if key in first_line:
                raise InstanceParseError(line_no, f"{key} is already set on line {first_line[key]}")
            first_line[key] = line_no
        try:
            value = ast.literal_eval(rhs)
        except (ValueError, SyntaxError) as exc:
            raise InstanceParseError(line_no, f"cannot parse value {rhs!r}: {exc}") from exc
        if key in ("dim", "seed", "recipe"):
            try:
                repr(value)  # messages print dim and seed, and meta holds the recipe
            except ValueError:  # an integer past Python's string-conversion limit
                limit = sys.get_int_max_str_digits()
                message = f"{key} holds an integer of more than {limit} digits"
                raise InstanceParseError(line_no, message) from None

        def as_floats(seq, what):
            try:
                out = [float(x) for x in seq]
            except (TypeError, ValueError) as exc:
                raise InstanceParseError(line_no, f"{what} has a non-numeric entry: {exc}") from exc
            except OverflowError as exc:  # an integer literal past the double range
                raise InstanceParseError(
                    line_no, f"{what} has an entry past the double range: {exc}"
                ) from exc
            for x, y in zip(seq, out):
                if isinstance(x, bool) or not math.isfinite(y):
                    raise InstanceParseError(line_no, f"{what} entry {x!r} is not a finite number")
            return out

        if key == "dim":
            if type(value) is not int or value < 1:  # type(), not isinstance: rejects True
                raise InstanceParseError(line_no, f"dim must be a positive integer, got {value!r}")
            dim = value
        elif key == "lambdas":
            if not isinstance(value, (list, tuple)) or not value:
                raise InstanceParseError(line_no, "lambdas must be a non-empty array")
            lambdas = as_floats(value, "lambdas")
        elif key == "vectors":
            if not isinstance(value, (list, tuple)):
                raise InstanceParseError(line_no, "vectors must be an array of arrays")
            for k, vec in enumerate(value):
                if not isinstance(vec, (list, tuple)):
                    raise InstanceParseError(line_no, f"vectors[{k + 1}] is not an array")
                vectors.append(as_floats(vec, f"vectors[{k + 1}]"))
                vector_lines.append(line_no)
        elif key == "vector":
            if not isinstance(value, (list, tuple)):
                raise InstanceParseError(line_no, "vector must be an array")
            vectors.append(as_floats(value, "vector"))
            vector_lines.append(line_no)
        elif key == "seed":
            if type(value) is not int:
                raise InstanceParseError(line_no, f"seed must be an integer, got {value!r}")
            seed = value
        elif key == "recipe":
            recipe = str(value)
        else:
            raise InstanceParseError(line_no, f"unknown key {key!r}")

    if lambdas is None:
        raise InstanceParseError(0, "missing required key 'lambdas'")
    lambdas_line = first_line["lambdas"]
    if dim is not None and dim != len(lambdas):
        raise InstanceParseError(
            lambdas_line, f"lambdas has {len(lambdas)} entries but dim = {dim}"
        )
    # the constructors check positivity, order and vector lengths; their
    # messages gain the line they point at
    try:
        spectrum = Spectrum(lambdas)
    except InputError as exc:
        raise InstanceParseError(lambdas_line, str(exc)) from exc
    try:
        perts = PerturbationSet(vectors, dim=len(lambdas))
    except DimensionMismatchError as exc:
        raise InstanceParseError(vector_lines[exc.vector_index], str(exc)) from exc
    return Instance(spectrum=spectrum, perts=perts, seed=seed, meta=recipe)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read(), source=path)


def render_scan_csv(records, fit=None, fit_note: str | None = None) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.d),
                    str(r.m),
                    str(r.j),
                    _fmt(r.lambda1),
                    _fmt(r.ratio),
                    _fmt(r.observed),
                    _fmt(r.bound_rankm),
                    _fmt(r.bound_rank1) if math.isfinite(r.bound_rank1) else "nan",
                    str(r.seed),
                ]
            )
        )
    if fit is not None:
        lines.append(
            f"# slope: {_fmt(fit.slope)} intercept: {_fmt(fit.intercept)} "
            f"rms: {_fmt(fit.residual_rms)} points: {fit.count}"
        )
    elif fit_note is not None:
        lines.append(f"# slope: {fit_note}")
    return "\n".join(lines) + "\n"


BOUNDS_CSV_HEADER = "kind,side,i,j,observed,bound,slack,pass"


def render_bounds_csv(reports) -> str:
    """Per-entry CSV across all reports (1-based indices, '-' for absent j)."""
    from . import bounds as bnd

    lines = [BOUNDS_CSV_HEADER]
    for rep in reports:
        ok_column = bnd.passes(rep.entries["slack"], rep.entries["bound"]).tolist()
        for (i, j, observed, bound, slack, side), ok in zip(rep.entries.tolist(), ok_column):
            lines.append(
                ",".join(
                    [
                        rep.kind,
                        side,
                        str(i + 1),
                        str(j + 1) if j >= 0 else "-",
                        _fmt(observed),
                        _fmt(bound),
                        _fmt(slack),
                        "1" if ok else "0",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def cmd_eig(args) -> int:
    inst = load_instance(args.instance)
    if args.method == "secular":
        if inst.m != 1:
            raise InputError(
                f"--method secular requires exactly one perturbation vector, "
                f"instance has m={inst.m}"
            )
        from .rankone import rankone_full

        eig = rankone_full(inst.spectrum, inst.perts.vectors[0])
    else:
        eig = oracle(inst)
    print(f"d = {inst.d}")
    print(f"m = {inst.m}")
    for i, val in enumerate(eig.values, start=1):
        print(f"eigenvalue {i} = {_fmt(val)}")
    for i in range(eig.d):
        comps = ", ".join(_fmt(x) for x in eig.basis[:, i])
        print(f"eigenvector {i + 1} = [{comps}]")
    return 0


def _bound_cells(report, n: int) -> list:
    """A report's bound column as table cells; n dashes for an absent kind."""
    return [_fmt(b) for b in report.entries["bound"].tolist()] if report else ["-"] * n


def cmd_bounds(args) -> int:
    from . import bounds as bnd
    from . import harness

    inst = load_instance(args.instance)
    reports = harness.certify(inst)
    by_kind = {r.kind: r for r in reports}
    params = bnd.BoundParams.from_perturbations(inst.perts)

    if args.csv:
        _write(args.csv, render_bounds_csv(reports))

    print(
        f"instance: d={inst.d} m={inst.m} V={_fmt(params.v_bound)} "
        f"v_inf={_fmt(params.v_inf)} C_m={_fmt(params.cm)}"
    )
    # certify lists eigenvalue-rankm as (lower, upper) pairs in index order,
    # and every eigenvector kind over the same row-major (i, j) grid
    ev = by_kind["eigenvalue-rankm"].entries
    lo, hi = ev[ev["side"] == "lower"], ev[ev["side"] == "upper"]
    ok = bnd.passes(lo["slack"], lo["bound"]) & bnd.passes(hi["slack"], hi["bound"])
    b6 = _bound_cells(by_kind.get("eigenvalue-rank1"), len(hi))
    print("eigenvalues:")
    print("  i  nu_i  interval_lo  interval_hi  bound_rank1  pass")
    rows = zip(hi["i"].tolist(), hi["observed"].tolist(), lo["bound"].tolist(),
               hi["bound"].tolist())
    for (i, nu, blo, bhi), b6s, good in zip(rows, b6, ok.tolist()):
        print(f"  {i + 1}  {_fmt(nu)}  {_fmt(blo)}  {_fmt(bhi)}  {b6s}  {'ok' if good else 'FAIL'}")

    vec = by_kind["eigvec-rankm"].entries
    b8 = _bound_cells(by_kind.get("eigvec-rank1"), len(vec))
    b9 = _bound_cells(by_kind.get("eigvec-rank1-refined"), len(vec))
    ok = bnd.passes(vec["slack"], vec["bound"])
    print("eigenvector coordinates:")
    print("  i  j  observed  bound_rank1  bound_refined  bound_rankm  pass")
    rows = vec[["i", "j", "observed", "bound"]].tolist()
    for (i, j, observed, bm), c8, c9, good in zip(rows, b8, b9, ok.tolist()):
        print(
            f"  {i + 1}  {j + 1}  {_fmt(observed)}  {c8}  {c9}  "
            f"{_fmt(bm)}  {'ok' if good else 'FAIL'}"
        )

    for rep in reports:
        for note in rep.notes:
            print(f"note ({rep.kind}): {note}")
    all_pass = all(r.passed for r in reports)
    print(f"overall: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def cmd_verify(args) -> int:
    from . import harness

    if args.seeds is not None and args.seeds < 1:
        raise InputError(f"--seeds must be >= 1, got {args.seeds}")
    n_seeds = harness.DEFAULT_N_SEEDS if args.seeds is None else args.seeds
    points = harness.default_grid(
        args.d or harness.DEFAULT_DIMS,
        args.m or harness.DEFAULT_MS,
        args.lambda1_list or harness.DEFAULT_LAMBDA1S,
        args.seed_list or range(n_seeds),
    )
    summary = harness.certify_grid(points, bound_scale=args.perturb_bound)
    print(f"instances: {summary.n_instances}")
    print(f"reports: {summary.n_reports}")
    print(f"failures: {len(summary.failures)}")
    print("worst slack by kind:")
    for kind in sorted(summary.worst_slack):
        print(f"  {kind}: {_fmt(summary.worst_slack[kind])}")
    if summary.failures:
        print("failing instances:")
        for pt, kind in summary.failures:
            print(f"  d={pt.d} m={pt.m} lambda1={_fmt(pt.lambda1)} seed={pt.seed} [{kind}]")
        pt = summary.failures[0][0]
        scale = "" if args.perturb_bound == 1.0 else f" --perturb-bound {_fmt(args.perturb_bound)}"
        print(
            "reproduce: eigenpert verify "
            f"--d {pt.d} --m {pt.m} --lambda1-list {_fmt(pt.lambda1)} --seed-list {pt.seed}"
            + scale
        )
        print("FAIL")
        return 1
    print("PASS")
    return 0


def _parse_lambda1_grid(text: str):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected FROM:TO:COUNT (log-spaced), got {text!r}"
        ) from None
    for name, value in (("FROM", lo), ("TO", hi)):
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"grid {name} must be finite, got {value!r} in {text!r}"
            )
    if count < 1 or lo < 1.0 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid grid {text!r}")
    if count == 1:
        return [lo]
    return list(np.logspace(math.log10(lo), math.log10(hi), count))


def cmd_scan(args) -> int:
    from . import harness

    if args.j == "last":
        j = args.d
    else:
        try:
            j = int(args.j)
        except ValueError:
            raise InputError(f"--j must be an integer or 'last', got {args.j!r}") from None
    records = []
    for seed in args.seed:
        records.extend(harness.scan(args.d, args.m, j, args.lambda1, seed))
    fit = None
    fit_note = None
    if args.m == 0:
        fit_note = "skipped (m=0, observed identically zero)"
    else:
        try:
            fit = harness.fit_slope(records)
        except harness.InsufficientDataError:
            fit_note = "insufficient points"
        except ValueError:
            fit_note = "not fittable (non-positive observed value)"
    text = render_scan_csv(records, fit=fit, fit_note=fit_note)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenpert",
        description=(
            "Certified eigenvalue/eigenvector perturbation bounds for "
            "low-rank updates of ill-conditioned SPD matrices"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eig", help="print the eigendecomposition of an instance file")
    p_eig.add_argument("instance")
    p_eig.add_argument("--method", choices=("oracle", "secular"), default="oracle")
    p_eig.set_defaults(func=cmd_eig)

    p_bounds = sub.add_parser("bounds", help="evaluate every bound on an instance file")
    p_bounds.add_argument("instance")
    p_bounds.add_argument("--csv", help="also write every entry as CSV to this path")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the certification sweep")
    p_verify.add_argument("--d", type=int, action="append")
    p_verify.add_argument("--m", type=int, action="append")
    seeds = p_verify.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=int, help="number of seeds (0..N-1)")
    seeds.add_argument("--seed-list", type=int, nargs="+")
    p_verify.add_argument("--lambda1-list", type=float, nargs="+")
    p_verify.add_argument(
        "--perturb-bound",
        type=float,
        default=1.0,
        help="scale all bounds by this factor (falsification self-test)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="tightness scan over a lambda1 grid")
    p_scan.add_argument("--d", type=int, required=True)
    p_scan.add_argument("--m", type=int, required=True)
    p_scan.add_argument("--j", required=True, help="coordinate (1-based) or 'last'")
    p_scan.add_argument(
        "--lambda1",
        type=_parse_lambda1_grid,
        required=True,
        metavar="FROM:TO:COUNT",
        help="log-spaced condition-number grid",
    )
    p_scan.add_argument("--seed", type=int, nargs="+", default=[0])
    p_scan.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    """Run one command: its own exit code (0, or 1 for a violated bound), or
    one `error:` line on stderr and 2 for rejected input, 3 for a numerical
    failure or a missing LAPACK routine."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        message, code = str(exc), 2
    except ConvergenceError as exc:
        message, code = f"numerical failure: {exc}", 3
    except LapackBindingError as exc:
        message, code = str(exc), 3
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
