"""Certified eigenvalue/eigenvector bounds for low-rank perturbations, and
the reports that check them.

Every bound function here is evaluated from the *unperturbed* spectrum and
the perturbation directions alone -- never from the perturbed matrix.
`reports` compares the bounds with an eigendecomposition it is given.

Indices are 0-based throughout the library; the CLI translates to the
1-based convention used in file formats and printed tables.  The
eigenvalue bounds return every row i = 0..d-1 at once.  The indices `i`,
`j` of the eigenvector bounds (and the arguments of `alpha`) may be
integer arrays that broadcast, so one call tabulates a bound over a whole
index grid; scalar arguments give Python floats.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .symmat import EigenDecomposition, PerturbationSet, ReadOnly, Spectrum

# Relative tolerance of the pass rule (see `passes`).
PASS_RTOL = 1e-9
# C_m recursion saturates to +inf past this magnitude (bound is vacuous there).
CM_SATURATION = 1e300
# Entries a process keeps in each of its caches, the least recently used
# going first: realizations with their generation recipe and BoundParams
# (the default grid draws 125, the graded scans 60), grid spectra and their
# ratio tables (25 on the default grid), per-dimension index layouts (5) and
# entries templates (15: 5 dimensions by 3 sets of report kinds).  An entry
# that goes is rebuilt bit for bit on its next use.
REALIZATION_CACHE_SIZE = 256
# The smallest normal double; `alpha` forms ratios below it another way.
_TINY = np.finfo(float).tiny


def _value(x):
    """A Python float for a scalar result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _power(x: float, n: int) -> float:
    """x**n for a float x >= 0, or +inf where that overflows, which makes
    the bound it enters vacuous (as a saturated C_m does)."""
    try:
        return x**n
    except OverflowError:
        return math.inf


def passes(slack, bound):
    """The pass rule for an observed-vs-certified comparison: the slack may
    fall below 0 by at most PASS_RTOL relative to the bound."""
    return slack >= -PASS_RTOL * np.abs(bound)


def entry_slack(observed, bound, lower):
    """The slack of each entry: bound - observed, or observed - bound where
    `lower` is true.  It is formed as a difference either way, never
    negated, so an entry whose observation equals its bound has slack +0.0."""
    slack = bound - observed
    np.subtract(observed, bound, out=slack, where=lower)
    return slack


def alpha(a, b):
    """sqrt(min(a, b) / max(a, b)) for positive a, b; symmetric, in (0, 1].

    Where min/max falls below the smallest normal double it is formed as
    sqrt(min) / sqrt(max), which stays positive (at least about 1.6e-316)
    for any positive doubles, so no bound built on it underflows to 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (np.fmin(a, b) <= 0.0).any():  # fmin: a nan beside a value <= 0 still raises
        raise ValueError(f"alpha requires positive arguments, got ({a}, {b})")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    r = lo / hi
    out = np.sqrt(r)
    tiny = r < _TINY
    if tiny.any():
        out = np.where(tiny, np.sqrt(lo) / np.sqrt(hi), out)
    return _value(out)


@functools.lru_cache(maxsize=REALIZATION_CACHE_SIZE)
def ratio_table(spec: Spectrum) -> tuple:
    """(r, a): the read-only d x d tables r[i, j] = min/max of lambda_i and
    lambda_j and a[i, j] = alpha(lambda_i, lambda_j) = sqrt(r[i, j]), built
    once per Spectrum object (it hashes by identity, and its lambdas are
    read-only).  For j >= i, r[i, j] is lambda_j / lambda_i."""
    col = spec.lambdas[:, None]
    a = alpha(col, spec.lambdas)
    r = np.minimum(col, spec.lambdas) / np.maximum(col, spec.lambdas)
    r.flags.writeable = a.flags.writeable = False
    return r, a


class BoundParams(ReadOnly):
    """The constants every bound on one realization is stated with, derived
    from its perturbations: the dimension `d`, the number `m` of rank-one
    terms, the raw max infinity norm `v_inf` (used by the rank-m eigenvalue
    interval) and `v_bound` = V = max(1/sqrt(d), v_inf) (used by the
    eigenvector bounds).  The lambda-free constants of the eigenvector
    bounds are derived once, here: `cm` is the rank-m constant
    `cm_constant`, `c1` the m = 1 constant 5 d^2 V^4, and `w`, `w_psi` the
    refined bound's per-row w = (d - i) V^2 and w psi_inf(w) (read-only
    arrays over i = 0..d-1).  `v1_abs` is |v_1|, read-only, where the
    refined eigenvalue bound can apply (m = 1 and no entry of v_1 is zero),
    and None otherwise.

    Compares and hashes by identity, as its PerturbationSet does;
    `from_perturbations` returns one shared instance per PerturbationSet
    object (its vectors are read-only).
    """

    def __init__(self, perts: PerturbationSet):
        d, v_inf = perts.dim, perts.v_inf
        v_bound = max(1.0 / math.sqrt(d), v_inf)
        with np.errstate(over="ignore"):  # past the double range they are inf
            w = (d - np.arange(d)) * _power(v_bound, 2)
            w_psi = w * psi_inf(w)
        # |v_1|, or a zero that makes v1_abs None where m != 1
        v1_abs = np.abs(perts.vectors[0]) if perts.m == 1 else np.zeros(1)
        w.flags.writeable = w_psi.flags.writeable = v1_abs.flags.writeable = False
        vars(self).update(perts=perts, d=d, m=perts.m, v_bound=v_bound, v_inf=v_inf,
                          c1=5.0 * d**2 * _power(v_bound, 4), w=w, w_psi=w_psi,
                          v1_abs=v1_abs if v1_abs.all() else None)
        vars(self)["cm"] = cm_constant(self)  # reads d, m and v_bound

    @classmethod
    @functools.lru_cache(maxsize=REALIZATION_CACHE_SIZE)
    def from_perturbations(cls, perts: PerturbationSet) -> "BoundParams":
        return cls(perts)


def eigenvalue_bound_rankm(spec: Spectrum, p: BoundParams) -> tuple:
    """The intervals [lambda_i, lambda_i (1 + m d v_inf^2)] certain to contain
    nu_i, as the arrays (lower, upper) over the rows i = 0..d-1.

    The upper end is +inf past the double range (vacuous, like a saturated C_m).
    """
    lam = spec.lambdas
    with np.errstate(over="ignore"):
        return lam, lam * (1.0 + p.m * p.d * _power(p.v_inf, 2))


def eigenvalue_bound_rank1(spec: Spectrum, p: BoundParams):
    """lambda_i (1 + (d-i) vinf |v_{j_i}|) over the rows i = 0..d-1: the
    refined upper bound for m = 1, or None where it does not apply (m != 1,
    a repeated eigenvalue or a zero entry of v); the rank-m interval covers
    those.

    The pivot j_i is the smallest j in {i..d-1} maximizing |v_j| subject to
        lambda_j >= lambda_i (1 - sqrt(lambda_j/lambda_i) (d-i) vinf |v_j|)
    (0-based i, so d-i counts the trailing coordinates including i).
    The feasible set always contains j = i.  One feasibility mask over the
    rows i and the columns j >= i, then a masked argmax whose first maximum
    is the smallest j.

    Never looser than the rank-m interval at m = 1; strictly tighter whenever
    |v_{j_i}| < d vinf / (d - i).
    """
    mag = p.v1_abs
    if mag is None or not spec.is_strict:
        return None
    lam = spec.lambdas
    _, _, _, upper, tail = _layout(spec.d)
    # the table's alpha is sqrt(lambda_j / lambda_i) for j >= i; the mask
    # drops the columns j < i, where it is sqrt(lambda_i / lambda_j).  Past
    # the double range the bound is +inf, vacuous like a saturated C_m
    a = ratio_table(spec)[1]
    with np.errstate(over="ignore"):
        threshold = lam[:, None] * (1.0 - a * tail * p.v_inf * mag)
        feasible = upper & (lam >= threshold)
        ji = np.argmax(np.where(feasible, mag, -1.0), axis=-1)
        return lam * (1.0 + tail[:, 0] * p.v_inf * mag[ji])


def psi(rho: float, w: float) -> float:
    """max(2 (1-rho)^{-1/2}, 2 w / rho) on rho in (0, 1)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if w <= 0.0:
        raise ValueError(f"w must be positive, got {w}")
    return max(2.0 / math.sqrt(1.0 - rho), 2.0 * w / rho)


def psi_inf(w):
    """Exact infimum of psi(., w) over (0, 1).

    The decreasing branch 2w/rho meets the increasing branch
    2(1-rho)^{-1/2} at rho* = 2w / (w + sqrt(w^2 + 4)), where both equal
    w + sqrt(w^2 + 4).  It is +inf where w^2 overflows.
    """
    w = np.asarray(w, dtype=float)
    if (w <= 0.0).any():
        raise ValueError(f"w must be positive, got {w}")
    with np.errstate(over="ignore"):
        return _value(w + np.sqrt(w * w + 4.0))


def capped(c: float, a):
    """min(1, c a) for a constant c >= 0 and alpha values a in (0, 1]: an
    eigenvector bound from its constant and alpha(lambda_i, lambda_j).

    A constant that overflowed to +inf makes the bound the vacuous 1: alpha
    never underflows to 0, so inf * a is +inf, never nan.
    """
    return _value(np.minimum(1.0, c * a))


def eigvec_bound_rank1(spec: Spectrum, p: BoundParams, i, j):
    """min(1, 5 d^2 V^4 alpha(lambda_i, lambda_j)): the m = 1 coordinate bound."""
    return capped(p.c1, alpha(spec.lambdas[i], spec.lambdas[j]))


def eigvec_bound_rank1_refined(spec: Spectrum, p: BoundParams, i, j):
    """Sharper m = 1 coordinate bound, applicable when the eigenvalue ratio
    exceeds 1 + d V^2; returns the trivial bound 1 otherwise.

    Also capped at 1: a unit-vector coordinate never exceeds 1, and the raw
    expression blows up towards the applicability boundary.  Where its
    constant w psi_inf(w) overflows, the bound is the vacuous 1.

    Never looser than the coarse m = 1 bound min(1, 5 x^2 alpha), x = d V^2
    >= 1.  Where the refinement does not apply, alpha >= (1 + x)^(-1/2), so
    5 x^2 alpha >= 5 / sqrt(2) > 1 and both bounds are 1.  Where it applies
    and the coarse bound is below 1, alpha < 1 / (5 x^2); with w <= x,
    w psi_inf(w) <= (1 + sqrt(5)) x^2 and (1 + w) alpha^2 <= 2/25, so the
    refined bound is at most (1 + sqrt(5)) (25/23) x^2 alpha, about
    3.5 x^2 alpha.
    """
    lami, lamj = spec.lambdas[i], spec.lambdas[j]
    mx, mn = np.maximum(lami, lamj), np.minimum(lami, lamj)
    w, k = p.w[i], p.w_psi[i]
    r, sqrt_r = (t[i, j] for t in ratio_table(spec))
    # outside the regime the denominator may vanish, and past the double
    # range the constants overflow; the mask below drops both
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        applicable = mx > (1.0 + p.d * _power(p.v_bound, 2)) * mn
        value = k / (1.0 - (1.0 + w) * r) * sqrt_r
    return _value(np.where(applicable & (k < math.inf), np.minimum(1.0, value), 1.0))


def cm_constant(p: BoundParams) -> float:
    """The rank-m eigenvector constant: C_0 = 1,
    C_{m+1} = 5 d^7 V^4 C_m^5 sqrt(1 + d m V^2).

    Grows doubly exponentially in m; saturates to +inf past 1e300 rather
    than wrapping, which makes the resulting bound explicitly vacuous.
    """
    d = float(p.d)
    v4 = _power(p.v_bound, 4)
    v2 = _power(p.v_bound, 2)
    c = 1.0
    for k in range(p.m):
        c5 = c * c * c * c * c
        nxt = 5.0 * d**7 * v4 * c5 * math.sqrt(1.0 + d * k * v2)
        if not math.isfinite(nxt) or nxt > CM_SATURATION:
            return math.inf
        c = nxt
    return c


def eigvec_bound_rankm(spec: Spectrum, p: BoundParams, i, j):
    """min(1, C_m alpha(lambda_i, lambda_j)): coordinate bound for any m >= 0.

    A saturated C_m = inf gives the trivial bound 1.
    """
    return capped(p.cm, alpha(spec.lambdas[i], spec.lambdas[j]))


class BoundEntry(NamedTuple):
    """One observed-vs-certified comparison, as a row of a report.

    `side` is "upper" when the bound must dominate the observation and
    "lower" when the observation must dominate the bound; slack is
    non-negative in the sound direction either way.  `j` is -1 for the
    eigenvalue kinds, which compare one index only.
    """

    i: int
    j: int
    observed: float
    bound: float
    slack: float
    side: str = "upper"


# One record per BoundEntry, fields in the same order.  Its scalar type is
# np.record, so the rows of an entries array read their fields as
# attributes (e.side, e.i).
ENTRY_DTYPE = np.dtype(
    (
        np.record,
        [
            ("i", np.int64),
            ("j", np.int64),
            ("observed", np.float64),
            ("bound", np.float64),
            ("slack", np.float64),
            ("side", "U5"),
        ],
    )
)

REPORT_KINDS = (
    "eigenvalue-rank1",
    "eigenvalue-rankm",
    "eigvec-rank1",
    "eigvec-rank1-refined",
    "eigvec-rankm",
)


class BoundReport(NamedTuple):
    """All entries for one inequality kind on one instance.

    `entries` is one structured array of ENTRY_DTYPE: its columns read by
    field name (`entries["slack"]`), and iterating it yields records whose
    fields read as attributes (`e.side`, `e.i`).
    """

    kind: str
    entries: np.ndarray
    passed: bool
    notes: tuple = ()

    @property
    def worst_slack(self) -> float:
        if not len(self.entries):
            return math.inf
        return float(self.entries["slack"].min())


def make_report(kind: str, entries, notes=()) -> BoundReport:
    """A report from a structured array of ENTRY_DTYPE or a sequence of
    BoundEntry rows; `passed` applies the pass rule to every entry."""
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    entries = np.asarray(entries, dtype=ENTRY_DTYPE)
    ok = passes(entries["slack"], entries["bound"])
    passed = int(np.count_nonzero(ok)) == ok.size  # cheaper than ok.all() on small arrays
    return BoundReport(kind=kind, entries=entries, passed=passed, notes=tuple(notes))


@functools.lru_cache(maxsize=REALIZATION_CACHE_SIZE)
def _layout(d: int) -> tuple:
    """The index arrays of every report at dimension d, built once per d.

    Returns (idx, i, j, upper, tail), all read-only: idx = 0..d-1, i and j
    the row-major (i, j) pairs of the eigenvector kinds, and over the full
    grid of rows i the mask upper[i, j] = (j >= i) and the column
    tail[i] = d - i of `eigenvalue_bound_rank1`.
    """
    idx = np.arange(d)
    i, j = np.divmod(np.arange(d * d), d)
    upper = idx >= idx[:, None]
    tail = (d - idx)[:, None]
    for arr in (idx, i, j, upper, tail):
        arr.flags.writeable = False
    return idx, i, j, upper, tail


@functools.lru_cache(maxsize=REALIZATION_CACHE_SIZE)
def _entries_template(d: int, kinds: tuple) -> tuple:
    """The entries block of one `reports` call at dimension d whose reports
    are `kinds`, in that order, built once per (d, kinds).

    Returns (raw, lower, starts, stops), all read-only: raw holds the bytes
    of one ENTRY_DTYPE block with every report's i, j and side set (j = -1
    for the eigenvalue kinds, and each rank-m eigenvalue interval as its
    lower then upper entry), lower marks its lower-side entries, and report
    k holds the entries starts[k]:stops[k] (starts an index array, stops a
    tuple).
    The block is kept as bytes because numpy copies those several times
    faster than a record array.
    """
    idx, i, j, _, _ = _layout(d)
    pairs = (np.repeat(idx, 2), -1, np.tile(["lower", "upper"], d))
    columns = {"eigenvalue-rankm": pairs, "eigenvalue-rank1": (idx, -1, "upper")}
    parts = [columns.get(kind, (i, j, "upper")) for kind in kinds]
    stops = tuple(np.cumsum([len(part[0]) for part in parts]).tolist())
    block = np.zeros(stops[-1], dtype=ENTRY_DTYPE)
    for (pi, pj, side), a, b in zip(parts, (0, *stops), stops):
        block["i"][a:b] = pi
        block["j"][a:b] = pj
        block["side"][a:b] = side
    lower = block["side"] == "lower"
    raw = block.view(np.uint8)
    starts = np.array((0, *stops[:-1]))
    raw.flags.writeable = lower.flags.writeable = starts.flags.writeable = False
    return raw, lower, starts, stops


def reports(
    spec: Spectrum, p: BoundParams, eig: EigenDecomposition, bound_scale: float
) -> list:
    """One BoundReport per applicable inequality: each bound kind on (spec, p)
    evaluated once over the whole index grid and compared with the
    eigendecomposition `eig`, every report a slice of one entries block.
    `bound_scale` multiplies every bound before comparison.  The pass rule
    runs once, over the whole block, and each report passes when every
    entry of its slice does (`make_report`'s verdict on that slice)."""
    d = spec.d
    _, i, j, _, _ = _layout(d)
    nus = eig.values

    lo, hi = eigenvalue_bound_rankm(spec, p)
    interval = np.empty(2 * d)  # each interval as its (lower, upper) pair
    interval[0::2] = lo
    interval[1::2] = hi
    # (kind, observed, bound, notes) of each report, in report order
    parts = [("eigenvalue-rankm", nus.repeat(2), interval, ())]

    b6 = eigenvalue_bound_rank1(spec, p)
    if b6 is not None:
        notes = [
            f"refinement wins at i={k + 1}: {b:.6g} < {h:.6g}"
            for k, (b, h) in enumerate(zip(b6.tolist(), hi.tolist()))
            if b < h
        ]
        parts.append(("eigenvalue-rank1", nus, b6, notes))

    # eigenvector kinds: observed |[e_i]_j| at the row-major (i, j) pairs
    observed = np.abs(eig.basis.T).ravel()
    alpha_ij = ratio_table(spec)[1].ravel()
    notes = ["C_m saturated: bound is vacuous (capped at 1)"] if math.isinf(p.cm) else ()
    parts.append(("eigvec-rankm", observed, capped(p.cm, alpha_ij), notes))

    if p.m == 1:
        refined = eigvec_bound_rank1_refined(spec, p, i, j)
        parts.append(("eigvec-rank1", observed, capped(p.c1, alpha_ij), ()))
        parts.append(("eigvec-rank1-refined", observed, refined, ()))

    # one entries block for every report: i, j and side from the template,
    # then the observed and bound columns and the slack
    raw, lower, starts, stops = _entries_template(d, tuple(part[0] for part in parts))
    block = np.frombuffer(raw.copy(), ENTRY_DTYPE)  # skips the field check .view() makes
    obs = np.concatenate([part[1] for part in parts])
    bound = np.concatenate([part[2] for part in parts])
    bound *= bound_scale
    slack = entry_slack(obs, bound, lower)
    block["observed"] = obs
    block["bound"] = bound
    block["slack"] = slack
    verdicts = np.logical_and.reduceat(passes(slack, bound), starts).tolist()
    return [
        BoundReport(kind, block[a:b], passed, tuple(notes))
        for (kind, _, _, notes), a, b, passed in zip(parts, starts.tolist(), stops, verdicts)
    ]
