"""Certified eigenvalue/eigenvector bounds for low-rank perturbations.

Every function here is evaluated from the *unperturbed* spectrum and the
perturbation directions alone -- never from the perturbed matrix -- so the
harness can compare predictions against oracle truth.

Indices are 0-based throughout the library; the CLI translates to the
1-based convention used in file formats and printed tables.  The indices
`i`, `j` (and the arguments of `alpha`) may be integer arrays that
broadcast, so one call tabulates a bound over a whole index grid; scalar
arguments give Python floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .symmat import PerturbationSet, Spectrum

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
    """The pass rule for an observed-vs-certified comparison."""
    return slack >= -PASS_RTOL * np.maximum(1.0, bound)


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


@dataclass(frozen=True)
class BoundParams:
    """The constants every bound on one realization is stated with, derived
    from its perturbations: the dimension `d`, the number `m` of rank-one
    terms, the raw max infinity norm `v_inf` (used by the rank-m eigenvalue
    interval) and `v_bound` = V = max(1/sqrt(d), v_inf) (used by the
    eigenvector bounds).  The lambda-free constants of the eigenvector
    bounds are derived once, here: `cm` is the rank-m constant
    `cm_constant`, `c1` the m = 1 constant 5 d^2 V^4, and `w`, `w_psi` the
    refined bound's per-row w = (d - i) V^2 and w psi_inf(w) (read-only
    arrays over i = 0..d-1).

    `from_perturbations` returns one shared instance per PerturbationSet
    object (it hashes by identity, and its vectors are read-only).
    """

    perts: PerturbationSet = field(repr=False)
    d: int = field(init=False)
    m: int = field(init=False)
    v_bound: float = field(init=False)
    v_inf: float = field(init=False)
    cm: float = field(init=False, repr=False, compare=False)
    c1: float = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    w_psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, v_inf = self.perts.dim, self.perts.v_inf
        v_bound = max(1.0 / math.sqrt(d), v_inf)
        w = (d - np.arange(d)) * _power(v_bound, 2)
        with np.errstate(over="ignore"):  # past the double range it is inf
            w_psi = w * psi_inf(w)
        w.flags.writeable = w_psi.flags.writeable = False
        for name, value in (("d", d), ("m", self.perts.m), ("v_bound", v_bound), ("v_inf", v_inf),
                            ("c1", 5.0 * d**2 * _power(v_bound, 4)), ("w", w), ("w_psi", w_psi)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cm", cm_constant(self))  # reads d, m and v_bound

    @classmethod
    @functools.lru_cache(maxsize=REALIZATION_CACHE_SIZE)
    def from_perturbations(cls, perts: PerturbationSet) -> "BoundParams":
        return cls(perts)


def eigenvalue_bound_rankm(spec: Spectrum, p: BoundParams, i) -> tuple:
    """Interval [lambda_i, lambda_i (1 + m d v_inf^2)] certain to contain nu_i.

    The upper end is +inf past the double range (vacuous, like a saturated C_m).
    """
    lam = spec.lambdas[i]
    with np.errstate(over="ignore"):
        return _value(lam), _value(lam * (1.0 + p.m * p.d * _power(p.v_inf, 2)))


def eigenvalue_bound_rank1(spec: Spectrum, p: BoundParams, i):
    """lambda_i (1 + (d-i) vinf |v_{j_i}|): the refined upper bound for m = 1,
    or None where it does not apply (m != 1, a repeated eigenvalue or a zero
    entry of v); the rank-m interval covers those.

    The pivot j_i is the smallest j in {i..d-1} maximizing |v_j| subject to
        lambda_j >= lambda_i (1 - sqrt(lambda_j/lambda_i) (d-i) vinf |v_j|)
    (0-based i, so d-i counts the trailing coordinates including i).
    The feasible set always contains j = i.  For an array i, one feasibility
    mask over the rows i and the columns j >= i, then a masked argmax whose
    first maximum is the smallest j.

    Never looser than the rank-m interval at m = 1; strictly tighter whenever
    |v_{j_i}| < d vinf / (d - i).
    """
    if p.m != 1 or not spec.is_strict:
        return None
    mag = np.abs(p.perts.vectors[0])
    if not mag.all():
        return None
    lam = spec.lambdas
    d = spec.d
    i = np.asarray(i)
    out_of_range = (i < 0) | (i >= d)
    if out_of_range.any():
        raise IndexError(f"index {i[out_of_range].flat[0]} out of range for d={d}")
    lam_i = lam[i][..., None]
    tail = (d - i)[..., None]
    # sqrt(lambda_j / lambda_i) for j >= i; the mask drops the columns j < i,
    # where the table holds lambda_i / lambda_j.  Past the double range the
    # bound is +inf, vacuous like a saturated C_m
    with np.errstate(over="ignore"):
        threshold = lam_i * (1.0 - ratio_table(spec)[1][i] * tail * p.v_inf * mag)
        feasible = (np.arange(d) >= i[..., None]) & (lam >= threshold)
        ji = np.argmax(np.where(feasible, mag, -1.0), axis=-1)
        return _value(lam[i] * (1.0 + (d - i) * p.v_inf * mag[ji]))


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
    """min(1, c a) for a constant c >= 0 and alpha values a in [0, 1]: an
    eigenvector bound from its constant and alpha(lambda_i, lambda_j).

    A constant that overflowed to +inf makes the bound vacuous: 1, also where
    alpha underflowed to 0 (where inf * 0 would give nan).
    """
    return _value(np.minimum(1.0, c * a) if c < math.inf else np.ones_like(a))


def eigvec_bound_rank1(spec: Spectrum, p: BoundParams, i, j):
    """min(1, 5 d^2 V^4 alpha(lambda_i, lambda_j)): the m = 1 coordinate bound."""
    return capped(p.c1, alpha(spec.lambdas[i], spec.lambdas[j]))


def eigvec_bound_rank1_refined(spec: Spectrum, p: BoundParams, i, j):
    """Sharper m = 1 coordinate bound, applicable when the eigenvalue ratio
    exceeds 1 + d V^2; returns the trivial bound 1 otherwise.

    Also capped at 1: a unit-vector coordinate never exceeds 1, and the raw
    expression blows up towards the applicability boundary.  Where its
    constant w psi_inf(w) overflows, the bound is the vacuous 1.
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
# np.record, the type a recarray view needs, so the view converts nothing.
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


@dataclass(frozen=True)
class BoundReport:
    """All entries for one inequality kind on one instance.

    `entries` is one record array of ENTRY_DTYPE: its columns read as
    attributes (`entries.slack`), and iterating it yields records whose
    fields do too (`e.side`, `e.i`).
    """

    kind: str
    entries: np.recarray
    passed: bool
    notes: tuple = ()

    @property
    def worst_slack(self) -> float:
        if not len(self.entries):
            return math.inf
        return float(self.entries.slack.min())


def make_report(kind: str, entries, notes=()) -> BoundReport:
    """A report from a record array of ENTRY_DTYPE or a sequence of
    BoundEntry rows; `passed` applies the pass rule to every entry."""
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    entries = np.asarray(entries, dtype=ENTRY_DTYPE)
    ok = passes(entries["slack"], entries["bound"])
    passed = int(np.count_nonzero(ok)) == ok.size  # cheaper than ok.all() on small arrays
    return BoundReport(
        kind=kind, entries=entries.view(np.recarray), passed=passed, notes=tuple(notes)
    )
