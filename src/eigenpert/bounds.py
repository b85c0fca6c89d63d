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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .symmat import PerturbationSet, Spectrum

# Relative tolerance of the pass rule (see `passes`).
PASS_RTOL = 1e-9
# C_m recursion saturates to +inf past this magnitude (bound is vacuous there).
CM_SATURATION = 1e300


class JIndexError(ValueError):
    """Rank-one eigenvalue refinement is not applicable; use the rank-m bound."""


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


def alpha(a, b):
    """sqrt(min(a, b) / max(a, b)) for positive a, b; symmetric, in (0, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (a <= 0.0).any() or (b <= 0.0).any():
        raise ValueError(f"alpha requires positive arguments, got ({a}, {b})")
    return _value(np.sqrt(np.minimum(a, b) / np.maximum(a, b)))


@dataclass(frozen=True)
class BoundParams:
    """Dimension, number of rank-one terms, and the two infinity-norm constants.

    `v_bound` is floored at 1/sqrt(d) (used by the eigenvector bounds);
    `v_inf` is the raw max infinity norm (used by the rank-m eigenvalue
    interval, which is stated without the floor).
    """

    d: int
    m: int
    v_bound: float
    v_inf: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        floor = 1.0 / math.sqrt(self.d)
        if self.v_bound < floor * (1.0 - 1e-12):
            raise ValueError(
                f"v_bound {self.v_bound} is below the 1/sqrt(d) floor {floor}"
            )
        if self.v_inf < 0.0:
            raise ValueError("v_inf must be non-negative")

    @classmethod
    def from_perturbations(cls, perts: PerturbationSet) -> "BoundParams":
        v_inf = perts.v_inf
        v_bound = max(1.0 / math.sqrt(perts.dim), v_inf)
        return cls(d=perts.dim, m=perts.m, v_bound=v_bound, v_inf=v_inf)


def eigenvalue_bound_rankm(spec: Spectrum, p: BoundParams, i) -> tuple:
    """Interval [lambda_i, lambda_i (1 + m d v_inf^2)] certain to contain nu_i.

    The upper end is +inf past the double range (vacuous, like a saturated C_m).
    """
    lam = spec.lambdas[i]
    with np.errstate(over="ignore"):
        return _value(lam), _value(lam * (1.0 + p.m * p.d * _power(p.v_inf, 2)))


def j_index(spec: Spectrum, v, i):
    """The coordinate the rank-one eigenvalue refinement pivots on.

    Smallest j in {i..d-1} maximizing |v_j| subject to
        lambda_j >= lambda_i (1 - sqrt(lambda_j/lambda_i) (d-i) vinf |v_j|)
    (0-based i, so d-i counts the trailing coordinates including i).
    The feasible set always contains j = i.  For an array i, one feasibility
    mask over the rows i and the columns j >= i, then a masked argmax whose
    first maximum is the smallest j.
    """
    lam = spec.lambdas
    d = spec.d
    v = np.asarray(v, dtype=float)
    i = np.asarray(i)
    out_of_range = (i < 0) | (i >= d)
    if out_of_range.any():
        raise IndexError(f"index {i[out_of_range].flat[0]} out of range for d={d}")
    if not spec.is_strict:
        raise JIndexError(
            "spectrum has repeated eigenvalues; use the rank-m eigenvalue bound"
        )
    if (v == 0.0).any():
        raise JIndexError(
            "perturbation vector has zero entries; use the rank-m eigenvalue bound"
        )
    mag = np.abs(v)
    vinf = float(mag.max())
    lam_i = lam[i][..., None]
    tail = (d - i)[..., None]
    # lambda_j / lambda_i may overflow in the columns j < i, which the mask drops
    with np.errstate(over="ignore"):
        threshold = lam_i * (1.0 - np.sqrt(lam / lam_i) * tail * vinf * mag)
    feasible = (np.arange(d) >= i[..., None]) & (lam >= threshold)
    ji = np.argmax(np.where(feasible, mag, -1.0), axis=-1)
    return int(ji) if np.ndim(ji) == 0 else ji


def eigenvalue_bound_rank1(spec: Spectrum, v, i):
    """lambda_i (1 + (d-i) vinf |v_{j_i}|): the refined upper bound for m = 1.

    Never looser than the rank-m interval at m = 1; strictly tighter whenever
    |v_{j_i}| < d vinf / (d - i).
    """
    v = np.asarray(v, dtype=float)
    i = np.asarray(i)
    ji = j_index(spec, v, i)
    vinf = float(np.abs(v).max())
    # past the double range the bound is +inf, vacuous like a saturated C_m
    with np.errstate(over="ignore"):
        return _value(spec.lambdas[i] * (1.0 + (spec.d - i) * vinf * np.abs(v[ji])))


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


def _capped(c: float, a):
    """min(1, c a) for a constant c >= 0 and alpha values a in [0, 1].

    A constant that overflowed to +inf makes the bound vacuous: 1, also where
    alpha underflowed to 0 (where inf * 0 would give nan).
    """
    return _value(np.minimum(1.0, c * a) if c < math.inf else np.ones_like(a))


def eigvec_bound_rank1(spec: Spectrum, p: BoundParams, i, j):
    """min(1, 5 d^2 V^4 alpha(lambda_i, lambda_j)): the m = 1 coordinate bound."""
    a = alpha(spec.lambdas[i], spec.lambdas[j])
    return _capped(5.0 * p.d**2 * _power(p.v_bound, 4), a)


def eigvec_bound_rank1_refined(spec: Spectrum, p: BoundParams, i, j):
    """Sharper m = 1 coordinate bound, applicable when the eigenvalue ratio
    exceeds 1 + d V^2; returns the trivial bound 1 otherwise.

    Also capped at 1: a unit-vector coordinate never exceeds 1, and the raw
    expression blows up towards the applicability boundary.  Where its
    constant w psi_inf(w) overflows, the bound is the vacuous 1.
    """
    lami, lamj = spec.lambdas[i], spec.lambdas[j]
    mx, mn = np.maximum(lami, lamj), np.minimum(lami, lamj)
    v2 = _power(p.v_bound, 2)
    # outside the regime the denominator may vanish, and past the double
    # range the constants overflow; the mask below drops both
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        applicable = mx > (1.0 + p.d * v2) * mn
        r = mn / mx
        w = (p.d - i) * v2
        k = w * psi_inf(w)
        value = k / (1.0 - (1.0 + w) * r) * np.sqrt(r)
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


def eigvec_bound_rankm(spec: Spectrum, p: BoundParams, i, j, cm: float | None = None):
    """min(1, C_m alpha(lambda_i, lambda_j)): coordinate bound for any m >= 0.

    `cm` is `cm_constant(p)` when the caller has it already.  A saturated
    C_m = inf gives the trivial bound 1.
    """
    a = alpha(spec.lambdas[i], spec.lambdas[j])
    return _capped(cm_constant(p) if cm is None else cm, a)


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
    passed = bool(passes(entries["slack"], entries["bound"]).all())
    return BoundReport(
        kind=kind, entries=entries.view(np.recarray), passed=passed, notes=tuple(notes)
    )


def report_from_arrays(kind: str, i, j, observed, bound, side="upper", notes=()) -> BoundReport:
    """One report from parallel arrays: entry k compares observed[k] with
    bound[k] at (i[k], j[k]).  `j` is None for the eigenvalue kinds (stored
    as -1); `side` is one string for every entry or an array of them."""
    observed = np.asarray(observed, dtype=float)
    bound = np.asarray(bound, dtype=float)
    side = np.asarray(side)
    entries = np.empty(len(bound), dtype=ENTRY_DTYPE)
    entries["i"] = i
    entries["j"] = -1 if j is None else j
    entries["observed"] = observed
    entries["bound"] = bound
    entries["side"] = side
    entries["slack"] = np.where(side == "upper", bound - observed, observed - bound)
    return make_report(kind, entries, notes)
