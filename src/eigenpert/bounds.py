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
import sys
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


def passes(slack, bound):
    """The pass rule for an observed-vs-certified comparison."""
    return slack >= -PASS_RTOL * np.maximum(1.0, bound)


def alpha(a, b):
    """sqrt(min(a, b) / max(a, b)) for positive a, b; symmetric, in (0, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
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
        return cls(d=perts.dim, m=perts.m, v_bound=perts.v_bound, v_inf=perts.v_inf)


def eigenvalue_bound_rankm(spec: Spectrum, p: BoundParams, i) -> tuple:
    """Interval [lambda_i, lambda_i (1 + m d v_inf^2)] certain to contain nu_i."""
    lam = spec.lambdas[i]
    return _value(lam), _value(lam * (1.0 + p.m * p.d * p.v_inf**2))


def j_index(spec: Spectrum, v, i: int) -> int:
    """The coordinate the rank-one eigenvalue refinement pivots on.

    Smallest j in {i..d-1} maximizing |v_j| subject to
        lambda_j >= lambda_i (1 - sqrt(lambda_j/lambda_i) (d-i) vinf |v_j|)
    (0-based i, so d-i counts the trailing coordinates including i).
    The feasible set always contains j = i.
    """
    return int(_j_indices(spec, np.asarray(v, dtype=float), i))


def _j_indices(spec: Spectrum, v: np.ndarray, i) -> np.ndarray:
    """`j_index` for every index in the array i: one feasibility mask over
    the rows i and the columns j >= i, then a masked argmax whose first
    maximum is the smallest j."""
    lam = spec.lambdas
    d = spec.d
    i = np.asarray(i)
    out_of_range = (i < 0) | (i >= d)
    if np.any(out_of_range):
        raise IndexError(f"index {i[out_of_range].flat[0]} out of range for d={d}")
    if not spec.is_strict:
        raise JIndexError(
            "spectrum has repeated eigenvalues; use the rank-m eigenvalue bound"
        )
    if np.any(v == 0.0):
        raise JIndexError(
            "perturbation vector has zero entries; use the rank-m eigenvalue bound"
        )
    mag = np.abs(v)
    vinf = float(np.max(mag))
    lam_i = lam[i][..., None]
    tail = (d - i)[..., None]
    threshold = lam_i * (1.0 - np.sqrt(lam / lam_i) * tail * vinf * mag)
    feasible = (np.arange(d) >= i[..., None]) & (lam >= threshold)
    return np.argmax(np.where(feasible, mag, -1.0), axis=-1)


def eigenvalue_bound_rank1(spec: Spectrum, v, i):
    """lambda_i (1 + (d-i) vinf |v_{j_i}|): the refined upper bound for m = 1.

    Never looser than the rank-m interval at m = 1; strictly tighter whenever
    |v_{j_i}| < d vinf / (d - i).
    """
    v = np.asarray(v, dtype=float)
    i = np.asarray(i)
    ji = _j_indices(spec, v, i)
    vinf = float(np.max(np.abs(v)))
    return _value(spec.lambdas[i] * (1.0 + (spec.d - i) * vinf * np.abs(v[ji])))


def psi(rho: float, w: float) -> float:
    """max(2 (1-rho)^{-1/2}, 2 w / rho) on rho in (0, 1)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if w <= 0.0:
        raise ValueError(f"w must be positive, got {w}")
    return max(2.0 / math.sqrt(1.0 - rho), 2.0 * w / rho)


class PsiInfimum(NamedTuple):
    value: float
    rho: float


def psi_inf(w) -> PsiInfimum:
    """Exact infimum of psi(., w) over (0, 1).

    The decreasing branch 2w/rho meets the increasing branch
    2(1-rho)^{-1/2} at rho* = 2w / (w + sqrt(w^2 + 4)), where both equal
    w + sqrt(w^2 + 4).
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError(f"w must be positive, got {w}")
    root = np.sqrt(w * w + 4.0)
    return PsiInfimum(value=_value(w + root), rho=_value(2.0 * w / (w + root)))


def eigvec_bound_rank1(spec: Spectrum, p: BoundParams, i, j):
    """min(1, 5 d^2 V^4 alpha(lambda_i, lambda_j)): the m = 1 coordinate bound."""
    a = alpha(spec.lambdas[i], spec.lambdas[j])
    return _value(np.minimum(1.0, 5.0 * p.d**2 * p.v_bound**4 * a))


def eigvec_bound_rank1_refined(spec: Spectrum, p: BoundParams, i, j):
    """Sharper m = 1 coordinate bound, applicable when the eigenvalue ratio
    exceeds 1 + d V^2; returns the trivial bound 1 otherwise.

    Also capped at 1: a unit-vector coordinate never exceeds 1, and the raw
    expression blows up towards the applicability boundary.
    """
    lami, lamj = spec.lambdas[i], spec.lambdas[j]
    mx, mn = np.maximum(lami, lamj), np.minimum(lami, lamj)
    v2 = p.v_bound**2
    applicable = mx > (1.0 + p.d * v2) * mn
    r = mn / mx
    w = (p.d - i) * v2
    # outside the regime the denominator may vanish; those entries are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        value = w * psi_inf(w).value / (1.0 - (1.0 + w) * r) * np.sqrt(r)
    return _value(np.where(applicable, np.minimum(1.0, value), 1.0))


def cm_constant(p: BoundParams) -> float:
    """The rank-m eigenvector constant: C_0 = 1,
    C_{m+1} = 5 d^7 V^4 C_m^5 sqrt(1 + d m V^2).

    Grows doubly exponentially in m; saturates to +inf past 1e300 rather
    than wrapping, which makes the resulting bound explicitly vacuous.
    """
    d = float(p.d)
    v4 = p.v_bound**4
    v2 = p.v_bound**2
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

    A saturated C_m = inf gives the trivial bound 1 (alpha is positive).
    """
    a = alpha(spec.lambdas[i], spec.lambdas[j])
    return _value(np.minimum(1.0, cm_constant(p) * a))


@dataclass(frozen=True, slots=True)
class BoundEntry:
    """One observed-vs-certified comparison.

    `side` is "upper" when the bound must dominate the observation and
    "lower" when the observation must dominate the bound; slack is
    non-negative in the sound direction either way.
    """

    i: int
    j: int | None
    observed: float
    bound: float
    slack: float
    side: str = "upper"


REPORT_KINDS = (
    "eigenvalue-rank1",
    "eigenvalue-rankm",
    "eigvec-rank1",
    "eigvec-rank1-refined",
    "eigvec-rankm",
)


@dataclass(frozen=True)
class BoundReport:
    """All entries for one inequality kind on one instance."""

    kind: str
    entries: tuple
    passed: bool
    notes: tuple = ()

    @property
    def worst_slack(self) -> float:
        if not self.entries:
            return math.inf
        return min(e.slack for e in self.entries)


def make_report(kind: str, entries, notes=()) -> BoundReport:
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    entries = tuple(entries)
    slack = np.array([e.slack for e in entries], dtype=float)
    bound = np.array([e.bound for e in entries], dtype=float)
    passed = bool(np.all(passes(slack, bound)))
    return BoundReport(kind=kind, entries=entries, passed=passed, notes=tuple(notes))


def report_from_arrays(kind: str, i, j, observed, bound, side="upper", notes=()) -> BoundReport:
    """One report from parallel arrays: entry k compares observed[k] with
    bound[k] at (i[k], j[k]).  `j` is None for the eigenvalue kinds; `side`
    is one string for every entry or an array of them."""
    side = np.broadcast_to(side, bound.shape)
    slack = np.where(side == "upper", bound - observed, observed - bound)
    js = [None] * len(i) if j is None else j.tolist()
    sides = map(sys.intern, side.tolist())  # one shared str per side, not one per entry
    columns = (i.tolist(), js, observed.tolist(), bound.tolist(), slack.tolist(), sides)
    return make_report(kind, map(BoundEntry, *columns), notes)
