"""Instance generation, the oracle runs of certification, and the tightness scan.

Instances are generated from a SplitMix64 stream plus a Marsaglia polar
transform, so every vector is reproducible bit-exactly from (seed, recipe)
alone.  The per-vector stream is derived from (seed, d, m, vector index)
and deliberately *not* from lambda_1: every condition number of one
(seed, d, m) uses the same Gaussian realization, which a process draws once
and shares between `gen_instance`, `certify` and `scan` (see `_grid_perts`).

`Instance` and the oracle live in `symmat`, and every report is built by
`bounds.reports`; `certify` and `scan` call the oracle as `_oracle`.
`rankone` is imported only by the m = 1 cross-check of `certify`, which
hands `secular_eigenvalues` the instance's spectrum and its one direction,
so a run with no m = 1 instance never loads it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from .symmat import (
    ConvergenceError,
    EigenDecomposition,
    InputError,
    Instance,
    PerturbationSet,
    ReadOnly,
    Spectrum,
)
from .symmat import oracle as _oracle  # looked up at call time, so it can be patched

_MASK64 = (1 << 64) - 1
# points below this condition number are excluded from slope fits: constant
# factors and the cap at 1 pollute the power law there
SLOPE_GATE_LAMBDA1 = 100.0
CROSSCHECK_RTOL = 1e-8

DEFAULT_DIMS = (2, 3, 5, 10, 20)
DEFAULT_MS = (0, 1, 2, 3, 5)
DEFAULT_LAMBDA1S = (1.0, 1e2, 1e4, 1e6, 1e8)
DEFAULT_N_SEEDS = 5


class OracleMismatchError(ConvergenceError):
    """Jacobi and secular routes disagree beyond tolerance on the same input."""


class InsufficientDataError(ValueError):
    """Too few points survive the asymptotic gate for a slope fit."""


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SplitMix64:
    """Tiny deterministic 64-bit PRNG (SplitMix64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_raw(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        return _mix64(self._state)

    def next_unit(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_raw() >> 11) * 2.0**-53


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit stream seed."""
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = _mix64(acc ^ (int(p) & _MASK64))
    return acc


def gaussian_vector(d: int, seed: int) -> np.ndarray:
    """d standard Gaussians from the polar (Marsaglia) transform."""
    rng = SplitMix64(seed)
    out = np.empty(d)
    k = 0
    while k < d:
        u = 2.0 * rng.next_unit() - 1.0
        v = 2.0 * rng.next_unit() - 1.0
        s = u * u + v * v
        if s <= 0.0 or s >= 1.0:
            continue
        f = math.sqrt(-2.0 * math.log(s) / s)
        out[k] = u * f
        k += 1
        if k < d:
            out[k] = v * f
            k += 1
    return out


def gen_instance(d: int, m: int, lambda1: float, seed: int) -> Instance:
    """Geometric spectrum between lambda_1 and 1, plus m seeded Gaussian vectors.

    lambda_j = lambda_1^((d-j)/(d-1)) for 1-based j, i.e. log-uniformly spaced
    with lambda_d = 1.  Vector streams do not depend on lambda_1.
    """
    perts = _grid_perts(d, m, seed)
    if lambda1 < 1.0:
        raise InputError(f"lambda1 must be >= 1, got {lambda1}")
    return Instance(
        spectrum=_grid_spectrum(d, lambda1),
        perts=perts,
        seed=seed,
        meta=f"grid(d={d},m={m},lambda1={lambda1!r})",
    )


@functools.lru_cache(maxsize=bnd.REALIZATION_CACHE_SIZE)
def _grid_perts(d: int, m: int, seed: int) -> PerturbationSet:
    """The seeded perturbations of `gen_instance`, drawn once per process.

    Cached on (d, m, seed), keeping the `bounds.REALIZATION_CACHE_SIZE` most
    recently used, so every Instance of one realization shares the one
    PerturbationSet and, through it, one `BoundParams`.  A d or m that fails
    validation raises on every call: a raise is not cached.
    """
    if d < 2:
        raise InputError(f"d must be >= 2 (the ratio grid is undefined at d={d})")
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    vectors = tuple(gaussian_vector(d, derive_seed(seed, d, m, k)) for k in range(m))
    return PerturbationSet(vectors, dim=d)


@functools.lru_cache(maxsize=bnd.REALIZATION_CACHE_SIZE)
def _grid_spectrum(d: int, lambda1: float) -> Spectrum:
    """The geometric spectrum of `gen_instance`, one Spectrum object per
    (d, lambda_1), which every realization at that point shares, and with it
    the ratio table `bounds` keeps per Spectrum.  A lambda_1 whose spectrum
    fails validation raises on every call."""
    expo = np.array([(d - 1 - j) / (d - 1) for j in range(d)])
    return Spectrum(lambda1**expo)


def certify(instance: Instance, bound_scale: float = 1.0) -> list:
    """Evaluate every applicable bound against the oracle decomposition.

    Diagonalizes the perturbed matrix with the oracle (cross-checked
    against the secular route when m = 1) and returns `bounds.reports` on
    it: one BoundReport per applicable inequality.  `bound_scale`
    multiplies every bound before comparison; values below 1 are used by
    the falsification self-test.  A non-finite `bound_scale` raises
    InputError: it would make the pass tolerance infinite or every slack
    nan.
    """
    if not math.isfinite(bound_scale):
        raise InputError(f"bound scale must be finite, got {bound_scale!r}")
    eig = _oracle(instance)
    if instance.perts.m == 1:
        _crosscheck_rankone(instance, eig)
    params = bnd.BoundParams.from_perturbations(instance.perts)
    return bnd.reports(instance.spectrum, params, eig, bound_scale)


def _crosscheck_rankone(instance: Instance, oracle: EigenDecomposition) -> None:
    """Jacobi vs secular eigenvalues must agree to CROSSCHECK_RTOL."""
    from .rankone import secular_eigenvalues  # only m = 1 loads it

    sec = secular_eigenvalues(instance.spectrum, instance.perts.vectors[0])
    diff = np.abs(sec.values - oracle.values)
    tol = CROSSCHECK_RTOL * np.maximum(1.0, np.abs(oracle.values))
    if (diff > tol).any():
        i = int(np.argmax(diff - tol))
        raise OracleMismatchError(
            f"secular and Jacobi eigenvalues disagree at index {i + 1}: "
            f"{float(sec.values[i])!r} vs {float(oracle.values[i])!r} "
            f"(instance seed={instance.seed}, meta={instance.meta})"
        )


class GridPoint(NamedTuple):
    d: int
    m: int
    lambda1: float
    seed: int


def default_grid(
    dims=DEFAULT_DIMS,
    ms=DEFAULT_MS,
    lambda1s=DEFAULT_LAMBDA1S,
    seeds=range(DEFAULT_N_SEEDS),
) -> list:
    """The product grid of dims x ranks x condition numbers x seeds; by
    default the 625-point certification grid (5 of each)."""
    return [
        GridPoint(d, m, lam1, seed)
        for d in dims
        for m in ms
        for lam1 in lambda1s
        for seed in seeds
    ]


class CertifySummary(NamedTuple):
    n_instances: int
    n_reports: int
    failures: tuple  # (GridPoint, kind) pairs
    worst_slack: dict  # kind -> most negative slack seen

    @property
    def passed(self) -> bool:
        return not self.failures


def certify_grid(points, bound_scale: float = 1.0) -> CertifySummary:
    """Certify every grid point, in grid order."""
    points = list(points)
    failures = []
    worst: dict[str, float] = {}
    n_reports = 0
    for pt in points:
        for rep in certify(gen_instance(pt.d, pt.m, pt.lambda1, pt.seed), bound_scale):
            n_reports += 1
            worst[rep.kind] = min(worst.get(rep.kind, math.inf), rep.worst_slack)
            if not rep.passed:
                failures.append((pt, rep.kind))
    return CertifySummary(
        n_instances=len(points),
        n_reports=n_reports,
        failures=tuple(failures),
        worst_slack=worst,
    )


class ScanRecord(ReadOnly):
    """One tightness-scan sample: |[e_1]_j| against its certified bounds.

    `j` is the 1-based coordinate label used by file formats and plots;
    `bound_rank1` is nan unless m = 1.  Two records compare equal field by
    field.
    """

    def __init__(self, d: int, m: int, j: int, lambda1: float, ratio: float, observed: float,
                 bound_rankm: float, bound_rank1: float, seed: int):
        limit = min(bound_rankm, bound_rank1)  # a nan bound_rank1 is never smaller
        if not bnd.passes(limit - observed, limit):
            raise ValueError(
                f"scan record violates soundness: observed {observed!r} "
                f"exceeds bound {limit!r} (d={d}, m={m}, j={j}, "
                f"lambda1={lambda1!r}, seed={seed})"
            )
        vars(self).update(d=d, m=m, j=j, lambda1=lambda1, ratio=ratio, observed=observed,
                          bound_rankm=bound_rankm, bound_rank1=bound_rank1, seed=seed)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is ScanRecord else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))


def scan(d: int, m: int, j: int, lambda1_grid, seed: int) -> list:
    """Sample |[e_1]_j| over a lambda_1 grid with a shared Gaussian realization.

    `j` is 1-based (2 <= j <= d).  The grid must be ascending with every
    value >= 1.  Records come back in grid order.  The realization and the
    bound parameters are built once; each grid point builds only its
    spectrum and diagonalizes.
    """
    grid = [float(x) for x in lambda1_grid]
    if not grid:
        raise InputError("lambda1 grid is empty")
    if any(x < 1.0 for x in grid):
        raise InputError("lambda1 grid values must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("lambda1 grid must be strictly ascending")
    perts = _grid_perts(d, m, seed)  # rejects d < 2 before j is judged
    if not 2 <= j <= d:
        raise InputError(f"j must lie in 2..d={d}, got {j}")
    params = bnd.BoundParams.from_perturbations(perts)
    records = []
    for lam1 in grid:
        inst = gen_instance(d, m, lam1, seed)
        eig = _oracle(inst)
        b8 = bnd.eigvec_bound_rank1(inst.spectrum, params, 0, j - 1) if m == 1 else math.nan
        records.append(
            ScanRecord(
                d=d,
                m=m,
                j=j,
                lambda1=lam1,
                ratio=lam1 / float(inst.spectrum.lambdas[j - 1]),
                observed=abs(float(eig.basis[j - 1, 0])),
                bound_rankm=bnd.eigvec_bound_rankm(inst.spectrum, params, 0, j - 1),
                bound_rank1=b8,
                seed=seed,
            )
        )
    return records


class SlopeFit(NamedTuple):
    """OLS fit of log10(observed) against log10(ratio) on the gated points."""

    slope: float
    intercept: float
    residual_rms: float
    count: int


def fit_slope(records) -> SlopeFit:
    """Least-squares slope over records with lambda_1 >= SLOPE_GATE_LAMBDA1.

    The gate keeps the fit in the asymptotic regime; it is applied to the
    condition number lambda_1 (equal to the pair ratio for the j = d
    protocol).  Requires at least 3 gated points with positive observed
    values.
    """
    gated = [r for r in records if r.lambda1 >= SLOPE_GATE_LAMBDA1]
    if any(r.observed <= 0.0 for r in gated):
        raise ValueError(
            "observed values must be positive for a log-log fit "
            "(m = 0 scans are exactly zero and are not fittable)"
        )
    if len(gated) < 3:
        raise InsufficientDataError(
            f"slope fit needs >= 3 gated points, got {len(gated)}"
        )
    x = np.array([math.log10(r.ratio) for r in gated])
    y = np.array([math.log10(r.observed) for r in gated])
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return SlopeFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        count=len(gated),
    )
