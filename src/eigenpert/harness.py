"""Instance generation, randomized bound certification, and the tightness scan.

Instances are generated from a SplitMix64 stream plus a Marsaglia polar
transform, so every vector is reproducible bit-exactly from (seed, recipe)
alone.  The per-vector stream is derived from (seed, d, m, vector index)
and deliberately *not* from lambda_1: every condition number of one
(seed, d, m) uses the same Gaussian realization, which a process draws once
and shares between `gen_instance`, `certify` and `scan` (see `_grid_recipe`).

`Instance` and the oracle live in `symmat`; `certify` and `scan` call the
oracle as `_oracle`.  `rankone` is imported only by the m = 1 cross-check
of `certify`, so a run with no m = 1 instance never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from .symmat import (
    ConvergenceError,
    EigenDecomposition,
    InputError,
    Instance,
    PerturbationSet,
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
    _, instance = _grid_recipe(d, m, seed)
    return instance(lambda1)


@functools.lru_cache(maxsize=bnd.REALIZATION_CACHE_SIZE)
def _grid_recipe(d: int, m: int, seed: int) -> tuple:
    """The lambda_1-free part of `gen_instance`, drawn once per process.

    Returns the seeded PerturbationSet and a function from lambda_1 to the
    Instance at that condition number.  The pair is cached on (d, m, seed),
    keeping the `bounds.REALIZATION_CACHE_SIZE` most recently used, so every
    Instance of one realization, from `gen_instance` or `scan`, shares the
    one PerturbationSet and, through it, one `BoundParams`; each Spectrum
    comes from `_grid_spectrum`.  A d or m that fails validation raises on
    every call: a raise is not cached.
    """
    if d < 2:
        raise InputError(f"d must be >= 2 (the ratio grid is undefined at d={d})")
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    vectors = tuple(gaussian_vector(d, derive_seed(seed, d, m, k)) for k in range(m))
    perts = PerturbationSet(vectors, dim=d)

    def instance(lambda1: float) -> Instance:
        if lambda1 < 1.0:
            raise InputError(f"lambda1 must be >= 1, got {lambda1}")
        return Instance(
            spectrum=_grid_spectrum(d, lambda1),
            perts=perts,
            seed=seed,
            meta=f"grid(d={d},m={m},lambda1={lambda1!r})",
        )

    return perts, instance


@functools.lru_cache(maxsize=bnd.REALIZATION_CACHE_SIZE)
def _grid_spectrum(d: int, lambda1: float) -> Spectrum:
    """The geometric spectrum of `gen_instance`, one Spectrum object per
    (d, lambda_1), which every realization at that point shares, and with it
    the ratio table `bounds.ratio_table` keeps per Spectrum.  A lambda_1
    whose spectrum fails validation raises on every call."""
    expo = np.array([(d - 1 - j) / (d - 1) for j in range(d)])
    return Spectrum(lambda1**expo)


@functools.lru_cache(maxsize=bnd.REALIZATION_CACHE_SIZE)
def _layout(d: int) -> tuple:
    """The index arrays of every report at dimension d, built once per d.

    Returns (idx, i, j), all read-only: idx = 0..d-1, and i, j the row-major
    (i, j) pairs of the eigenvector kinds.
    """
    idx = np.arange(d)
    i, j = np.divmod(np.arange(d * d), d)
    layout = (idx, i, j)
    for a in layout:
        a.flags.writeable = False
    return layout


@functools.lru_cache(maxsize=bnd.REALIZATION_CACHE_SIZE)
def _entries_template(d: int, kinds: tuple) -> tuple:
    """The entries block of one `certify` call at dimension d whose reports
    are `kinds`, in that order, built once per (d, kinds).

    Returns (raw, lower, stops), all read-only: raw holds the bytes of one
    ENTRY_DTYPE block with every report's i, j and side set (j = -1 for the
    eigenvalue kinds, and each rank-m eigenvalue interval as its lower then
    upper entry), lower marks its lower-side entries, and report k holds
    the entries stops[k - 1]:stops[k] (from 0 for k = 0).  The block is
    kept as bytes because numpy copies those several times faster than a
    record array.
    """
    idx, i, j = _layout(d)
    pairs = (np.repeat(idx, 2), -1, np.tile(["lower", "upper"], d))
    columns = {"eigenvalue-rankm": pairs, "eigenvalue-rank1": (idx, -1, "upper")}
    parts = [columns.get(kind, (i, j, "upper")) for kind in kinds]
    stops = tuple(np.cumsum([len(part[0]) for part in parts]).tolist())
    block = np.zeros(stops[-1], dtype=bnd.ENTRY_DTYPE)
    for (pi, pj, side), a, b in zip(parts, (0, *stops), stops):
        block["i"][a:b] = pi
        block["j"][a:b] = pj
        block["side"][a:b] = side
    lower = block["side"] == "lower"
    raw = block.view(np.uint8)
    raw.flags.writeable = lower.flags.writeable = False
    return raw, lower, stops


def certify(instance: Instance, bound_scale: float = 1.0) -> list:
    """Evaluate every applicable bound against the oracle decomposition.

    Diagonalizes the perturbed matrix with the oracle (cross-checked
    against the secular route when m = 1) and returns one BoundReport per
    applicable inequality.  Each bound kind is evaluated once over the whole
    index grid, with alpha(lambda_i, lambda_j) read from the spectrum's
    ratio table, and the reports are slices of one entries block.
    `bound_scale` multiplies every bound before comparison;
    values below 1 are used by the falsification self-test.  A non-finite
    `bound_scale` raises InputError: it would make the pass tolerance
    infinite or every slack nan.
    """
    if not math.isfinite(bound_scale):
        raise InputError(f"bound scale must be finite, got {bound_scale!r}")
    spec = instance.spectrum
    perts = instance.perts
    d = spec.d
    m = perts.m
    idx, i, j = _layout(d)

    eig = _oracle(instance)
    if m == 1:
        _crosscheck_rankone(instance, eig)
    nus = eig.values
    params = bnd.BoundParams.from_perturbations(perts)

    lo, hi = bnd.eigenvalue_bound_rankm(spec, params, idx)
    interval = np.empty(2 * d)  # each interval as its (lower, upper) pair
    interval[0::2] = lo
    interval[1::2] = hi
    # (kind, observed, bound, notes) of each report, in report order
    reports = [("eigenvalue-rankm", nus.repeat(2), interval, ())]

    b6 = bnd.eigenvalue_bound_rank1(spec, params, idx)
    if b6 is not None:
        notes = [
            f"refinement wins at i={k}: {b:.6g} < {h:.6g}"
            for k, (b, h) in enumerate(zip(b6.tolist(), hi.tolist()))
            if b < h
        ]
        reports.append(("eigenvalue-rank1", nus, b6, notes))

    # eigenvector kinds: observed |[e_i]_j| at the row-major (i, j) pairs
    observed = np.abs(eig.basis.T).ravel()
    alpha_ij = bnd.ratio_table(spec)[1].ravel()
    notes = ["C_m saturated: bound is vacuous (capped at 1)"] if math.isinf(params.cm) else ()
    reports.append(("eigvec-rankm", observed, bnd.capped(params.cm, alpha_ij), notes))

    if m == 1:
        coarse = bnd.capped(params.c1, alpha_ij)
        refined = bnd.eigvec_bound_rank1_refined(spec, params, i, j)
        worse = refined > coarse
        notes = [
            f"refined bound exceeds coarse at (i={a}, j={b})"
            for a, b in zip(i[worse].tolist(), j[worse].tolist())
        ]
        reports.append(("eigvec-rank1", observed, coarse, ()))
        reports.append(("eigvec-rank1-refined", observed, refined, notes))

    # one entries block for every report: i, j and side from the template,
    # then the observed and bound columns and the slack
    raw, lower, stops = _entries_template(d, tuple(r[0] for r in reports))
    block = raw.copy().view(bnd.ENTRY_DTYPE)
    obs = np.concatenate([r[1] for r in reports])
    bound = np.concatenate([r[2] for r in reports])
    bound *= bound_scale
    block["observed"] = obs
    block["bound"] = bound
    block["slack"] = bnd.entry_slack(obs, bound, lower)
    return [
        bnd.make_report(kind, block[a:b], notes)
        for (kind, _, _, notes), a, b in zip(reports, (0, *stops), stops)
    ]


def _crosscheck_rankone(instance: Instance, oracle: EigenDecomposition) -> None:
    """Jacobi vs secular eigenvalues must agree to CROSSCHECK_RTOL."""
    from .rankone import RankOneUpdate, secular_eigenvalues  # only m = 1 loads it

    sec = secular_eigenvalues(
        RankOneUpdate.from_direction(instance.spectrum, instance.perts.vectors[0])
    )
    diff = np.abs(sec.values - oracle.values)
    tol = CROSSCHECK_RTOL * np.maximum(1.0, np.abs(oracle.values))
    if (diff > tol).any():
        i = int(np.argmax(diff - tol))
        raise OracleMismatchError(
            f"secular and Jacobi eigenvalues disagree at index {i}: "
            f"{float(sec.values[i])!r} vs {float(oracle.values[i])!r} "
            f"(instance seed={instance.seed}, meta={instance.meta})"
        )


@dataclass(frozen=True)
class GridPoint:
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


@dataclass(frozen=True)
class CertifySummary:
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


@dataclass(frozen=True)
class ScanRecord:
    """One tightness-scan sample: |[e_1]_j| against its certified bounds.

    `j` is the 1-based coordinate label used by file formats and plots;
    `bound_rank1` is nan unless m = 1.
    """

    d: int
    m: int
    j: int
    lambda1: float
    ratio: float
    observed: float
    bound_rankm: float
    bound_rank1: float
    seed: int

    def __post_init__(self):
        limit = min(self.bound_rankm, self.bound_rank1) if math.isfinite(
            self.bound_rank1
        ) else self.bound_rankm
        if not bnd.passes(limit - self.observed, limit):
            raise ValueError(
                f"scan record violates soundness: observed {self.observed!r} "
                f"exceeds bound {limit!r} (d={self.d}, m={self.m}, j={self.j}, "
                f"lambda1={self.lambda1!r}, seed={self.seed})"
            )


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
    perts, instance = _grid_recipe(d, m, seed)  # rejects d < 2 before j is judged
    if not 2 <= j <= d:
        raise InputError(f"j must lie in 2..d={d}, got {j}")
    params = bnd.BoundParams.from_perturbations(perts)
    records = []
    for lam1 in grid:
        inst = instance(lam1)
        eig = _oracle(inst)
        b8 = (
            bnd.eigvec_bound_rank1(inst.spectrum, params, 0, j - 1)
            if m == 1
            else math.nan
        )
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


@dataclass(frozen=True)
class SlopeFit:
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
