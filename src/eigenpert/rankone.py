"""Exact spectrum of a single rank-one update D + z z^T.

Eigenvalues are the roots of the secular function
    f(nu) = 1 + sum_j z_j^2 / (lambda_j - nu)
bracketed by interlacing, all solved at once: one array pass picks every
root's bracket, and bisection then Newton run over all brackets in
lockstep, each root taking the same steps it would take alone.
Eigenvectors follow the Bunch-Nielsen-Sorensen formula
[e_i]_j = C_i * z_j / (lambda_j - nu_i)  with C_i the reciprocal Euclidean
norm.

Degenerate inputs (zero z entries, repeated lambdas) are handled
constructively by deflation: zero-weight coordinates keep their eigenpair,
and colliding eigenvalues are rotated in their 2-plane so that one z entry
vanishes.  Roots are stored as an anchor eigenvalue plus an offset so the
pole distances lambda_j - nu_i keep full relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .symmat import ConvergenceError, EigenDecomposition, Spectrum, apply_sign_convention

# Coordinate j deflates when |z_j| <= Z_DEFLATION_RTOL * ||z||, or when
# lambda_j lies within LAMBDA_COLLISION_RTOL * lambda_head of the active
# eigenvalue lambda_head just above it (a relative, local test: graded
# spectra keep their distinct small eigenvalues).
Z_DEFLATION_RTOL = 1e-12
LAMBDA_COLLISION_RTOL = 1e-12
ROOT_MAX_ITER = 200
# switch from bisection to Newton once the bracket shrank to this fraction
NEWTON_SWITCH = 1e-3
POLE_PROXIMITY_RTOL = 1e-14

_EPS = float(np.finfo(float).eps)


class SecularBracketError(RuntimeError):
    """Root bracket failed to enclose a sign change."""

    def __init__(self, message: str, bracket: tuple, residuals: tuple):
        super().__init__(message)
        self.bracket = bracket
        self.residuals = residuals


class DeflationError(RuntimeError):
    """A secular root landed on an undeflated pole: thresholds misconfigured."""


@dataclass(frozen=True, eq=False)
class RankOneUpdate:
    """Diagonal spectrum plus update direction z (so the matrix is D + z z^T)."""

    spectrum: Spectrum
    z: np.ndarray

    def __post_init__(self):
        arr = np.array(self.z, dtype=float)
        if arr.ndim != 1 or arr.size != self.spectrum.d:
            raise ValueError(
                f"z has shape {arr.shape}, expected ({self.spectrum.d},)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("z has non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "z", arr)

    @classmethod
    def from_direction(cls, spectrum: Spectrum, v) -> "RankOneUpdate":
        """Build z = sqrt(D) v, the update produced by direction v."""
        v = np.asarray(v, dtype=float)
        return cls(spectrum, np.sqrt(spectrum.lambdas) * v)


@dataclass(frozen=True, eq=False)
class SecularSolution:
    """Updated eigenvalues (descending) plus deflation bookkeeping.

    `deflated[k]` is True where the update left the original eigenvalue
    fixed.  The private fields record the rotated weights and the Givens
    rotations needed to assemble eigenvectors.
    """

    values: np.ndarray
    deflated: np.ndarray
    _slots: np.ndarray = field(repr=False)            # sorted position -> coordinate
    _active: np.ndarray = field(repr=False)           # active coordinates, lambda descending
    _anchor: np.ndarray = field(repr=False)           # per active root: anchor active index
    _mu: np.ndarray = field(repr=False)               # per active root: nu - lambda[anchor]
    _z_rot: np.ndarray = field(repr=False)
    _rotations: tuple = field(repr=False)

    def __post_init__(self):
        for name in ("values", "deflated"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def d(self) -> int:
        return int(self.values.size)


def _secular_roots(delta: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Solve 1 + sum_j w_j/(delta[r, j] - mu_r) = 0 for every row r at once,
    mu_r in the open bracket (lo[r], hi[r]).

    Each row's g is strictly increasing; g -> -inf at the low end and g >= 0
    at (or towards) the high end.  Bisection narrows every bracket to
    NEWTON_SWITCH of its width, then Newton finishes, rejecting any step
    that leaves the bracket.  The rows iterate in lockstep and a finished row
    is frozen by a mask, so each row takes exactly the steps it would take
    alone and its root comes out bit for bit the same.
    """
    a = lo.copy()
    b = hi.copy()
    width0 = hi - lo
    den = np.empty_like(delta)
    terms = np.empty_like(delta)

    def g(mu: np.ndarray, slope: bool):
        np.subtract(delta, mu[:, None], out=den)
        np.divide(w, den, out=terms)
        gv = 1.0 + terms.sum(axis=1)
        if not slope:
            return gv, None
        np.divide(terms, den, out=terms)
        return gv, terms.sum(axis=1)

    # a row next to a pole divides by zero or overflows; frozen rows' values
    # are masked and a live row's inf or nan step falls back to bisection
    with np.errstate(all="ignore"):
        # a bracket only a few subnormals wide may never shrink below
        # NEWTON_SWITCH of its width: the bisection count is capped too
        live = (b - a) > NEWTON_SWITCH * width0
        for _ in range(ROOT_MAX_ITER):
            if not live.any():
                break
            mid = 0.5 * (a + b)
            gv, _ = g(mid, False)
            neg = gv < 0.0
            np.copyto(a, mid, where=live & neg)
            np.copyto(b, mid, where=live & ~neg)
            live = (b - a) > NEWTON_SWITCH * width0

        mu = 0.5 * (a + b)
        live = np.ones(mu.shape, dtype=bool)
        for _ in range(ROOT_MAX_ITER):
            if not live.any():
                break
            gv, gp = g(mu, True)
            live &= gv != 0.0
            neg = gv < 0.0
            np.copyto(a, mu, where=live & neg)
            np.copyto(b, mu, where=live & ~neg)
            # a step that leaves the bracket falls back to bisection; so does
            # gp = 0 or nan (gp < 0 cannot happen), whose step is inf or nan
            nxt = mu - gv / gp
            np.copyto(nxt, 0.5 * (a + b), where=~((a < nxt) & (nxt < b)))
            done = np.abs(nxt - mu) <= 32.0 * _EPS * np.abs(nxt)
            np.copyto(mu, nxt, where=live)
            live &= ~done
    return mu


def _top_bracket(la: np.ndarray, w: np.ndarray, total: float) -> float:
    """Upper end hi of the top root's bracket (0, hi] on mu = nu - la[0].

    hi is the trace bound ||z||^2, widened on the fp edge where the root sits
    at that bound and rounding leaves g(hi) below zero.
    """
    delta = la - la[0]
    hi = total if total > 0.0 else 1.0
    gv = 1.0 + float(np.sum(w / (delta - hi)))
    attempts = 0
    while gv < 0.0:
        hi *= 1.0 + 2.0**-30
        gv = 1.0 + float(np.sum(w / (delta - hi)))
        attempts += 1
        if attempts > 64:
            raise SecularBracketError(
                "top secular root escaped its trace bracket",
                bracket=(float(la[0]), float(la[0] + hi)),
                residuals=(float("-inf"), gv),
            )
    return hi


def secular_eigenvalues(u: RankOneUpdate) -> SecularSolution:
    """All eigenvalues of D + z z^T via deflation plus secular root finding.

    Non-deflated root i lies in (lambda_i, lambda_{i-1}) -- taken over the
    deflation-collapsed active coordinates -- and the top root in
    (lambda_1, lambda_1 + ||z||^2].
    """
    lam = u.spectrum.lambdas
    d = u.spectrum.d
    z = u.z
    with np.errstate(over="ignore"):
        znorm = float(np.linalg.norm(z))
    total = znorm * znorm
    # the top eigenvalue is at least ||z||^2; deflating against an infinite
    # norm would return the unperturbed spectrum
    if not math.isfinite(total):
        raise ConvergenceError("an eigenvalue overflows: ||z||^2 exceeds the double range")

    deflated = np.abs(z) <= Z_DEFLATION_RTOL * znorm
    z_rot = z.copy()
    rotations: list[tuple[int, int, float, float]] = []

    # Collapse colliding eigenvalues among the remaining active coordinates:
    # rotate each colliding pair so the later coordinate's weight vanishes.
    active: list[int] = []
    head = -1
    for j in range(d):
        if deflated[j]:
            continue
        if head >= 0 and lam[head] - lam[j] <= LAMBDA_COLLISION_RTOL * lam[head]:
            r = math.hypot(z_rot[head], z_rot[j])
            c, s = z_rot[head] / r, z_rot[j] / r
            rotations.append((head, j, c, s))
            z_rot[head] = r
            z_rot[j] = 0.0
            deflated[j] = True
        else:
            head = j
            active.append(j)

    act = np.array(active, dtype=int)
    n = act.size
    la = lam[act]
    w = z_rot[act] ** 2

    # Top root: anchor lambda_1(active), mu in (0, ||z||^2].  Root i >= 1
    # lies in (lambda_i, lambda_{i-1}); the sign of g at the gap midpoint
    # picks its anchor and the half gap that brackets it.
    anchors = np.arange(n)
    lo = np.zeros(n)
    hi = np.zeros(n)
    if n:
        hi[0] = _top_bracket(la, w, total)
    gaps = la[:-1] - la[1:]
    if np.any(gaps <= 0.0):
        i = int(np.argmax(gaps <= 0.0)) + 1
        raise SecularBracketError(
            f"active eigenvalues {i - 1} and {i} are not separated",
            bracket=(float(la[i]), float(la[i - 1])),
            residuals=(float("nan"), float("nan")),
        )
    half = 0.5 * gaps
    g_mid = 1.0 + (w / ((la - la[1:, None]) - half[:, None])).sum(axis=1)
    # g < 0 at the midpoint: the root is in the upper half, anchored at
    # lambda_{i-1} with mu negative; otherwise anchored at lambda_i
    upper = g_mid < 0.0
    anchors[1:] -= upper
    lo[1:] = np.where(upper, -half, 0.0)
    hi[1:] = np.where(upper, 0.0, half)
    mus = _secular_roots(la - la[anchors][:, None], w, lo, hi)

    roots = la[anchors] + mus

    slot_values = lam.copy()
    slot_values[act] = roots
    order = np.argsort(-slot_values, kind="stable")

    values = slot_values[order]
    sol = SecularSolution(
        values=values,
        deflated=deflated[order].copy(),
        _slots=order.copy(),
        _active=act,
        _anchor=anchors,
        _mu=mus,
        _z_rot=z_rot,
        _rotations=tuple(rotations),
    )
    _check_interlacing(u, sol)
    return sol


def _check_interlacing(u: RankOneUpdate, sol: SecularSolution) -> None:
    """Cheap post-solve sanity: lambda_i <= nu_i <= lambda_i (1 + d*vinf^2)."""
    lam = u.spectrum.lambdas
    v = u.z / np.sqrt(lam)
    vinf = float(np.max(np.abs(v))) if v.size else 0.0
    vinf2 = vinf * vinf  # +inf past the double range, without a numpy warning
    d = u.spectrum.d
    slack = 1e-9 * lam
    with np.errstate(over="ignore"):  # the upper end is +inf past the double range
        upper = lam * (1.0 + d * vinf2)
    outside = (sol.values < lam - slack) | (sol.values > upper + slack)
    if outside.any():
        bad = int(np.argmax(outside))
        raise SecularBracketError(
            f"secular root {bad} violates interlacing: nu={float(sol.values[bad])!r} "
            f"lambda={float(lam[bad])!r}",
            bracket=(float(lam[bad]), float(upper[bad])),
            residuals=(float(sol.values[bad] - lam[bad]),),
        )


def rankone_full(spec: Spectrum, v) -> EigenDecomposition:
    """Full eigendecomposition of D + sqrt(D) v v^T sqrt(D) via the secular path.

    Row k of the denominator matrix holds lambda_j - nu_k over the active
    coordinates j; its BNS components z_j / (lambda_j - nu_k), normalized,
    fill the eigenvector column of active root k.  Deflated coordinates keep
    their unit vector, and the collision rotations are undone on the rows.
    """
    sol = secular_eigenvalues(RankOneUpdate.from_direction(spec, v))
    act = sol._active
    la = spec.lambdas[act]
    dens = (la - la[sol._anchor][:, None]) - sol._mu[:, None]
    tight = np.abs(dens) <= POLE_PROXIMITY_RTOL * la
    if np.any(tight):
        k, j = np.argwhere(tight)[0]
        raise DeflationError(
            f"secular root nu={float(la[sol._anchor[k]] + sol._mu[k])!r} lies within "
            f"1e-14 relative of undeflated pole lambda[{act[j]}]={float(la[j])!r}; "
            "deflation thresholds are misconfigured"
        )
    with np.errstate(over="ignore"):
        comps = sol._z_rot[act] / dens
        norms = np.linalg.norm(comps, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        k = int(np.argmin(np.isfinite(norms)))
        raise ConvergenceError(
            f"the eigenvector of secular root nu={float(la[sol._anchor[k]] + sol._mu[k])!r} "
            "has a norm that overflows"
        )
    comps *= 1.0 / norms
    basis = np.eye(spec.d)
    basis[np.ix_(act, act)] = comps.T
    for (j, k, c, s) in reversed(sol._rotations):
        basis[j], basis[k] = c * basis[j] - s * basis[k], s * basis[j] + c * basis[k]
    return EigenDecomposition(sol.values, apply_sign_convention(basis[:, sol._slots]))
