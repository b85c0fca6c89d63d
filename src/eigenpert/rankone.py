"""Exact spectrum of a single rank-one update D + z z^T.

Eigenvalues are the roots of the secular function
    f(nu) = 1 + sum_j z_j^2 / (lambda_j - nu)
bracketed by interlacing; eigenvectors follow the Bunch-Nielsen-Sorensen
formula  [e_i]_j = C_i * z_j / (lambda_j - nu_i)  with C_i the reciprocal
Euclidean norm.

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

from .symmat import EigenDecomposition, Spectrum, apply_sign_convention

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
    fixed; `normalizers[k]` holds the BNS constant C for non-deflated
    positions (nan elsewhere).  The private fields record the rotated
    weights and the Givens rotations needed to assemble eigenvectors.
    """

    values: np.ndarray
    deflated: np.ndarray
    normalizers: np.ndarray
    _slots: np.ndarray = field(repr=False)            # sorted position -> coordinate
    _active: np.ndarray = field(repr=False)           # active coordinates, lambda descending
    _anchor: np.ndarray = field(repr=False)           # per active root: anchor active index
    _mu: np.ndarray = field(repr=False)               # per active root: nu - lambda[anchor]
    _z_rot: np.ndarray = field(repr=False)
    _rotations: tuple = field(repr=False)

    def __post_init__(self):
        for name in ("values", "deflated", "normalizers"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def d(self) -> int:
        return int(self.values.size)


def _secular_root(delta: np.ndarray, w: np.ndarray, lo: float, hi: float) -> float:
    """Solve 1 + sum w_j/(delta_j - mu) = 0 for mu in the open bracket (lo, hi).

    g is strictly increasing; g -> -inf at the low end and g >= 0 at (or
    towards) the high end.  Bisection narrows the bracket, then Newton
    finishes, rejecting any step that leaves the bracket.
    """

    def g(mu: float) -> tuple[float, float]:
        den = delta - mu
        terms = w / den
        return 1.0 + float(terms.sum()), float(np.sum(terms / den))

    width0 = hi - lo
    a, b = lo, hi
    while (b - a) > NEWTON_SWITCH * width0:
        mid = 0.5 * (a + b)
        gv, _ = g(mid)
        if gv < 0.0:
            a = mid
        else:
            b = mid
    mu = 0.5 * (a + b)
    for _ in range(ROOT_MAX_ITER):
        gv, gp = g(mu)
        if gv == 0.0:
            return mu
        if gv < 0.0:
            a = mu
        else:
            b = mu
        if gp <= 0.0:  # cannot happen analytically; fall back to bisection
            nxt = 0.5 * (a + b)
        else:
            nxt = mu - gv / gp
            if not (a < nxt < b):
                nxt = 0.5 * (a + b)
        if abs(nxt - mu) <= 32.0 * _EPS * abs(nxt):
            return nxt
        mu = nxt
    return mu


def secular_eigenvalues(u: RankOneUpdate) -> SecularSolution:
    """All eigenvalues of D + z z^T via deflation plus secular root finding.

    Non-deflated root i lies in (lambda_i, lambda_{i-1}) -- taken over the
    deflation-collapsed active coordinates -- and the top root in
    (lambda_1, lambda_1 + ||z||^2].
    """
    lam = u.spectrum.lambdas
    d = u.spectrum.d
    z = u.z
    znorm = float(np.linalg.norm(z))

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
    total = znorm * znorm

    anchors = np.zeros(n, dtype=int)
    mus = np.zeros(n)
    for i in range(n):
        if i == 0:
            # top root: anchor lambda_1(active), mu in (0, ||z||^2]
            delta = la - la[0]
            hi = total if total > 0.0 else 1.0
            gv = 1.0 + float(np.sum(w / (delta - hi)))
            attempts = 0
            while gv < 0.0:  # guard the fp edge where the root sits at the trace bound
                hi *= 1.0 + 2.0**-30
                gv = 1.0 + float(np.sum(w / (delta - hi)))
                attempts += 1
                if attempts > 64:
                    raise SecularBracketError(
                        "top secular root escaped its trace bracket",
                        bracket=(float(la[0]), float(la[0] + hi)),
                        residuals=(float("-inf"), gv),
                    )
            anchors[i] = 0
            mus[i] = _secular_root(delta, w, 0.0, hi)
        else:
            gap = float(la[i - 1] - la[i])
            if gap <= 0.0:
                raise SecularBracketError(
                    f"active eigenvalues {i - 1} and {i} are not separated",
                    bracket=(float(la[i]), float(la[i - 1])),
                    residuals=(float("nan"), float("nan")),
                )
            delta_lo = la - la[i]
            g_mid = 1.0 + float(np.sum(w / (delta_lo - 0.5 * gap)))
            if g_mid >= 0.0:
                # root in the lower half: anchor lambda_i
                anchors[i] = i
                mus[i] = _secular_root(delta_lo, w, 0.0, 0.5 * gap)
            else:
                # root in the upper half: anchor lambda_{i-1}, mu negative
                anchors[i] = i - 1
                delta_hi = la - la[i - 1]
                mus[i] = _secular_root(delta_hi, w, -0.5 * gap, 0.0)

    roots = la[anchors] + mus

    slot_values = lam.copy()
    slot_values[act] = roots
    order = np.argsort(-slot_values, kind="stable")

    # BNS normalizers for the non-deflated roots
    slot_norm = np.full(d, np.nan)
    for i in range(n):
        dens = (la - la[anchors[i]]) - mus[i]
        comps = z_rot[act] / dens
        slot_norm[act[i]] = 1.0 / float(np.linalg.norm(comps))

    values = slot_values[order]
    sol = SecularSolution(
        values=values,
        deflated=deflated[order].copy(),
        normalizers=slot_norm[order],
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
    vinf2 = float(np.max(v * v)) if v.size else 0.0
    d = u.spectrum.d
    slack = 1e-9 * lam
    if np.any(sol.values < lam - slack) or np.any(
        sol.values > lam * (1.0 + d * vinf2) + slack
    ):
        bad = int(np.argmax((sol.values < lam - slack) | (sol.values > lam * (1.0 + d * vinf2) + slack)))
        raise SecularBracketError(
            f"secular root {bad} violates interlacing: nu={sol.values[bad]!r} "
            f"lambda={lam[bad]!r}",
            bracket=(float(lam[bad]), float(lam[bad] * (1.0 + d * vinf2))),
            residuals=(float(sol.values[bad] - lam[bad]),),
        )


def _back_rotate(vec: np.ndarray, rotations: tuple) -> np.ndarray:
    """Undo the deflation rotations (apply G^T, reversed order)."""
    out = vec.copy()
    for (j, k, c, s) in reversed(rotations):
        xj, xk = out[j], out[k]
        out[j] = c * xj - s * xk
        out[k] = s * xj + c * xk
    return out


def bns_eigenvector(u: RankOneUpdate, s: SecularSolution, i: int) -> np.ndarray:
    """Unit eigenvector for the i-th (descending) eigenvalue of D + z z^T.

    Deflated positions return the (rotation-adjusted) canonical basis vector
    of their coordinate; the rest use the BNS components in the deflated
    frame and are rotated back.
    """
    d = s.d
    if not 0 <= i < d:
        raise IndexError(f"eigenvector index {i} out of range for d={d}")
    slot = int(s._slots[i])
    if s.deflated[i]:
        vec = np.zeros(d)
        vec[slot] = 1.0
        return apply_sign_convention(
            _back_rotate(vec, s._rotations).reshape(d, 1)
        )[:, 0]

    pos = int(np.nonzero(s._active == slot)[0][0])
    la = u.spectrum.lambdas[s._active]
    dens = (la - la[s._anchor[pos]]) - s._mu[pos]
    nu = s.values[i]
    tight = np.abs(dens) <= POLE_PROXIMITY_RTOL * la
    if np.any(tight):
        j = int(s._active[int(np.argmax(tight))])
        raise DeflationError(
            f"secular root nu={nu!r} lies within 1e-14 relative of undeflated "
            f"pole lambda[{j}]={u.spectrum.lambdas[j]!r}; deflation thresholds "
            "are misconfigured"
        )
    vec = np.zeros(d)
    vec[s._active] = s._z_rot[s._active] / dens
    vec *= 1.0 / float(np.linalg.norm(vec))
    return apply_sign_convention(_back_rotate(vec, s._rotations).reshape(d, 1))[:, 0]


def rankone_full(spec: Spectrum, v) -> EigenDecomposition:
    """Full eigendecomposition of D + sqrt(D) v v^T sqrt(D) via the secular path."""
    u = RankOneUpdate.from_direction(spec, v)
    sol = secular_eigenvalues(u)
    basis = np.column_stack([bns_eigenvector(u, sol, i) for i in range(spec.d)])
    return EigenDecomposition(sol.values.copy(), basis)
