"""Exact spectrum of a single rank-one update D + z z^T.

Eigenvalues are the roots of the secular function
    f(nu) = 1 + sum_j z_j^2 / (lambda_j - nu),
one per interlacing interval, each found by one call of LAPACK's dlaed4
(R.-C. Li's rational interpolation, the root finder of dstedc), which also
returns every pole distance lambda_j - nu to full relative accuracy; one or
two roots come from the closed forms of dlaed5.  Eigenvectors follow the
Bunch-Nielsen-Sorensen formula
[e_i]_j = C_i * z_j / (lambda_j - nu_i)  with C_i the reciprocal Euclidean
norm, evaluated on those pole distances.

Degenerate inputs (zero z entries, repeated lambdas) are handled
constructively by deflation: zero-weight coordinates keep their eigenpair,
and colliding eigenvalues are rotated in their 2-plane so that one z entry
vanishes.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from .symmat import (
    ConvergenceError,
    EigenDecomposition,
    Spectrum,
    apply_sign_convention,
    bind_dlaed4,
)

# Coordinate j deflates when |z_j| <= Z_DEFLATION_RTOL * ||z||, or when
# lambda_j lies within LAMBDA_COLLISION_RTOL * lambda_head of the active
# eigenvalue lambda_head just above it (a relative, local test: graded
# spectra keep their distinct small eigenvalues).
Z_DEFLATION_RTOL = 1e-12
LAMBDA_COLLISION_RTOL = 1e-12
POLE_PROXIMITY_RTOL = 1e-14


class SecularBracketError(RuntimeError):
    """A secular root left its interlacing interval."""


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
        """Build z = sqrt(D) v, the update produced by direction v.

        A z entry past the double range makes an eigenvalue overflow
        (nu_1 >= ||z||^2), which raises ConvergenceError.
        """
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            z = np.sqrt(spectrum.lambdas) * v
        if not np.isfinite(z).all():
            raise ConvergenceError(
                "an eigenvalue overflows: z = sqrt(lambda) v exceeds the double range"
            )
        return cls(spectrum, z)


@dataclass(frozen=True, eq=False)
class SecularSolution:
    """Updated eigenvalues (descending) plus deflation bookkeeping.

    `deflated[k]` is True where the update left the original eigenvalue
    fixed.  The private fields record the pole distances, the rotated
    weights and the Givens rotations needed to assemble eigenvectors.
    """

    values: np.ndarray
    deflated: np.ndarray
    _slots: np.ndarray = field(repr=False)            # sorted position -> coordinate
    _active: np.ndarray = field(repr=False)           # active coordinates, lambda descending
    _poles: np.ndarray = field(repr=False)            # [k, j]: lambda[active j] - active root k
    _z_rot: np.ndarray = field(repr=False)
    _rotations: tuple = field(repr=False)

    def __post_init__(self):
        for name in ("values", "deflated"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def d(self) -> int:
        return int(self.values.size)


def _closed_form_roots(la: np.ndarray, w: np.ndarray) -> tuple:
    """Roots (descending) and pole distances la_j - nu_k of 1 + sum_j w_j/(la_j - nu)
    for one or two poles, as LAPACK's dlaed5 forms them: each root is its nearer
    pole plus an offset tau from a cancellation-free quadratic formula, so every
    distance keeps full relative accuracy.  The discriminants go through hypot,
    which cannot overflow where the roots themselves do not.
    """
    if la.size < 2:
        return la + w, np.diag(-w)
    gap = float(la[0] - la[1])
    w_hi, w_lo = float(w[0]), float(w[1])
    # offsets from la[0]: tau^2 - b tau - w_hi gap = 0, one root on each side
    b = w_hi + w_lo - gap
    r = math.hypot(b, 2.0 * math.sqrt(w_hi) * math.sqrt(gap))
    top = 0.5 * (b + r) if b > 0.0 else 2.0 * w_hi * (gap / (r - b))
    if 1.0 + 2.0 * (w_hi - w_lo) / gap > 0.0:
        # f > 0 at the midpoint of the gap: the lower root is nearer la[1], and
        # its offset from there is the small root of
        # tau^2 - (gap + w_hi + w_lo) tau + w_lo gap = 0
        s = math.hypot(gap - w_lo + w_hi, 2.0 * math.sqrt(w_lo) * math.sqrt(w_hi))
        low = 2.0 * w_lo * (gap / (gap + w_hi + w_lo + s))
        roots = [la[0] + top, la[1] + low]
        poles = [[-top, -(gap + top)], [gap - low, -low]]
    else:
        low = -2.0 * w_hi * (gap / (b + r)) if b > 0.0 else 0.5 * (b - r)
        roots = [la[0] + top, la[0] + low]
        poles = [[-top, -(gap + top)], [-low, -(gap + low)]]
    return np.array(roots), np.array(poles)


def _dlaed4_roots(la: np.ndarray, za: np.ndarray, coords: np.ndarray) -> tuple:
    """Roots (descending) and pole distances la_j - nu_k of 1 + sum_j za_j^2/(la_j - nu),
    one dlaed4 call per root.  LAPACK wants the poles ascending and z of unit
    norm with rho = ||z||^2; the root above la[k] is its root n - k.

    A nonzero info or a non-finite root raises ConvergenceError naming the
    root by the coordinate `coords[k]` of its lower pole.
    """
    n = la.size
    znorm = float(np.linalg.norm(za))
    poles_asc = np.ascontiguousarray(la[::-1])
    z_asc = za[::-1] / znorm
    delta = np.empty((n, n))
    roots = np.empty(n)
    dlaed4 = bind_dlaed4()
    size, index, info = ctypes.c_int64(n), ctypes.c_int64(), ctypes.c_int64()
    rho, nu = ctypes.c_double(znorm * znorm), ctypes.c_double()
    head = (ctypes.byref(size), ctypes.byref(index), poles_asc.ctypes.data, z_asc.ctypes.data)
    tail = (ctypes.byref(rho), ctypes.byref(nu), ctypes.byref(info))
    row = delta.ctypes.data
    for k in range(n):
        index.value = n - k
        dlaed4(*head, row + 8 * n * k, *tail)
        if info.value != 0 or not math.isfinite(nu.value):
            raise ConvergenceError(
                f"LAPACK dlaed4 failed on the secular root above lambda[{int(coords[k])}]="
                f"{float(la[k])!r}: info = {info.value}, nu = {nu.value!r}"
            )
        roots[k] = nu.value
    return roots, delta[:, ::-1]


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
    # a shift of ||z||^2 that rounds to zero leaves no weight to solve for
    if total == 0.0 and z.any():
        raise ConvergenceError("the update underflows: ||z||^2 is below the double range")

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
    if act.size <= 2:
        roots, poles = _closed_form_roots(lam[act], z_rot[act] ** 2)
    else:
        roots, poles = _dlaed4_roots(lam[act], z_rot[act], act)

    slot_values = lam.copy()
    slot_values[act] = roots
    order = np.argsort(-slot_values, kind="stable")

    values = slot_values[order]
    sol = SecularSolution(
        values=values,
        deflated=deflated[order].copy(),
        _slots=order.copy(),
        _active=act,
        _poles=poles,
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
            f"lambda={float(lam[bad])!r}"
        )


def _root(sol: SecularSolution, k: int) -> float:
    """The eigenvalue of active root k."""
    return float(sol.values[sol._slots == sol._active[k]][0])


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
    dens = sol._poles
    tight = np.abs(dens) <= POLE_PROXIMITY_RTOL * la
    if np.any(tight):
        k, j = np.argwhere(tight)[0]
        message = (
            f"secular root nu={_root(sol, k)!r} lies within "
            f"1e-14 relative of undeflated pole lambda[{act[j]}]={float(la[j])!r}; "
            "deflation thresholds are misconfigured"
        )
        # a caller that keeps the error keeps this frame through its traceback
        # (a batch run collecting its failures): let the n x n arrays go first
        del sol, dens, tight
        raise DeflationError(message)
    with np.errstate(over="ignore"):
        comps = sol._z_rot[act] / dens
        norms = np.linalg.norm(comps, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        k = int(np.argmin(np.isfinite(norms)))
        raise ConvergenceError(
            f"the eigenvector of secular root nu={_root(sol, k)!r} has a norm that overflows"
        )
    comps *= 1.0 / norms
    basis = np.eye(spec.d)
    basis[np.ix_(act, act)] = comps.T
    for (j, k, c, s) in reversed(sol._rotations):
        basis[j], basis[k] = c * basis[j] - s * basis[k], s * basis[j] + c * basis[k]
    return EigenDecomposition(sol.values, apply_sign_convention(basis[:, sol._slots]))
