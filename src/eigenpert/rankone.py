"""Exact spectrum of a single rank-one update D + z z^T, z = sqrt(D) v.

Both public functions, `secular_eigenvalues` and `rankone_full`, take the
spectrum and the direction v, and form z from them once.

Eigenvalues are the roots of the secular function
    f(nu) = 1 + sum_j z_j^2 / (lambda_j - nu),
one per interlacing interval.  Three or more roots come from one call of
LAPACK's dlaed9, which finds each by dlaed4 (R.-C. Li's rational
interpolation, the root finder of dstedc).  Every pole distance
lambda_j - nu is then rebuilt from the root's offset to its nearer pole, z
is recomputed from those distances as Gu & Eisenstat (SIMAX 1995) do, and
the eigenvectors of that recomputed update are orthogonal to working
precision however near a root lies to its pole.  One or two roots come from
the closed forms of dlaed5, with the Bunch-Nielsen-Sorensen eigenvectors
[e_i]_j = C_i * z_j / (lambda_j - nu_i)  with C_i the reciprocal Euclidean
norm.  Either way every pole distance keeps full relative accuracy.

Degenerate inputs (zero z entries, repeated lambdas) are handled
constructively by deflation: zero-weight coordinates keep their eigenpair,
and colliding eigenvalues are rotated in their 2-plane so that one z entry
vanishes.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .symmat import (
    ConvergenceError,
    EigenDecomposition,
    ReadOnly,
    Spectrum,
    apply_sign_convention,
    bind_dlaed9,
)

# Coordinate j deflates when |z_j| <= Z_DEFLATION_RTOL * ||z||, or when
# lambda_j lies within LAMBDA_COLLISION_RTOL * lambda_head of the active
# eigenvalue lambda_head just above it (a relative, local test: graded
# spectra keep their distinct small eigenvalues).
Z_DEFLATION_RTOL = 1e-12
LAMBDA_COLLISION_RTOL = 1e-12
POLE_PROXIMITY_RTOL = 1e-14
# sqrt(safmin / eps) = sqrt(2^-1022 / 2^-52), about 1e-146: LAPACK's dsyev
# scales a matrix whose norm lies outside [RMIN, 1/RMIN]
_RMIN = 2.0**-485


class SecularBracketError(ConvergenceError):
    """A secular root left its interlacing interval."""


class DeflationError(ConvergenceError):
    """A secular root landed on an undeflated pole: thresholds misconfigured."""


class SecularSolution(ReadOnly):
    """Updated eigenvalues (descending) plus deflation bookkeeping.

    `deflated[k]` is True where the update left the original eigenvalue
    fixed.  Over the active coordinates (lambda descending), `_dist[k, j]`
    is the pole distance (lambda[active j] - nu_k) / `_scale`, formed once
    as (lambda_j - lambda_near) + (lambda_near - nu_k) from root k's offset
    to its nearer pole: the first difference is exact where the two poles
    are close, so every distance keeps full relative accuracy.
    `_eigenvectors` forms the eigenvectors, and the rotated weights and the
    Givens rotations serve the full eigenbasis.  `_slots` maps each sorted
    position to its coordinate, `_active` lists the active coordinates and
    `_la` is lambda[active] / `_scale`.
    """

    def __init__(self, values, deflated, *, _slots, _active, _la, _dist, _scale, _z_rot,
                 _rotations):
        values.flags.writeable = deflated.flags.writeable = False
        vars(self).update(values=values, deflated=deflated, _slots=_slots, _active=_active,
                          _la=_la, _dist=_dist, _scale=_scale, _z_rot=_z_rot, _rotations=_rotations)

    @property
    def d(self) -> int:
        return int(self.values.size)

    @property
    def _poles(self) -> np.ndarray:
        """[k, j]: lambda[active j] - active root k, to full relative accuracy."""
        return self._dist if self._scale == 1.0 else self._dist * self._scale


def _closed_form_roots(la: np.ndarray, w: np.ndarray) -> tuple:
    """Roots (descending) of 1 + sum_j w_j/(la_j - nu) for one or two poles,
    with each root's nearer pole and its offset la_near - nu, as LAPACK's
    dlaed5 forms them: the offset comes from a cancellation-free quadratic
    formula, so every pole distance keeps full relative accuracy.  The
    discriminants go through hypot, which cannot overflow where the roots
    themselves do not.
    """
    if la.size < 2:
        return la + w, np.zeros(la.size, dtype=int), -w
    gap = float(la[0] - la[1])
    w_hi, w_lo = float(w[0]), float(w[1])
    # offsets from la[0]: tau^2 - b tau - w_hi gap = 0, one root on each side;
    # w_lo - gap first, which is exact where w_lo is near the gap
    b = (w_lo - gap) + w_hi
    r = math.hypot(b, 2.0 * math.sqrt(w_hi) * math.sqrt(gap))
    top = 0.5 * (b + r) if b > 0.0 else 2.0 * w_hi * (gap / (r - b))
    if 1.0 + 2.0 * (w_hi - w_lo) / gap > 0.0:
        # f > 0 at the midpoint of the gap: the lower root is nearer la[1], and
        # its offset from there is the small root of
        # tau^2 - (gap + w_hi + w_lo) tau + w_lo gap = 0
        s = math.hypot(gap - w_lo + w_hi, 2.0 * math.sqrt(w_lo) * math.sqrt(w_hi))
        low = 2.0 * w_lo * (gap / (gap + w_hi + w_lo + s))
        roots, near = [la[0] + top, la[1] + low], [0, 1]
    else:
        low = -2.0 * w_hi * (gap / (b + r)) if b > 0.0 else 0.5 * (b - r)
        roots, near = [la[0] + top, la[0] + low], [0, 0]
    return np.array(roots), np.array(near), np.array([-top, -low])


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x with each row divided by its norm, in place; a row whose norm
    overflows turns nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        norms[~np.isfinite(norms)] = np.nan
        x /= norms[:, None]
    return x


def _dlaed9_solve(la: np.ndarray, za: np.ndarray, coords: np.ndarray) -> tuple:
    """Roots (descending) of 1 + sum_j za_j^2/(la_j - nu) over n >= 3 poles,
    with each root's nearer pole, its offset la_near - nu and the scale both
    are in, from one call of LAPACK's dlaed9, which finds every root by
    dlaed4.  It wants the poles ascending and z of unit norm with
    rho = ||z||^2.  Its eigenvectors go unused: dlaed4 updates each pole
    distance in place at every iterate, so a far distance keeps the rounding
    of the wide first iterates, and vectors formed from those lose
    orthogonality (6e-13 on clustered spectra).

    A nonzero info or a non-finite root raises ConvergenceError naming the
    root by the coordinate `coords[k]` of its lower pole.
    """
    n = la.size
    znorm = math.sqrt(za @ za)  # as np.linalg.norm forms it
    top = max(float(la[0]), znorm * znorm)
    # dlaed4 squares pole distances and their reciprocals: a problem whose
    # top lies outside [RMIN, 1/RMIN] is solved scaled by a power of two
    scale = 1.0 if _RMIN <= top <= 1.0 / _RMIN else math.ldexp(1.0, math.frexp(top)[1])
    # dlaed9's arrays, from one block of 8-byte words: the poles ascending,
    # z of unit norm, the roots, q and its work array.  dlaed9 stops at the
    # first root dlaed4 fails on, and leaves the roots above it as they
    # were: -inf, below every root
    buf = np.empty(3 * n + 2 * n * n)
    poles, w, roots, q = buf[:n], buf[n : 2 * n], buf[2 * n : 3 * n], buf[3 * n : 3 * n + n * n]
    np.divide(la[::-1], scale, out=poles)
    np.divide(za[::-1], znorm, out=w)
    roots.fill(-np.inf)
    addr = buf.ctypes.data
    size, start, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64()
    nref = ctypes.byref(size)
    bind_dlaed9()(nref, ctypes.byref(start), nref, nref, addr + 16 * n, addr + 24 * n, nref,
                  ctypes.byref(ctypes.c_double(znorm * znorm / scale)), addr, addr + 8 * n,
                  addr + 8 * (3 * n + n * n), nref, ctypes.byref(info))
    if scale != 1.0:
        with np.errstate(over="ignore"):
            roots *= scale
    finite = np.isfinite(roots)
    if info.value != 0 or not finite.all():
        # ascending index of the failed root: the last one written, or the
        # first that is not finite
        f = int(np.count_nonzero(roots != -np.inf)) - 1 if info.value else int(finite.argmin())
        k = n - 1 - f
        raise ConvergenceError(
            f"LAPACK dlaed9 failed on the secular root above lambda[{int(coords[k]) + 1}]="
            f"{float(la[k])!r}: info = {info.value}, nu = {float(roots[f])!r}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        # dlaed9 leaves q[i, j] = w_j / (poles_j - nu_i) in ascending order,
        # with its recomputed w: root i lies between poles i and i + 1, and
        # these are its offsets from the two (the top root has no pole above)
        below = w / q[:: n + 1]
        above = w[1:] / q[1 :: n + 1]
    up = np.abs(above) < np.abs(below[:-1])
    np.copyto(below[:-1], above, where=up)
    near = np.arange(n)
    near[1:] -= up[::-1]
    return roots[::-1], near, below[::-1], scale


def _eigenvectors(sol: SecularSolution) -> np.ndarray:
    """Row k: the unit eigenvector of active root k over the active
    coordinates; a row whose norm overflows is nan.

    Over three or more poles z is recomputed from the pole distances as
    Gu & Eisenstat (SIMAX 1995) do, which makes the roots exact for it:
    w_j^2 = prod_k (nu_k - la_j) / (rho prod_{i != j} (la_i - la_j)),
    each root k paired with pole k.  The eigenvectors w_j / (la_j - nu_k)
    are then orthogonal to working precision however near a root lies to
    its pole.  One or two roots keep the Bunch-Nielsen-Sorensen vectors
    z_j / (la_j - nu_k).
    """
    z = sol._z_rot[sol._active]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if z.size <= 2:
            return _unit_rows(z / sol._poles)
        gaps = sol._la - sol._la[:, None]
        gaps.flat[:: z.size + 1] = -float(z @ z) / sol._scale
        w = np.copysign(np.sqrt(np.prod(np.divide(sol._dist, gaps, out=gaps), axis=0)), z)
        return _unit_rows(w / sol._dist)


def secular_eigenvalues(spec: Spectrum, v) -> SecularSolution:
    """All eigenvalues of D + z z^T, z = sqrt(D) v, via deflation plus
    secular root finding.

    Non-deflated root i lies in (lambda_i, lambda_{i-1}) -- taken over the
    deflation-collapsed active coordinates -- and the top root in
    (lambda_1, lambda_1 + ||z||^2].  A direction v whose shape is not (d,)
    raises ValueError; a z entry past the double range makes an eigenvalue
    overflow (nu_1 >= ||z||^2), which raises ConvergenceError.
    """
    lam = spec.lambdas
    d = spec.d
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"v has shape {v.shape}, expected ({d},)")
    with np.errstate(over="ignore"):
        z = np.sqrt(lam) * v
        znorm = math.sqrt(z @ z)  # as np.linalg.norm forms it
    if not np.isfinite(z).all():
        raise ConvergenceError(
            "an eigenvalue overflows: z = sqrt(lambda) v exceeds the double range"
        )
    total = znorm * znorm
    # the top eigenvalue is at least ||z||^2; deflating against an infinite
    # norm would return the unperturbed spectrum
    if not math.isfinite(total):
        raise ConvergenceError("an eigenvalue overflows: ||z||^2 exceeds the double range")
    # a shift of ||z||^2 that rounds to zero leaves no weight to solve for
    if total == 0.0 and z.any():
        raise ConvergenceError("the update underflows: ||z||^2 is below the double range")

    # the collision pass runs on Python floats: numpy scalars cost more per step
    lam_list = lam.tolist()
    deflated = (np.abs(z) <= Z_DEFLATION_RTOL * znorm).tolist()
    z_rot = z.tolist()
    rotations: list[tuple[int, int, float, float]] = []

    # Collapse colliding eigenvalues among the remaining active coordinates:
    # rotate each colliding pair so the later coordinate's weight vanishes.
    active: list[int] = []
    head = -1
    for j in range(d):
        if deflated[j]:
            continue
        if head >= 0 and lam_list[head] - lam_list[j] <= LAMBDA_COLLISION_RTOL * lam_list[head]:
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
    z_rot = np.array(z_rot) if rotations else z
    deflated = np.array(deflated)
    lam_act = lam[act]
    if act.size <= 2:
        roots, near, offset = _closed_form_roots(lam_act, z_rot[act] ** 2)
        scale = 1.0
    else:
        roots, near, offset, scale = _dlaed9_solve(lam_act, z_rot[act], act)

    slot_values = lam.copy()
    slot_values[act] = roots
    order = (-slot_values).argsort(kind="stable")

    la = lam_act / scale
    sol = SecularSolution(
        values=slot_values[order],
        deflated=deflated[order],
        _slots=order,
        _active=act,
        _la=la,
        _dist=(la - la[near, None]) + offset[:, None],
        _scale=scale,
        _z_rot=z_rot,
        _rotations=tuple(rotations),
    )
    _check_interlacing(lam, float(np.abs(v).max()), sol)
    return sol


def _check_interlacing(lam: np.ndarray, vinf: float, sol: SecularSolution) -> None:
    """Cheap post-solve sanity: lambda_i <= nu_i <= lambda_i (1 + d*vinf^2)."""
    vinf2 = vinf * vinf  # +inf past the double range, without a numpy warning
    slack = 1e-9 * lam
    with np.errstate(over="ignore"):  # the upper end is +inf past the double range
        upper = lam * (1.0 + lam.size * vinf2)
    outside = (sol.values < lam - slack) | (sol.values > upper + slack)
    if outside.any():
        bad = int(np.argmax(outside))
        raise SecularBracketError(
            f"secular root {bad + 1} violates interlacing: nu={float(sol.values[bad])!r} "
            f"lambda={float(lam[bad])!r}"
        )


def _root(sol: SecularSolution, k: int) -> float:
    """The eigenvalue of active root k."""
    return float(sol.values[sol._slots == sol._active[k]][0])


def rankone_full(spec: Spectrum, v) -> EigenDecomposition:
    """Full eigendecomposition of D + sqrt(D) v v^T sqrt(D) via the secular path.

    Row k of `_eigenvectors` fills the eigenvector column of active root k
    over the active coordinates.  Deflated coordinates keep their unit
    vector, and the collision rotations are undone on the rows.
    """
    sol = secular_eigenvalues(spec, v)
    act = sol._active
    la = spec.lambdas[act]
    tight = np.abs(sol._poles) <= POLE_PROXIMITY_RTOL * la
    if np.any(tight):
        k, j = np.argwhere(tight)[0]
        message = (
            f"secular root nu={_root(sol, k)!r} lies within "
            f"1e-14 relative of undeflated pole lambda[{act[j] + 1}]={float(la[j])!r}; "
            "deflation thresholds are misconfigured"
        )
        # a caller that keeps the error keeps this frame through its traceback
        # (a batch run collecting its failures): let the n x n arrays go first
        del sol, tight
        raise DeflationError(message)
    vectors = _eigenvectors(sol)
    # a unit row sums within [-n, n]: its sum is finite exactly when every entry is
    finite = np.isfinite(vectors.sum(axis=1))
    if not finite.all():
        k = int(finite.argmin())
        raise ConvergenceError(
            f"the eigenvector of secular root nu={_root(sol, k)!r} above "
            f"lambda[{act[k] + 1}]={float(la[k])!r} has a norm that overflows"
        )
    if act.size == spec.d:  # nothing deflated, so nothing rotated either
        basis = vectors.T
    else:
        basis = np.eye(spec.d)
        basis[np.ix_(act, act)] = vectors.T
        for (j, k, c, s) in reversed(sol._rotations):
            basis[j], basis[k] = c * basis[j] - s * basis[k], s * basis[j] + c * basis[k]
    return EigenDecomposition(sol.values, apply_sign_convention(basis[:, sol._slots]))
