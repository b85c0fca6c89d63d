"""Dense symmetric matrices of the form D + sqrt(D) (sum_k v_k v_k^T) sqrt(D),
plus a self-contained cyclic-Jacobi eigensolver used as the reference oracle.

Jacobi rotations are chosen over tridiagonalization+QR because they retain
high *relative* accuracy for the small eigenvalues of strongly graded
positive definite matrices, which is exactly what the bound checks stress
(eigenvalue ratios up to 1e8 at d <= 50).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# First eigenvector component larger than this (in absolute value) is made
# positive; fixes signs deterministically across runs.
SIGN_PIVOT_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
JACOBI_REL_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100


class DimensionMismatchError(ValueError):
    """A perturbation vector does not match the spectrum dimension."""

    def __init__(self, message: str, vector_index: int | None = None):
        super().__init__(message)
        self.vector_index = vector_index


class ConvergenceError(RuntimeError):
    """The Jacobi sweep limit was reached before the off-diagonal target."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of the unperturbed matrix: strictly positive, descending."""

    lambdas: np.ndarray

    def __post_init__(self):
        arr = np.array(self.lambdas, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("spectrum must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("spectrum entries must be finite")
        if not np.all(arr > 0.0):
            bad = int(np.argmin(arr))
            raise ValueError(f"spectrum entries must be positive; lambda[{bad}] = {arr[bad]}")
        if np.any(np.diff(arr) > 0.0):
            bad = int(np.argmax(np.diff(arr) > 0.0))
            raise ValueError(f"spectrum must be non-increasing; violated at index {bad}")
        arr.flags.writeable = False
        object.__setattr__(self, "lambdas", arr)

    @property
    def d(self) -> int:
        return int(self.lambdas.size)

    @property
    def is_strict(self) -> bool:
        """True when all eigenvalues are strictly decreasing."""
        return bool(np.all(np.diff(self.lambdas) < 0.0))


@dataclass(frozen=True, eq=False)
class PerturbationSet:
    """The rank-one directions v_1..v_m and the derived bound parameter.

    `v_bound` is max(1/sqrt(d), max_k ||v_k||_inf): the infinity norm floored
    at 1/sqrt(d), which is the constant the eigenvector bounds are stated
    with.  `v_inf` is the raw (unfloored) max infinity norm used by the
    rank-m eigenvalue interval.
    """

    vectors: tuple
    dim: int | None = None

    def __post_init__(self):
        vecs = []
        d = self.dim
        for k, v in enumerate(self.vectors):
            arr = np.array(v, dtype=float)
            if arr.ndim != 1:
                raise DimensionMismatchError(f"vector {k} is not 1-D", vector_index=k)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"vector {k} has non-finite entries")
            if d is None:
                d = int(arr.size)
            elif arr.size != d:
                raise DimensionMismatchError(
                    f"vector {k} has length {arr.size}, expected {d}", vector_index=k
                )
            arr.flags.writeable = False
            vecs.append(arr)
        if d is None:
            raise ValueError("dim is required when the vector list is empty")
        if d < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "vectors", tuple(vecs))
        object.__setattr__(self, "dim", int(d))

    @property
    def m(self) -> int:
        return len(self.vectors)

    @property
    def v_inf(self) -> float:
        """Raw max_k ||v_k||_inf (0 when m = 0)."""
        if not self.vectors:
            return 0.0
        return float(max(np.max(np.abs(v)) for v in self.vectors))

    @property
    def v_bound(self) -> float:
        """max(1/sqrt(d), v_inf)."""
        return max(1.0 / math.sqrt(self.dim), self.v_inf)


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense d x d storage; entries are exactly symmetric."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValueError("entries are not exactly symmetric; use SymmetricMatrix.symmetrized")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def symmetrized(cls, arr, rel_tol: float = 1e-12) -> "SymmetricMatrix":
        """Mirror nearly-symmetric input; reject anything beyond `rel_tol`."""
        a = np.array(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = max(float(np.max(np.abs(a))), 1.0)
        skew = float(np.max(np.abs(a - a.T)))
        if skew > rel_tol * scale:
            raise ValueError(f"matrix is not symmetric: max |a - a^T| = {skew:.3e}")
        return cls(0.5 * (a + a.T))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Descending eigenvalues with an orthonormal, sign-fixed eigenbasis.

    Column k of `basis` pairs with `values[k]`.
    """

    values: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        bas = np.array(self.basis, dtype=float)
        d = vals.size
        if bas.shape != (d, d):
            raise ValueError(f"basis shape {bas.shape} does not match {d} eigenvalues")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("eigenvalues must be sorted descending")
        gram = bas.T @ bas - np.eye(d)
        resid = float(np.max(np.abs(gram)))
        if resid > ORTHONORMALITY_TOL:
            raise ValueError(f"basis is not orthonormal: residual {resid:.3e}")
        vals.flags.writeable = False
        bas.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "basis", bas)

    @property
    def d(self) -> int:
        return int(self.values.size)


def apply_sign_convention(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the first component with |x| > 1e-12 is positive."""
    out = np.array(basis, dtype=float)
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > SIGN_PIVOT_TOL)
        if idx.size and col[idx[0]] < 0.0:
            out[:, k] = -col
    return out


def build_perturbed(spec: Spectrum, perts: PerturbationSet) -> SymmetricMatrix:
    """Assemble D + sqrt(D) (sum_k v_k v_k^T) sqrt(D) exactly symmetrically.

    Each outer product z z^T is bitwise symmetric, so the result needs no
    mirroring.
    """
    d = spec.d
    for k, v in enumerate(perts.vectors):
        if v.size != d:
            raise DimensionMismatchError(
                f"vector {k} has length {v.size}, expected spectrum dimension {d}",
                vector_index=k,
            )
    sqrt_l = np.sqrt(spec.lambdas)
    a = np.diag(spec.lambdas)
    for v in perts.vectors:
        z = sqrt_l * v
        a = a + np.outer(z, z)
    return SymmetricMatrix(a)


def _offdiag_norm(m: np.ndarray) -> float:
    o = m - np.diag(np.diag(m))
    return float(np.linalg.norm(o))


def jacobi_eig(
    a: SymmetricMatrix,
    rel_tol: float = JACOBI_REL_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> EigenDecomposition:
    """Diagonalize by cyclic Jacobi rotations.

    Sweeps stop once the off-diagonal Frobenius norm drops below
    `rel_tol` times the Frobenius norm of the input, or fail after
    `max_sweeps` sweeps with a ConvergenceError carrying the residual.
    """
    m = np.array(a.entries, dtype=float)
    d = a.dim
    v = np.eye(d)
    fro = float(np.linalg.norm(m))
    tol = rel_tol * fro
    sweeps = 0
    while _offdiag_norm(m) > tol:
        if sweeps >= max_sweeps:
            resid = _offdiag_norm(m) / fro if fro > 0 else 0.0
            raise ConvergenceError(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(relative off-diagonal residual {resid:.3e})",
                residual=resid,
            )
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                # smaller-magnitude root of t^2 + 2 tau t - 1 = 0
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # each right-hand side is evaluated in full before either
                # column (row) is written back
                m[:, p], m[:, q] = c * m[:, p] - s * m[:, q], s * m[:, p] + c * m[:, q]
                m[p, :], m[q, :] = c * m[p, :] - s * m[q, :], s * m[p, :] + c * m[q, :]
                m[p, q] = 0.0
                m[q, p] = 0.0
                v[:, p], v[:, q] = c * v[:, p] - s * v[:, q], s * v[:, p] + c * v[:, q]
        sweeps += 1
    vals = np.diag(m).copy()
    order = np.argsort(-vals, kind="stable")
    return EigenDecomposition(vals[order], apply_sign_convention(v[:, order]))


def general_to_diagonal(
    b: SymmetricMatrix, perts: PerturbationSet
) -> tuple[Spectrum, PerturbationSet, EigenDecomposition]:
    """Rotate to the eigenbasis of a positive definite `b`.

    Returns the spectrum of b, the perturbation vectors expressed in that
    basis (P^T v), and the eigendecomposition itself so results can be
    mapped back to the original coordinates.
    """
    d = b.dim
    for k, v in enumerate(perts.vectors):
        if v.size != d:
            raise DimensionMismatchError(
                f"vector {k} has length {v.size}, expected matrix dimension {d}",
                vector_index=k,
            )
    eig = jacobi_eig(b)
    smallest = float(eig.values[-1])
    if smallest <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {smallest:.6e}",
            eigenvalue=smallest,
        )
    spec = Spectrum(eig.values)
    rotated = PerturbationSet(tuple(eig.basis.T @ v for v in perts.vectors), dim=d)
    return spec, rotated, eig
