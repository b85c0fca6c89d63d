"""Dense symmetric matrices of the form D + sqrt(D) (sum_k v_k v_k^T) sqrt(D),
the `Instance` that pairs a spectrum with its perturbations, and the
eigensolver `oracle` that every bound check is judged against.

The oracle never forms that matrix: it takes A = F F^T, F = sqrt(D) [I | V],
to LAPACK's one-sided Jacobi SVD (dgejsv, Drmac & Veselic 2008) through
ctypes.  Jacobi on a factor keeps the small eigenvalues and the tiny
eigenvector coordinates of graded matrices relatively accurate (Demmel &
Veselic 1992), whatever lambda_1/lambda_d: the tests hold it to 1e-14 on
eigenvalues and 1e-13 on |[e_1]_j| against mpmath up to lambda_1 = 1e60.
It imports no other module of the package, so `eigenpert eig` loads it alone.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np

# First eigenvector component larger than this (in absolute value) is made
# positive; fixes signs deterministically across runs.
SIGN_PIVOT_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
# LAPACKE's one-sided Jacobi SVD and LAPACK's secular equation solver in the
# OpenBLAS build that numpy wheels ship under numpy.libs/ (ILP64, symbols
# prefixed scipy_ and suffixed 64_)
OPENBLAS_GLOB = "libscipy_openblas64_*.so"
DGEJSV_SYMBOL = "scipy_LAPACKE_dgejsv64_"
DLAED9_SYMBOL = "scipy_dlaed9_64_"
_LAPACK_COL_MAJOR = 102
_dgejsv = None
_dlaed9 = None


class InputError(ValueError):
    """Input from outside the program is rejected: bad data, not a fault."""


class DimensionMismatchError(InputError):
    """A perturbation vector does not match the spectrum dimension."""

    def __init__(self, message: str, vector_index: int | None = None):
        super().__init__(message)
        self.vector_index = vector_index


class ConvergenceError(RuntimeError):
    """The Jacobi SVD failed, or an input, an eigenvalue or an eigenvector
    norm is not finite; the base of every numerical failure."""


class LapackBindingError(RuntimeError):
    """The LAPACK library or symbol the oracle binds to is missing."""


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class ReadOnly:
    """Base of the classes whose `__init__` validates its fields and stores
    them in `vars(self)`: assigning or deleting an attribute afterwards
    raises AttributeError.  The repr lists the fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class Spectrum(ReadOnly):
    """Eigenvalues of the unperturbed matrix: strictly positive, descending.
    Compares and hashes by identity."""

    def __init__(self, lambdas):
        arr = np.array(lambdas, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InputError("spectrum must be a non-empty 1-D sequence")
        if not np.isfinite(arr).all():
            raise InputError("spectrum entries must be finite")
        if not (arr > 0.0).all():
            bad = int(np.argmin(arr))
            raise InputError(f"spectrum entries must be positive; lambda[{bad}] = {arr[bad]}")
        rises = arr[1:] > arr[:-1]
        if rises.any():
            bad = int(np.argmax(rises))
            raise InputError(f"spectrum must be non-increasing; violated at index {bad}")
        arr.flags.writeable = False
        vars(self)["lambdas"] = arr

    @property
    def d(self) -> int:
        return int(self.lambdas.size)

    @functools.cached_property
    def is_strict(self) -> bool:
        """True when all eigenvalues are strictly decreasing; computed once."""
        return bool((self.lambdas[1:] < self.lambdas[:-1]).all())


class PerturbationSet(ReadOnly):
    """The rank-one directions v_1..v_m and their max infinity norm `v_inf`.
    Compares and hashes by identity."""

    def __init__(self, vectors, dim: int | None = None):
        vecs = []
        d = dim
        for k, v in enumerate(vectors):
            arr = np.array(v, dtype=float)
            if arr.ndim != 1:
                raise DimensionMismatchError(f"vector {k} is not 1-D", vector_index=k)
            if not np.isfinite(arr).all():
                raise InputError(f"vector {k} has non-finite entries")
            if d is None:
                d = int(arr.size)
            elif arr.size != d:
                raise DimensionMismatchError(
                    f"vector {k} has length {arr.size}, expected {d}", vector_index=k
                )
            arr.flags.writeable = False
            vecs.append(arr)
        if d is None:
            raise InputError("dim is required when the vector list is empty")
        if d < 1:
            raise InputError("dim must be >= 1")
        vars(self).update(vectors=tuple(vecs), dim=int(d))

    @property
    def m(self) -> int:
        return len(self.vectors)

    @property
    def v_inf(self) -> float:
        """Raw max_k ||v_k||_inf (0 when m = 0)."""
        if not self.vectors:
            return 0.0
        return float(np.abs(self.vectors).max())


class Instance(NamedTuple):
    """A (spectrum, perturbations) pair with its reproduction recipe."""

    spectrum: Spectrum
    perts: PerturbationSet
    seed: int
    meta: str

    @property
    def d(self) -> int:
        return self.spectrum.d

    @property
    def m(self) -> int:
        return self.perts.m


class SymmetricMatrix(ReadOnly):
    """Dense d x d storage; entries are exactly symmetric."""

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValueError("entries are not exactly symmetric")
        arr.flags.writeable = False
        vars(self)["entries"] = arr

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


class EigenDecomposition(ReadOnly):
    """Descending eigenvalues with an orthonormal, sign-fixed eigenbasis.

    Column k of `basis` pairs with `values[k]`.
    """

    def __init__(self, values, basis):
        vals = np.array(values, dtype=float)
        bas = np.array(basis, dtype=float)
        d = vals.size
        if bas.shape != (d, d):
            raise ValueError(f"basis shape {bas.shape} does not match {d} eigenvalues")
        if (vals[1:] > vals[:-1]).any():
            raise ValueError("eigenvalues must be sorted descending")
        gram = bas.T @ bas
        gram.ravel()[:: d + 1] -= 1.0  # minus the identity
        resid = float(np.abs(gram, out=gram).max())
        if not resid <= ORTHONORMALITY_TOL:  # a nan residual is refused too
            raise ValueError(f"basis is not orthonormal: residual {resid:.3e}")
        vals.flags.writeable = bas.flags.writeable = False
        vars(self).update(values=vals, basis=bas)

    @property
    def d(self) -> int:
        return int(self.values.size)


def apply_sign_convention(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the first component with |x| > 1e-12 is positive."""
    out = np.array(basis, dtype=float)
    # argmax finds the first entry above the tolerance; in a column with none
    # it lands on an entry with |x| <= 1e-12, which never asks for a flip
    lead = (np.abs(out) > SIGN_PIVOT_TOL).argmax(axis=0)
    flip = out[lead, np.arange(out.shape[1])] < -SIGN_PIVOT_TOL
    np.negative(out, out=out, where=flip)
    return out


def build_perturbed(spec: Spectrum, perts: PerturbationSet) -> SymmetricMatrix:
    """Assemble D + sqrt(D) (sum_k v_k v_k^T) sqrt(D) exactly symmetrically.

    Each outer product z z^T is bitwise symmetric, so the result needs no
    mirroring.
    """
    d = spec.d
    if perts.m and perts.dim != d:
        raise DimensionMismatchError(
            f"vector 0 has length {perts.dim}, expected spectrum dimension {d}",
            vector_index=0,
        )
    sqrt_l = np.sqrt(spec.lambdas)
    a = np.diag(spec.lambdas)
    for v in perts.vectors:
        z = sqrt_l * v
        a = a + np.outer(z, z)
    return SymmetricMatrix(a)


@functools.cache
def _load_library(path: str) -> ctypes.CDLL:
    return ctypes.CDLL(path)


def _lapack_function(name: str, restype, *argtypes):
    """Function `name` of numpy's bundled OpenBLAS, which is loaded once,
    bound with its C signature."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libdir.glob(OPENBLAS_GLOB)) or [libdir / OPENBLAS_GLOB]
    try:
        return ctypes.CFUNCTYPE(restype, *argtypes)((name, _load_library(str(paths[0]))))
    except (OSError, AttributeError) as exc:
        raise LapackBindingError(f"cannot bind {name} from {paths[0]}: {exc}") from exc


def _bind_dgejsv():
    """LAPACKE's dgejsv, bound on first use."""
    global _dgejsv
    if _dgejsv is None:
        i64, ch, ptr = ctypes.c_int64, ctypes.c_char, ctypes.c_void_p
        # layout, joba, jobu, jobv, jobr, jobt, jobp, m, n, a, lda, sva,
        # u, ldu, v, ldv, stat, istat
        _dgejsv = _lapack_function(DGEJSV_SYMBOL, i64, ctypes.c_int, ch, ch, ch, ch, ch, ch,
                                   i64, i64, ptr, i64, ptr, ptr, i64, ptr, i64, ptr, ptr)
    return _dgejsv


def bind_dlaed9():
    """LAPACK's dlaed9 (the secular roots by dlaed4, then the Gu-Eisenstat
    eigenvectors), bound on first use.

    A Fortran routine: every argument is an address, integers are 64-bit.
    """
    global _dlaed9
    if _dlaed9 is None:
        # k, kstart, kstop, n, d, q, ldq, rho, dlambda, w, s, lds, info
        _dlaed9 = _lapack_function(DLAED9_SYMBOL, None, *[ctypes.c_void_p] * 13)
    return _dlaed9


def factor_eig(f: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of A = F F^T from its d x n factor F (n >= d),
    without forming A: the squared singular values and the left singular
    vectors of F, by dgejsv on G = F^T with column-scaled relative accuracy.

    A non-finite entry of F, or an eigenvalue that overflows, raises
    ConvergenceError.
    """
    # a C-ordered float64 copy, which dgejsv may overwrite, is G = F^T in
    # the column-major layout it reads
    work = np.array(f, dtype=np.float64, order="C")
    if work.ndim != 2 or not 1 <= work.shape[0] <= work.shape[1]:
        raise ValueError(f"the factor must be d x n with n >= d >= 1, got shape {work.shape}")
    if not np.isfinite(work).all():
        raise ConvergenceError("the factor has a non-finite entry")
    d, n = work.shape
    # dgejsv's outputs, from one block of 8-byte words: V^T (row k is column
    # k of V in LAPACK's column-major view), sva, stat and the int64 istat
    out = np.empty(d * d + d + 10)
    vt, sva, stat = out[: d * d].reshape(d, d), out[d * d : d * d + d], out[-10:-3]
    addr = out.ctypes.data
    # JOBU = 'N': no left singular vectors of G, so U is never touched
    info = _bind_dgejsv()(
        _LAPACK_COL_MAJOR, b"C", b"N", b"V", b"N", b"N", b"N", n, d, work.ctypes.data, n,
        addr + 8 * d * d, None, 1, addr, d, addr + 8 * (d * d + d), addr + 8 * (d * d + d + 7),
    )
    if info != 0:
        raise ConvergenceError(f"LAPACK dgejsv failed with info = {info}")
    with np.errstate(over="ignore"):
        sigma = stat[0] / stat[1] * sva  # dgejsv's factored form of the singular values
        vals = sigma * sigma
    if not np.isfinite(vals).all():
        message = f"an eigenvalue overflows: singular value {float(sigma[0])!r} squared"
        raise ConvergenceError(message)
    order = np.argsort(-vals, kind="stable")
    return EigenDecomposition(vals[order], apply_sign_convention(vt[order].T))


def oracle(instance: Instance) -> EigenDecomposition:
    """Eigendecomposition of D + sqrt(D) (sum_k v_k v_k^T) sqrt(D) from its
    factor F = sqrt(D) [I | v_1 ... v_m], without forming the matrix; a
    numerical failure names the instance that caused it."""
    d = instance.spectrum.d
    vectors = instance.perts.vectors
    n = d + len(vectors)
    sqrt_l = np.sqrt(instance.spectrum.lambdas)
    f = np.zeros((d, n))
    f.ravel()[:: n + 1] = sqrt_l  # the diagonal of the leading d x d block
    with np.errstate(over="ignore"):  # factor_eig refuses a non-finite factor
        for k, v in enumerate(vectors):
            np.multiply(sqrt_l, v, out=f[:, d + k])
    try:
        return factor_eig(f)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"oracle failed on instance seed={instance.seed} meta={instance.meta}: {exc}"
        ) from exc


def jacobi_eig(a: SymmetricMatrix) -> EigenDecomposition:
    """Diagonalize a positive definite matrix by the one-sided Jacobi SVD of
    its Cholesky factor (`factor_eig` of L, A = L L^T).

    A matrix that is not positive definite raises NotPositiveDefiniteError
    with its smallest eigenvalue; one with a non-finite entry raises
    ConvergenceError.
    """
    if not np.all(np.isfinite(a.entries)):
        raise ConvergenceError("the matrix has a non-finite entry")
    try:
        low = np.linalg.cholesky(a.entries)
    except np.linalg.LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(a.entries)[0])
        message = f"matrix is not positive definite: smallest eigenvalue {smallest:.6e}"
        raise NotPositiveDefiniteError(message, eigenvalue=smallest) from exc
    return factor_eig(low)

