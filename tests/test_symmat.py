import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eigenpert import symmat
from eigenpert.harness import _oracle, default_grid, gen_instance
from eigenpert.symmat import (
    SIGN_PIVOT_TOL,
    ConvergenceError,
    DimensionMismatchError,
    EigenDecomposition,
    LapackBindingError,
    NotPositiveDefiniteError,
    PerturbationSet,
    Spectrum,
    SymmetricMatrix,
    apply_sign_convention,
    build_perturbed,
    factor_eig,
    general_to_diagonal,
    jacobi_eig,
)
from conftest import mp_eigensolve, quadratic_eigenvalues

# The reference loop's own error against a high-precision eigensolve is at
# most 5.2e-15 on eigenvalues and 3.2e-11 on |[e_1]_j| (d <= 20, lambda_1 <=
# 1e16).  Its stopping test is absolute, so the tiny coordinates of the other
# eigenvectors are only accurate absolutely, and are compared that way.
REFERENCE_VALUE_RTOL = 1e-13
REFERENCE_E1_RTOL = 1e-10
REFERENCE_COMPONENT_ATOL = 1e-10


def _sign_convention_loop(basis):
    """The sign rule one column at a time: the reference for the vectorized
    apply_sign_convention."""
    out = np.array(basis, dtype=float)
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > SIGN_PIVOT_TOL)
        if idx.size and col[idx[0]] < 0.0:
            out[:, k] = -col
    return out


def _jacobi_reference(a, rel_tol=1e-13):
    """A two-sided cyclic Jacobi loop, independent of LAPACK: each rotation
    updates the columns of A, then its rows, then the columns of the basis.
    Sweeps stop once the off-diagonal Frobenius norm is below `rel_tol`
    times that of A."""
    m = np.array(a.entries, dtype=float)
    d = a.dim
    v = np.eye(d)
    tol = rel_tol * float(np.linalg.norm(m))
    while float(np.linalg.norm(m - np.diag(np.diag(m)))) > tol:
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                m[:, p], m[:, q] = c * m[:, p] - s * m[:, q], s * m[:, p] + c * m[:, q]
                m[p, :], m[q, :] = c * m[p, :] - s * m[q, :], s * m[p, :] + c * m[q, :]
                m[p, q] = 0.0
                m[q, p] = 0.0
                v[:, p], v[:, q] = c * v[:, p] - s * v[:, q], s * v[:, p] + c * v[:, q]
    vals = np.diag(m).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], _sign_convention_loop(v[:, order])


def _assert_matches_reference(a):
    values, basis = _jacobi_reference(a)
    eig = jacobi_eig(a)
    assert np.all(np.abs(eig.values - values) <= REFERENCE_VALUE_RTOL * values)
    assert np.all(np.abs(eig.basis - basis) <= REFERENCE_COMPONENT_ATOL)
    e1 = np.abs(eig.basis[:, 0] - basis[:, 0])
    assert np.all(e1 <= REFERENCE_E1_RTOL * np.abs(basis[:, 0]))
    return eig


class TestTypes:
    def test_spectrum_validation(self):
        s = Spectrum([3.0, 2.0, 1.0])
        assert s.d == 3
        assert s.is_strict
        assert not Spectrum([2.0, 1.0, 1.0]).is_strict
        with pytest.raises(ValueError, match="positive"):
            Spectrum([1.0, 0.0])
        with pytest.raises(ValueError, match="non-increasing"):
            Spectrum([1.0, 2.0])
        with pytest.raises(ValueError):
            Spectrum([])

    def test_perturbation_set_m_and_v_inf(self):
        p = PerturbationSet([np.array([1.0, -3.0]), np.array([0.5, 0.5])])
        assert p.m == 2
        assert p.v_inf == 3.0
        p0 = PerturbationSet((), dim=4)
        assert p0.v_inf == 0.0
        with pytest.raises(DimensionMismatchError) as err:
            PerturbationSet([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])
        assert err.value.vector_index == 1

    def test_symmetric_matrix_exactness(self):
        SymmetricMatrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            SymmetricMatrix(np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]]))

    def test_eigendecomposition_validation(self):
        EigenDecomposition(np.array([2.0, 1.0]), np.eye(2))
        with pytest.raises(ValueError, match="descending"):
            EigenDecomposition(np.array([1.0, 2.0]), np.eye(2))
        with pytest.raises(ValueError, match="orthonormal"):
            EigenDecomposition(np.array([2.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "values, basis, message",
        [
            ([1.0, 2.0], np.eye(2), "eigenvalues must be sorted descending"),
            ([3.0, 2.0, 2.0, 2.5], np.eye(4), "eigenvalues must be sorted descending"),
            # gram - I = [[0, 1], [1, 1]]
            ([2.0, 1.0], [[1.0, 1.0], [0.0, 1.0]], "basis is not orthonormal: residual 1.000e+00"),
            ([2.0, 1.0], [[1.0, 0.0], [0.0, 1.0 + 3e-10]],
             "basis is not orthonormal: residual 6.000e-10"),
            ([2.0, 1.0], np.eye(3)[:2], "basis shape (2, 3) does not match 2 eigenvalues"),
            ([2.0, 1.0], [[1.0, 0.0], [0.0, np.nan]], "basis is not orthonormal: residual nan"),
        ],
        ids=["unsorted", "unsorted-tail", "not-orthonormal", "diagonal-residual", "shape",
             "nan-basis"],
    )
    def test_eigendecomposition_error_messages(self, values, basis, message):
        with pytest.raises(ValueError) as err:
            EigenDecomposition(np.array(values), np.array(basis))
        assert str(err.value) == message

    def test_sign_convention(self):
        b = np.array([[-0.6, 0.8], [-0.8, -0.6]])
        fixed = apply_sign_convention(b)
        assert fixed[0, 0] > 0 and fixed[0, 1] > 0
        # a leading entry below the pivot tolerance is ignored
        col = np.array([[-1e-13], [-1.0]])
        assert apply_sign_convention(col)[1, 0] == 1.0
        b = np.array(
            [
                [-1e-12, 1e-13, 0.0, -0.5],
                [-5e-13, -1e-12, 0.0, 0.5],
                [1e-13, -0.6, 0.0, 0.0],
                [0.0, 0.8, 0.0, 1.0],
            ]
        )
        fixed = apply_sign_convention(b)
        assert np.array_equal(fixed, _sign_convention_loop(b))
        # every entry of column 0 is within the tolerance: no flip
        assert np.array_equal(fixed[:, 0], b[:, 0])
        # column 1: tiny leading entries in front of the negative pivot -0.6
        assert np.array_equal(fixed[:, 1], -b[:, 1])
        assert np.array_equal(fixed[:, 3], -b[:, 3])
        rng = np.random.default_rng(3)
        for shape in [(1, 1), (3, 5), (8, 8)]:
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-16, 2, size=shape)
            assert np.array_equal(apply_sign_convention(x), _sign_convention_loop(x))


class TestBuildPerturbed:
    def test_empty_sum_is_diagonal(self):
        a = build_perturbed(Spectrum([1.0, 1.0]), PerturbationSet((), dim=2))
        assert np.array_equal(a.entries, np.eye(2))

    def test_direct_expansion(self):
        a = build_perturbed(Spectrum([4.0, 1.0]), PerturbationSet([[1.0, 1.0]]))
        assert np.array_equal(a.entries, np.array([[8.0, 2.0], [2.0, 2.0]]))

    def test_trace_identity(self):
        # trace(A) = sum_i lambda_i (1 + sum_k v_k[i]^2), expanded termwise
        rng = np.random.default_rng(61)
        spec = Spectrum([100.0, 10.0, 1.0])
        vecs = [rng.standard_normal(3), rng.standard_normal(3)]
        a = build_perturbed(spec, PerturbationSet(vecs))
        expected = sum(
            spec.lambdas[i] * (1.0 + sum(v[i] ** 2 for v in vecs)) for i in range(3)
        )
        assert np.trace(a.entries) == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch_names_vector(self):
        with pytest.raises(DimensionMismatchError) as err:
            build_perturbed(
                Spectrum([2.0, 1.0]),
                PerturbationSet([np.array([1.0, 1.0, 1.0])]),
            )
        assert err.value.vector_index == 0


def _assert_accurate(eig, values, basis):
    """Eigenvalues within 1e-14 and |[e_1]_j| within 1e-13, relative to a
    high-precision reference."""
    assert np.all(np.abs(eig.values - values) <= 1e-14 * values)
    assert np.all(np.abs(np.abs(eig.basis[:, 0]) - basis[:, 0]) <= 1e-13 * basis[:, 0])


class TestJacobi:
    def test_already_diagonal(self):
        for diag in ([3.0, 1.0], [1e300, 1e300, 1.0]):
            eig = jacobi_eig(SymmetricMatrix(np.diag(diag)))
            # the squared singular values of sqrt(lambda) round, and so do
            # the unit entries of the basis; its zeros stay exact
            assert np.all(np.abs(eig.values - diag) <= 2 * np.spacing(diag))
            eye = np.eye(len(diag))
            assert np.all(np.abs(eig.basis - eye) <= 2 * np.spacing(eye))
            assert not np.any(eig.basis[eye == 0.0])

    def test_classic_2x2(self):
        eig = jacobi_eig(SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(eig.values, [3.0, 1.0], atol=1e-14)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(eig.basis[:, 0], [r, r], atol=1e-14)
        np.testing.assert_allclose(eig.basis[:, 1], [r, -r], atol=1e-14)

    def test_matches_characteristic_quadratic(self):
        a = build_perturbed(Spectrum([100.0, 1.0]), PerturbationSet([[1.0, 1.0]]))
        assert np.array_equal(a.entries, np.array([[200.0, 10.0], [10.0, 2.0]]))
        hi, lo = quadratic_eigenvalues(a.entries)
        eig = jacobi_eig(a)
        assert abs(eig.values[0] - hi) <= 1e-10 * hi
        assert abs(eig.values[1] - lo) <= 1e-10 * hi

    def test_nonconvergence_is_refused(self, monkeypatch):
        # dgejsv reports failure through info != 0 (info > 0: its Jacobi
        # sweeps did not converge)
        monkeypatch.setattr(symmat, "_dgejsv", lambda *args: 3)
        a = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ConvergenceError, match="info = 3"):
            jacobi_eig(a)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for lam1 in (1.0, 1e4, 1e8):
            spec = Spectrum(lam1 ** np.linspace(1.0, 0.0, 6))
            vecs = [rng.standard_normal(6) for _ in range(2)]
            a = build_perturbed(spec, PerturbationSet(vecs))
            eig = jacobi_eig(a)
            recon = eig.basis @ np.diag(eig.values) @ eig.basis.T
            err = np.linalg.norm(recon - a.entries)
            assert err <= 1e-9 * np.linalg.norm(a.entries)

    def test_minmax_consistency(self):
        # any Rayleigh quotient lies between the extreme eigenvalues
        rng = np.random.default_rng(11)
        spec = Spectrum([1e6, 1e3, 1.0])
        a = build_perturbed(spec, PerturbationSet([rng.standard_normal(3)]))
        eig = jacobi_eig(a)
        for _ in range(50):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            q = float(w @ a.entries @ w)
            assert eig.values[-1] - 1e-9 * eig.values[0] <= q
            assert q <= eig.values[0] * (1.0 + 1e-9)

    def test_overflowing_norm_is_solved(self):
        # ||A||_F overflows, but neither the Cholesky factor nor the Jacobi
        # SVD forms it; 1.09884615384615... is a 400-digit mpmath eigensolve
        a = build_perturbed(
            Spectrum([1e300, 1e150, 1.0]),
            PerturbationSet([[1.0, 1.0, 0.5], [0.5, -1.0, 0.1]]),
        )
        eig = jacobi_eig(a)
        assert eig.values[2] == pytest.approx(1.0988461538461538, rel=1e-15)
        assert eig.values[0] == pytest.approx(2.25e300, rel=1e-15)

    @pytest.mark.parametrize("solve", [lambda x: jacobi_eig(SymmetricMatrix(x)), factor_eig])
    def test_non_finite_entry_is_refused(self, solve):
        with pytest.raises(ConvergenceError, match="non-finite"):
            solve(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "f",
        [
            # the true top eigenvalue, 5e308, is not representable
            np.sqrt([1e308, 1.0])[:, None] * np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]),
            # a row norm of F overflows too: dgejsv returns its singular
            # values in a scaled form, whose top one is inf once unscaled
            np.array([[1.5e308, 1.5e308, 1.5e308], [0.0, 1.0, 0.0]]),
        ],
    )
    def test_overflowing_eigenvalue_is_refused(self, f):
        with pytest.raises(ConvergenceError, match="overflows"):
            factor_eig(f)

    @pytest.mark.parametrize("d", [5, 10])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lambda1", [1e4, 1e8, 1e12, 1e32, 1e60])
    def test_accuracy_against_mpmath(self, d, m, lambda1):
        inst = gen_instance(d, m, lambda1, 0)
        ref = mp_eigensolve(inst.spectrum.lambdas, inst.perts.vectors, _digits(lambda1))
        _assert_accurate(_oracle(inst), *ref)
        _assert_accurate(jacobi_eig(build_perturbed(inst.spectrum, inst.perts)), *ref)

    # one lambda_1 per m, and every m at the largest (0.3 s per reference)
    @pytest.mark.parametrize(
        "m, lambda1", [(1, 1e4), (2, 1e12), (3, 1e32), (1, 1e60), (2, 1e60), (3, 1e60)]
    )
    def test_accuracy_against_mpmath_d20(self, m, lambda1):
        inst = gen_instance(20, m, lambda1, 0)
        ref = mp_eigensolve(inst.spectrum.lambdas, inst.perts.vectors, _digits(lambda1))
        _assert_accurate(_oracle(inst), *ref)

    def test_monotonicity_in_m(self):
        # adding rank-one terms can only push every eigenvalue up
        rng = np.random.default_rng(23)
        spec = Spectrum([1e4, 1e2, 10.0, 1.0])
        vecs = [rng.standard_normal(4) for _ in range(3)]
        prev = jacobi_eig(build_perturbed(spec, PerturbationSet((), dim=4))).values
        for m in range(1, 4):
            cur = jacobi_eig(build_perturbed(spec, PerturbationSet(vecs[:m]))).values
            assert np.all(cur >= prev - 1e-9 * spec.lambdas[0])
            prev = cur


def _digits(lambda1: float) -> int:
    """Working digits for an mpmath reference: a fixed 40 on top of the
    digits that the spread of the spectrum cancels."""
    return int(math.log10(lambda1)) + 40


class TestLapackBinding:
    def test_factor_is_not_overwritten(self):
        f = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        kept = f.copy()
        factor_eig(f)
        assert np.array_equal(f, kept)

    def test_oracle_matches_formed_matrix(self):
        inst = gen_instance(10, 3, 1e8, 4)
        direct = _oracle(inst)
        formed = jacobi_eig(build_perturbed(inst.spectrum, inst.perts))
        assert np.all(np.abs(direct.values - formed.values) <= 1e-14 * formed.values)
        assert np.all(np.abs(direct.basis - formed.basis) <= 1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (3, 2), (0, 2), (0, 0)])
    def test_shape_checked_before_the_call(self, monkeypatch, shape):
        def unreachable(*args):
            raise AssertionError("dgejsv called")

        monkeypatch.setattr(symmat, "_dgejsv", unreachable)
        with pytest.raises(ValueError, match="d x n with n >= d >= 1"):
            factor_eig(np.ones(shape))

    def test_any_layout_and_dtype_is_copied_to_what_dgejsv_reads(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((4, 6))
        ref = factor_eig(f)
        wide = np.zeros((4, 12))
        wide[:, ::2] = f
        for same in (np.asfortranarray(f), wide[:, ::2], f.tolist()):
            eig = factor_eig(same)
            assert np.array_equal(eig.values, ref.values)
            assert np.array_equal(eig.basis, ref.basis)
        single = factor_eig(f.astype(np.float32))
        assert np.allclose(single.values, ref.values, rtol=1e-6)

    @pytest.mark.parametrize("attr, value", [
        ("DGEJSV_SYMBOL", "scipy_LAPACKE_no_such_routine64_"),
        ("OPENBLAS_GLOB", "libno_such_openblas_*.so"),
    ])
    def test_missing_library_or_symbol_fails_loudly(self, monkeypatch, attr, value):
        monkeypatch.setattr(symmat, "_dgejsv", None)
        monkeypatch.setattr(symmat, attr, value)
        with pytest.raises(LapackBindingError) as err:
            jacobi_eig(SymmetricMatrix(np.eye(2)))
        assert symmat.DGEJSV_SYMBOL in str(err.value)
        assert symmat.OPENBLAS_GLOB.split("*")[0] in str(err.value)
        assert symmat._dgejsv is None

    def test_cli_import_does_not_bind(self):
        code = (
            "import eigenpert.cli, eigenpert.symmat as s; "
            "assert s._dgejsv is None and s._dlaed9 is None; "
            "s.jacobi_eig(s.SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])); "
            "assert s._dgejsv is not None"
        )
        src = os.path.dirname(os.path.dirname(symmat.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestJacobiMatchesReference:
    def test_default_grid_up_to_d10(self):
        # lambda_1 = 1 makes D = I: a repeated eigenvalue whose eigenbasis
        # is not unique
        for p in default_grid(dims=(2, 3, 5, 10), lambda1s=(1e2, 1e4, 1e6, 1e8)):
            inst = gen_instance(p.d, p.m, p.lambda1, p.seed)
            _assert_matches_reference(build_perturbed(inst.spectrum, inst.perts))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("lambda1", [1e4, 1e8, 1e12])
    def test_graded_d30(self, m, lambda1):
        inst = gen_instance(30, m, lambda1, 0)
        _assert_matches_reference(build_perturbed(inst.spectrum, inst.perts))

    def test_exact_zero_off_diagonal(self):
        # (0, 2) starts at zero and is filled by the (0, 1) and (1, 2)
        # rotations; the 2x2 blocks of the second matrix never couple, and
        # their eigenvectors keep exact zeros outside their block
        _assert_matches_reference(
            SymmetricMatrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]]))
        )
        eig = _assert_matches_reference(
            SymmetricMatrix(
                np.array(
                    [
                        [4.0, 1.0, 0.0, 0.0],
                        [1.0, 3.0, 0.0, 0.0],
                        [0.0, 0.0, 2.0, 0.5],
                        [0.0, 0.0, 0.5, 1.0],
                    ]
                )
            )
        )
        assert not np.any(eig.basis[2:, :2]) and not np.any(eig.basis[:2, 2:])

    def test_tied_diagonal(self):
        # equal diagonal entries give tau = 0, a rotation by 45 degrees
        _assert_matches_reference(
            SymmetricMatrix(np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 2.0]]))
        )


class TestGeneralToDiagonal:
    def test_already_diagonal(self):
        b = SymmetricMatrix(np.diag([9.0, 1.0]))
        spec, perts, p = general_to_diagonal(b, PerturbationSet([[1.0, 2.0]]))
        assert np.array_equal(spec.lambdas, [9.0, 1.0])
        assert np.array_equal(p.basis, np.eye(2))
        assert np.array_equal(perts.vectors[0], [1.0, 2.0])

    def test_rotated_diagonal(self):
        c = s = 1.0 / math.sqrt(2.0)
        r = np.array([[c, -s], [s, c]])
        a = r @ np.diag([9.0, 1.0]) @ r.T
        b = SymmetricMatrix(0.5 * (a + a.T))
        spec, _, p = general_to_diagonal(b, PerturbationSet((), dim=2))
        np.testing.assert_allclose(spec.lambdas, [9.0, 1.0], rtol=1e-12)
        # columns match the rotation up to the sign convention
        for k in range(2):
            col = p.basis[:, k]
            ref = r[:, k] if np.dot(r[:, k], col) >= 0 else -r[:, k]
            np.testing.assert_allclose(col, ref, atol=1e-12)

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((5, 5))
        a = g @ g.T + 5.0 * np.eye(5)
        b = SymmetricMatrix(0.5 * (a + a.T))
        vecs = [rng.standard_normal(5)]
        spec, rotated, p = general_to_diagonal(b, PerturbationSet(vecs))
        recon = p.basis @ np.diag(spec.lambdas) @ p.basis.T
        assert np.linalg.norm(recon - b.entries) <= 1e-10 * np.linalg.norm(b.entries)
        # rotated vectors reproduce the original perturbation
        back = p.basis @ rotated.vectors[0]
        np.testing.assert_allclose(back, vecs[0], atol=1e-12)

    def test_rejects_indefinite(self):
        b = SymmetricMatrix(np.diag([1.0, -2.0]))
        with pytest.raises(NotPositiveDefiniteError) as err:
            general_to_diagonal(b, PerturbationSet((), dim=2))
        assert err.value.eigenvalue == pytest.approx(-2.0)
