import math

import numpy as np
import pytest

from eigenpert.harness import default_grid, gen_instance
from eigenpert.symmat import (
    JACOBI_REL_TOL,
    SIGN_PIVOT_TOL,
    ConvergenceError,
    DimensionMismatchError,
    EigenDecomposition,
    NotPositiveDefiniteError,
    PerturbationSet,
    Spectrum,
    SymmetricMatrix,
    apply_sign_convention,
    build_perturbed,
    general_to_diagonal,
    jacobi_eig,
)
from conftest import quadratic_eigenvalues


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


def _jacobi_reference(a, rel_tol=JACOBI_REL_TOL):
    """The two-sided cyclic Jacobi loop that jacobi_eig must reproduce bit for
    bit: each rotation updates the columns of A, then its rows, then the
    columns of the basis, all as full-length array operations."""
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
    assert np.array_equal(eig.values, values)
    assert np.array_equal(eig.basis, basis)


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

    def test_perturbation_set_v_bound(self):
        p = PerturbationSet([np.array([1.0, -3.0]), np.array([0.5, 0.5])])
        assert p.m == 2
        assert p.v_inf == 3.0
        assert p.v_bound == 3.0
        # empty set: V floors at 1/sqrt(d)
        p0 = PerturbationSet((), dim=4)
        assert p0.v_inf == 0.0
        assert p0.v_bound == pytest.approx(0.5)
        with pytest.raises(DimensionMismatchError) as err:
            PerturbationSet([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])
        assert err.value.vector_index == 1

    def test_symmetric_matrix_exactness(self):
        SymmetricMatrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            SymmetricMatrix(np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]]))
        m = SymmetricMatrix.symmetrized(np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]]))
        assert np.array_equal(m.entries, m.entries.T)
        with pytest.raises(ValueError):
            SymmetricMatrix.symmetrized(np.array([[1.0, 2.0], [5.0, 3.0]]))

    def test_eigendecomposition_validation(self):
        EigenDecomposition(np.array([2.0, 1.0]), np.eye(2))
        with pytest.raises(ValueError, match="descending"):
            EigenDecomposition(np.array([1.0, 2.0]), np.eye(2))
        with pytest.raises(ValueError, match="orthonormal"):
            EigenDecomposition(np.array([2.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))

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


class TestJacobi:
    def test_already_diagonal(self):
        eig = jacobi_eig(SymmetricMatrix(np.diag([3.0, 1.0])))
        assert np.array_equal(eig.values, [3.0, 1.0])
        assert np.array_equal(eig.basis, np.eye(2))
        # a Frobenius norm that overflows is no reason to refuse a diagonal
        eig = jacobi_eig(SymmetricMatrix(np.diag([1e300, 1e300, 1.0])))
        assert np.array_equal(eig.values, [1e300, 1e300, 1.0])
        assert np.array_equal(eig.basis, np.eye(3))

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

    def test_nonconvergence_carries_residual(self):
        a = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ConvergenceError) as err:
            jacobi_eig(a, max_sweeps=0)
        assert err.value.residual > 0

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

    def test_overflowing_norm_is_refused(self):
        a = build_perturbed(
            Spectrum([1e300, 1e150, 1.0]),
            PerturbationSet([[1.0, 1.0, 0.5], [0.5, -1.0, 0.1]]),
        )
        with pytest.raises(ConvergenceError, match="overflows") as err:
            jacobi_eig(a)
        assert err.value.residual == math.inf

    @pytest.mark.parametrize("d", [5, 10])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("lambda1", [1e4, 1e8, 1e12])
    def test_accuracy_against_mpmath(self, d, m, lambda1):
        mp = pytest.importorskip("mpmath")
        inst = gen_instance(d, m, lambda1, 0)
        a = build_perturbed(inst.spectrum, inst.perts)
        eig = jacobi_eig(a)
        with mp.workdps(60):
            ev, q = mp.eigsy(mp.matrix(a.entries.tolist()))
            order = sorted(range(d), key=lambda k: ev[k], reverse=True)
            ref_values = np.array([float(ev[k]) for k in order])
            ref_e1 = np.array([float(abs(q[i, order[0]])) for i in range(d)])
        assert np.all(np.abs(eig.values - ref_values) <= 1e-14 * ref_values)
        assert np.all(np.abs(np.abs(eig.basis[:, 0]) - ref_e1) <= 1e-12 * ref_e1)

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


class TestJacobiMatchesReference:
    def test_default_grid_up_to_d10(self):
        for p in default_grid(dims=(2, 3, 5, 10)):
            inst = gen_instance(p.d, p.m, p.lambda1, p.seed)
            _assert_matches_reference(build_perturbed(inst.spectrum, inst.perts))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("lambda1", [1e4, 1e8, 1e12])
    def test_graded_d30(self, m, lambda1):
        inst = gen_instance(30, m, lambda1, 0)
        _assert_matches_reference(build_perturbed(inst.spectrum, inst.perts))

    def test_exact_zero_off_diagonal(self):
        # (0, 2) starts at zero and is skipped in the first sweep, then
        # filled by the (0, 1) and (1, 2) rotations; the 2x2 blocks of the
        # second matrix never couple
        _assert_matches_reference(
            SymmetricMatrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]]))
        )
        _assert_matches_reference(
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
        b = SymmetricMatrix.symmetrized(r @ np.diag([9.0, 1.0]) @ r.T)
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
        b = SymmetricMatrix.symmetrized(g @ g.T + 5.0 * np.eye(5))
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
