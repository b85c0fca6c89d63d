import math

import numpy as np
import pytest

from eigenpert.harness import CROSSCHECK_RTOL, gen_rankone_instance
from eigenpert.rankone import (
    DeflationError,
    RankOneUpdate,
    rankone_full,
    secular_eigenvalues,
)
from eigenpert.symmat import PerturbationSet, Spectrum, build_perturbed, jacobi_eig
from conftest import align_sign, s_formula


def update(lams, z):
    return RankOneUpdate(Spectrum(lams), np.asarray(z, dtype=float))


class TestSecularEigenvalues:
    def test_closed_form_quadratic(self):
        # D + zz^T = [[3,1],[1,2]] with roots (5 +- sqrt(5))/2
        sol = secular_eigenvalues(update([2.0, 1.0], [1.0, 1.0]))
        hi = (5.0 + math.sqrt(5.0)) / 2.0
        lo = (5.0 - math.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(sol.values, [hi, lo], rtol=1e-14)
        assert not sol.deflated.any()

    def test_zero_update_deflates_everything(self):
        sol = secular_eigenvalues(update([3.0, 2.0, 1.0], [0.0, 0.0, 0.0]))
        assert np.array_equal(sol.values, [3.0, 2.0, 1.0])
        assert sol.deflated.all()

    def test_matches_jacobi_oracle(self):
        spec = Spectrum([100.0, 1.0])
        z = np.array([10.0, 1.0])  # v = (1, 1)
        a = build_perturbed(spec, PerturbationSet([[1.0, 1.0]]))
        oracle = jacobi_eig(a)
        sol = secular_eigenvalues(RankOneUpdate(spec, z))
        np.testing.assert_allclose(sol.values, oracle.values, rtol=1e-10)

    def test_secular_residual(self):
        for seed in range(40):
            inst = gen_rankone_instance(seed)
            u = RankOneUpdate.from_direction(inst.spectrum, inst.perts.vectors[0])
            sol = secular_eigenvalues(u)
            lam = inst.spectrum.lambdas
            for k in range(sol.d):
                if sol.deflated[k]:
                    continue
                nu = sol.values[k]
                terms = u.z**2 / (lam - nu)
                resid = abs(1.0 + terms.sum())
                assert resid <= 1e-8 * np.sum(np.abs(terms))

    def test_interlacing_quantified(self):
        for seed in range(60):
            inst = gen_rankone_instance(seed)
            v = inst.perts.vectors[0]
            lam = inst.spectrum.lambdas
            sol = secular_eigenvalues(RankOneUpdate.from_direction(inst.spectrum, v))
            d = lam.size
            vinf2 = float(np.max(v * v))
            slack = 1e-9 * lam
            assert np.all(sol.values >= lam - slack)
            assert np.all(sol.values <= lam * (1.0 + d * vinf2) + slack)
            # each root stays below its upper neighbour
            assert np.all(sol.values[1:] <= lam[:-1] + slack[:-1])
            # nu_1 never exceeds the trace bound lambda_1 + ||z||^2
            z2 = float(np.sum(lam * v * v))
            assert sol.values[0] <= lam[0] + z2 + slack[0]


class TestBnsEigenvector:
    # the columns of rankone_full's basis are the BNS eigenvectors
    def test_zero_update_gives_canonical_vectors(self):
        basis = rankone_full(Spectrum([3.0, 2.0, 1.0]), [0.0, 0.0, 0.0]).basis
        for i in range(3):
            expected = np.zeros(3)
            expected[i] = 1.0
            assert np.array_equal(basis[:, i], expected)

    def test_closed_form_2x2(self):
        # top eigenvector of [[3,1],[1,2]] is (1, (sqrt(5)-1)/2) normalized;
        # v = z / sqrt(lambda) gives z = (1, 1)
        vec = rankone_full(Spectrum([2.0, 1.0]), [1.0 / math.sqrt(2.0), 1.0]).basis[:, 0]
        g = (math.sqrt(5.0) - 1.0) / 2.0
        expected = np.array([1.0, g]) / math.sqrt(1.0 + g * g)
        np.testing.assert_allclose(vec, expected, atol=1e-14)

    def test_matches_jacobi_eigenvector(self):
        spec = Spectrum([100.0, 1.0])
        vec = rankone_full(spec, [1.0, 1.0]).basis[:, 0]
        oracle = jacobi_eig(build_perturbed(spec, PerturbationSet([[1.0, 1.0]])))
        ref = align_sign(oracle.basis[:, 0], vec)
        assert np.linalg.norm(vec - ref) <= 1e-9

    def test_normalizers_match_component_formula(self):
        # [e_i]_j = C_i z_j / (lambda_j - nu_i), C_i the reciprocal norm
        inst = gen_rankone_instance(3)
        u = RankOneUpdate.from_direction(inst.spectrum, inst.perts.vectors[0])
        sol = secular_eigenvalues(u)
        basis = rankone_full(inst.spectrum, inst.perts.vectors[0]).basis
        lam = inst.spectrum.lambdas
        assert not sol.deflated.any()
        for i in range(sol.d):
            comps = u.z / (lam - sol.values[i])
            direct = comps / float(np.linalg.norm(comps))
            direct = align_sign(direct, basis[:, i])
            np.testing.assert_allclose(basis[:, i], direct, atol=1e-9)


class TestRankoneFull:
    def test_golden_s_formula(self):
        # second coordinate of the top eigenvector for diag(lam1, 1), v=(1,1)
        for lam1 in (1e2, 1e4, 1e6):
            eig = rankone_full(Spectrum([lam1, 1.0]), [1.0, 1.0])
            assert abs(abs(eig.basis[1, 0]) - s_formula(lam1)) <= 1e-10

    def test_aligned_update_on_flat_spectrum(self):
        # all-equal spectrum, update along coordinate k: top eigenvector is e_k
        eig = rankone_full(Spectrum([2.0, 2.0, 2.0, 2.0]), [0.0, 0.0, 1.5, 0.0])
        assert eig.values[0] == pytest.approx(2.0 * (1.0 + 1.5**2), rel=1e-14)
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_allclose(eig.basis[:, 0], expected, atol=1e-15)

    def test_random_instance_matches_oracle(self):
        inst = gen_rankone_instance(17)
        assert 2 <= inst.d <= 10
        v = inst.perts.vectors[0]
        full = rankone_full(inst.spectrum, v)
        oracle = jacobi_eig(build_perturbed(inst.spectrum, inst.perts))
        np.testing.assert_allclose(full.values, oracle.values, rtol=1e-10)
        for k in range(inst.d):
            ref = align_sign(oracle.basis[:, k], full.basis[:, k])
            assert np.linalg.norm(full.basis[:, k] - ref) <= 1e-8

    def test_orthonormality_residual(self):
        for seed in (1, 2, 3, 4, 5):
            inst = gen_rankone_instance(seed)
            eig = rankone_full(inst.spectrum, inst.perts.vectors[0])
            gram = eig.basis.T @ eig.basis - np.eye(inst.d)
            assert np.max(np.abs(gram)) <= 1e-9


class TestDeflation:
    def test_zero_entry_matches_perturbed_full_problem(self):
        # deflating a coordinate agrees with solving the slightly-perturbed
        # problem where that coordinate carries weight 1e-10
        lam = [4.0, 2.0, 1.0]
        z_defl = np.array([0.7, 0.0, 0.3])
        z_full = np.array([0.7, 1e-10, 0.3])
        a = secular_eigenvalues(update(lam, z_defl))
        b = secular_eigenvalues(update(lam, z_full))
        np.testing.assert_allclose(a.values, b.values, atol=1e-6)

    def test_tied_eigenvalues_match_perturbed_full_problem(self):
        lam_tied = [2.0, 1.0, 1.0]
        lam_split = [2.0, 1.0 + 1e-10, 1.0]
        z = np.array([0.5, 0.4, 0.3])
        a = secular_eigenvalues(update(lam_tied, z))
        b = secular_eigenvalues(update(lam_split, z))
        np.testing.assert_allclose(a.values, b.values, atol=1e-6)

    def test_tied_block_eigenvectors_are_valid(self):
        lam = [2.0, 1.0, 1.0]
        z = np.array([0.5, 0.4, 0.3])
        eig = rankone_full(Spectrum(lam), z / np.sqrt(lam))
        a = np.diag(np.array(lam)) + np.outer(z, z)
        for i in range(3):
            vec = eig.basis[:, i]
            resid = a @ vec - eig.values[i] * vec
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(a)

    def test_flags_and_values_for_mixed_deflation(self):
        sol = secular_eigenvalues(update([3.0, 1.0, 1.0], [0.5, 0.3, 0.4]))
        # one secular root above 3, one above 1, and the rotated-out copy at 1
        assert sol.deflated.sum() == 1
        assert sol.values[0] > 3.0

    def test_graded_spectrum_keeps_distinct_small_eigenvalues(self):
        # consecutive eigenvalues 10^(12/63) apart: the collision test is
        # relative to the local eigenvalue, so none of them merge even though
        # their gaps fall below 1e-12 * lambda_1
        spec = Spectrum(10.0 ** np.linspace(12.0, 0.0, 64))
        v = np.full(64, 0.5)
        secular = rankone_full(spec, v).values
        oracle = jacobi_eig(build_perturbed(spec, PerturbationSet([v]))).values
        tol = CROSSCHECK_RTOL * np.maximum(1.0, np.abs(oracle))
        assert np.all(np.abs(secular - oracle) <= tol)

    def test_pole_sticking_raises_deflation_error(self):
        # a weight just above the deflation threshold leaves its root within
        # 1e-14 relative of the pole; the vector formula must refuse it
        # (v = z / sqrt(lambda) for z = (1, 1e-11))
        with pytest.raises(DeflationError, match="misconfigured"):
            rankone_full(Spectrum([2.0, 1.0]), [1.0 / math.sqrt(2.0), 1e-11])


class TestBnsOracleSweep:
    def test_bns_vs_oracle_alignment(self):
        # |<e_bns, e_oracle>| >= 1 - 1e-8 across a seeded stress sample
        for seed in range(120):
            inst = gen_rankone_instance(seed)
            full = rankone_full(inst.spectrum, inst.perts.vectors[0])
            oracle = jacobi_eig(build_perturbed(inst.spectrum, inst.perts))
            dots = np.abs(np.sum(full.basis * oracle.basis, axis=0))
            assert np.min(dots) >= 1.0 - 1e-8
