import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenpert import symmat
from eigenpert.harness import CROSSCHECK_RTOL
from eigenpert.rankone import (
    DeflationError,
    SecularBracketError,
    rankone_full,
    secular_eigenvalues,
)
from eigenpert.symmat import (
    ConvergenceError,
    PerturbationSet,
    Spectrum,
    build_perturbed,
    jacobi_eig,
)
from conftest import align_sign, gen_rankone_instance, mp_eigensolve, s_formula, shifted_dlaed9


def update(lams, z):
    """(spectrum, direction) of the update D + z z^T: v = z / sqrt(lambda)."""
    spec = Spectrum(lams)
    return spec, np.asarray(z, dtype=float) / np.sqrt(spec.lambdas)


_EPS = float(np.finfo(float).eps)
# the reference bisects each bracket down to this fraction, at most
# _ROOT_MAX_ITER halvings, before it switches to Newton
_NEWTON_SWITCH = 1e-3
_ROOT_MAX_ITER = 200


def _secular_root_reference(delta, w, lo, hi):
    """One root of 1 + sum w_j/(delta_j - mu) = 0 in (lo, hi), solved alone:
    bisection down to _NEWTON_SWITCH of the bracket (at most _ROOT_MAX_ITER
    halvings), then safeguarded Newton."""

    def g(mu):
        den = delta - mu
        terms = w / den
        return 1.0 + float(terms.sum()), float(np.sum(terms / den))

    width0 = hi - lo
    a, b = lo, hi
    for _ in range(_ROOT_MAX_ITER):
        if (b - a) <= _NEWTON_SWITCH * width0:
            break
        mid = 0.5 * (a + b)
        gv, _ = g(mid)
        if gv < 0.0:
            a = mid
        else:
            b = mid
    mu = 0.5 * (a + b)
    for _ in range(_ROOT_MAX_ITER):
        gv, gp = g(mu)
        if gv == 0.0:
            return mu
        if gv < 0.0:
            a = mu
        else:
            b = mu
        if gp <= 0.0:
            nxt = 0.5 * (a + b)
        else:
            nxt = mu - gv / gp
            if not (a < nxt < b):
                nxt = 0.5 * (a + b)
        if abs(nxt - mu) <= 32.0 * _EPS * abs(nxt):
            return nxt
        mu = nxt
    return mu


def _brackets_reference(la, w, total):
    """Anchor and bracket of each active root, chosen one root at a time:
    the top root in (0, ||z||^2], root i >= 1 in the half gap of
    (lambda_i, lambda_{i-1}) that the sign of g at the midpoint picks."""
    n = la.size
    anchors, lo, hi = np.zeros(n, dtype=int), np.zeros(n), np.zeros(n)
    for i in range(n):
        if i == 0:
            top = total if total > 0.0 else 1.0
            while 1.0 + float(np.sum(w / (la - la[0] - top))) < 0.0:
                top *= 1.0 + 2.0**-30
            hi[0] = top
            continue
        gap = float(la[i - 1] - la[i])
        if 1.0 + float(np.sum(w / ((la - la[i]) - 0.5 * gap))) >= 0.0:
            anchors[i], hi[i] = i, 0.5 * gap
        else:
            anchors[i], lo[i] = i - 1, -0.5 * gap
    return anchors, lo, hi


def active_roots(sol):
    """The eigenvalues of a solution's active (non-deflated) roots, descending."""
    by_coordinate = np.empty(sol.d)
    by_coordinate[sol._slots] = sol.values
    return by_coordinate[sol._active]


def assert_roots_match_reference(spec, v):
    """secular_eigenvalues' active roots agree within 1e-14 relative with the
    one-root-at-a-time bisection/Newton reference."""
    sol = secular_eigenvalues(spec, v)
    la = spec.lambdas[sol._active]
    w = sol._z_rot[sol._active] ** 2
    znorm = float(np.linalg.norm(np.sqrt(spec.lambdas) * v))
    anchors, lo, hi = _brackets_reference(la, w, znorm * znorm)
    with np.errstate(over="ignore", divide="ignore"):
        mus = [_secular_root_reference(la - la[a], w, lo[r], hi[r]) for r, a in enumerate(anchors)]
    ref = la[anchors] + np.array(mus)
    assert np.all(np.abs(active_roots(sol) - ref) <= 1e-14 * ref)


def mp_secular(la, z, poles, dps=32):
    """Roots and pole distances of 1 + sum_j z_j^2 / (la_j - nu), la distinct,
    refined by Newton in mpmath at `dps` digits from the double pole distances
    `poles` ([k, j] = la_j - nu_k).  Root k is solved as an offset from its
    nearer pole, so distances far below the ulp of la stay resolved."""
    import mpmath as mp

    n = len(la)
    values, dists = np.empty(n), np.empty((n, n))
    with mp.workdps(dps):
        lam = [mp.mpf(float(x)) for x in la]
        w = [mp.mpf(float(x)) ** 2 for x in z]
        for k in range(n):
            a = k - 1 if k and abs(poles[k, k - 1]) < abs(poles[k, k]) else k
            delta = [x - lam[a] for x in lam]
            mu = -mp.mpf(float(poles[k, a]))
            for _ in range(30):
                terms = [wj / (dj - mu) for wj, dj in zip(w, delta)]
                step = (1 + mp.fsum(terms)) / mp.fsum(t / (dj - mu) for t, dj in zip(terms, delta))
                mu -= step
                if abs(step) <= abs(mu) * mp.mpf(10) ** (8 - dps):
                    break
            values[k] = float(lam[a] + mu)
            dists[k] = [float(dj - mu) for dj in delta]
    return values, dists


def assert_poles_match_mpmath(spec, v, rtol=1e-13):
    """The pole distances lambda_j - nu_k of secular_eigenvalues agree with
    mpmath's within rtol relative, or a few subnormals where they underflow."""
    sol = secular_eigenvalues(spec, v)
    act = sol._active
    _, ref = mp_secular(spec.lambdas[act], sol._z_rot[act], sol._poles)
    floor = 4.0 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(sol._poles - ref) <= rtol * np.abs(ref) + floor)


def assert_values_match_mpmath(lambdas, v, rtol=1e-13):
    """secular_eigenvalues agrees within rtol relative with an mpmath
    eigensolve of D + z z^T, z = sqrt(D) v formed in mpmath."""
    import mpmath as mp

    sol = secular_eigenvalues(Spectrum(lambdas), v)
    lam = np.asarray(lambdas, dtype=float)
    with mp.workdps(30 + int(math.log10(lam[0] / lam[-1]))):
        diag = [mp.mpf(float(x)) for x in lam]
        z = mp.matrix([mp.sqrt(x) * mp.mpf(float(y)) for x, y in zip(diag, v)])
        ref = np.sort([float(x) for x in mp.eigsy(mp.diag(diag) + z * z.T, eigvals_only=True)])
    assert np.all(np.abs(sol.values - ref[::-1]) <= rtol * ref[::-1])


def graded_rank1(rng, log_l1, d=64):
    """A graded spectrum from 10**log_l1 down to 1 with jittered log-gaps,
    and weights |v_j| log-uniform in [1e-3, 2] with random signs."""
    gaps = rng.uniform(0.5, 1.5, d - 1)
    gaps *= log_l1 / gaps.sum()
    lambdas = 10.0 ** np.concatenate([[0.0], np.cumsum(gaps)])[::-1]
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    return lambdas, signs * 10.0 ** rng.uniform(-3.0, np.log10(2.0), d)


def clustered_rank1(rng, d=64):
    """Clusters of 1 to 8 eigenvalues with relative spacings log-uniform in
    [1e-9, 1e-3], centred log-uniformly over [1, 1e8], and weights |v_j|
    log-uniform in [1e-2, 2] with random signs."""
    sizes = []
    while sum(sizes) < d:
        sizes.append(int(rng.integers(1, 9)))
    sizes[-1] -= sum(sizes) - d
    centres = np.sort(10.0 ** rng.uniform(0.0, 8.0, len(sizes)))[::-1]
    lambdas = []
    for centre, size in zip(centres, sizes):
        steps = 10.0 ** rng.uniform(-9.0, -3.0, size - 1)
        lambdas.extend(centre * (1.0 - np.concatenate([[0.0], np.cumsum(steps)])))
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    return np.sort(lambdas)[::-1], signs * 10.0 ** rng.uniform(-2.0, np.log10(2.0), d)


_LAMBDA_POOL = st.lists(st.floats(1.0, 1e8), min_size=1, max_size=4)
_WEIGHT = st.one_of(
    st.just(0.0),
    st.floats(-2.0, 2.0),
    st.builds(lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 1.0]), st.integers(-13, 0)),
)


@st.composite
def rankone_inputs(draw):
    """Spectra drawn from a small pool of values (so ties are common) and
    weights that may be zero or as small as 1e-13."""
    d = draw(st.integers(1, 12))
    pool = draw(_LAMBDA_POOL)
    lambdas = sorted(draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d)), reverse=True)
    return lambdas, draw(st.lists(_WEIGHT, min_size=d, max_size=d))


class TestLockstepRoots:
    """The roots agree with the one-root-at-a-time bisection/Newton
    reference, and on d <= 12 with an mpmath eigensolve."""

    def test_graded_benchmark_instances(self):
        rng = np.random.default_rng(64)
        for log_l1 in np.linspace(2.0, 11.0, 24):
            lambdas, v = graded_rank1(rng, log_l1)
            spec = Spectrum(lambdas)
            assert_roots_match_reference(spec, v)
            assert_poles_match_mpmath(spec, v)

    def test_generated_instances(self):
        for seed in range(500):
            inst = gen_rankone_instance(seed)
            assert_roots_match_reference(inst.spectrum, inst.perts.vectors[0])
            assert_poles_match_mpmath(inst.spectrum, inst.perts.vectors[0])
            assert_values_match_mpmath(inst.spectrum.lambdas, inst.perts.vectors[0])

    @given(rankone_inputs())
    @example(([3.0, 2.0, 1.0], [0.0, 0.0, 0.0]))  # no active root
    @example(([1.0] * 5, [0.3, -0.2, 1e-13, 0.0, 0.5]))  # lambda = I: one root
    @example(([4.0, 1.0], [0.125, 1.25]))  # g = 0 exactly at the gap midpoint
    @example(([2.0, 1.0], [1e-161, 1e-161]))  # ||z||^2 a few subnormals wide
    @example(([2.0] * 3 + [1.0] * 4, [0.0, 0.0, 1e-8, 0.0, 0.0, 0.0, 1.0]))  # w_lo near the gap
    @settings(max_examples=300, deadline=None)
    def test_ties_zero_and_tiny_weights(self, inputs):
        lambdas, v = inputs
        spec = Spectrum(lambdas)
        z = np.sqrt(spec.lambdas) * v
        if z.any() and not np.any(z * z):
            # every z_j^2 underflows (subnormal weights): a typed error
            with pytest.raises(ConvergenceError, match="underflows"):
                secular_eigenvalues(spec, v)
            return
        assert_roots_match_reference(spec, v)
        assert_poles_match_mpmath(spec, v)
        assert_values_match_mpmath(lambdas, v)

    def test_subnormal_top_bracket_terminates(self):
        # ||z||^2 = 3e-322 never bisects down to NEWTON_SWITCH of itself
        sol = secular_eigenvalues(*update([2.0, 1.0], [1e-161, 1e-161]))
        assert np.array_equal(sol.values, [2.0, 1.0])

    def test_rankone_full_bytes_pinned(self):
        # sha256 of values + basis bytes, recorded once the three instances
        # were checked against mpmath: eigenvalues within 1e-13 relative and
        # every eigenvector coordinate within 1e-12 relative (the floor is
        # the mpmath eigensolve's own noise on structural zeros)
        def digest(spec, v):
            eig = rankone_full(spec, v)
            return hashlib.sha256(eig.values.tobytes() + eig.basis.tobytes()).hexdigest()

        rng = np.random.default_rng(64)
        graded = Spectrum(10.0 ** np.linspace(11.0, 0.0, 64))
        v = rng.choice([-1.0, 1.0], 64) * 10.0 ** rng.uniform(-3.0, 0.3, 64)
        inst = gen_rankone_instance(3)
        tied = Spectrum([5.0, 3.0, 3.0, 2.0, 1.0]), [0.4, 0.3, -0.2, 0.0, 0.5]

        sol = secular_eigenvalues(graded, v)
        assert not sol.deflated.any()
        values, dists = mp_secular(graded.lambdas, sol._z_rot, sol._poles)
        comps = np.abs(sol._z_rot / dists)
        refs = [(values, (comps / np.linalg.norm(comps, axis=1, keepdims=True)).T)]
        for spec, w in ((inst.spectrum, inst.perts.vectors[0]), tied):
            refs.append(mp_eigensolve(spec.lambdas, [w], 40))
        for (spec, w), (ref_values, ref_basis) in zip(
            [(graded, v), (inst.spectrum, inst.perts.vectors[0]), tied], refs
        ):
            eig = rankone_full(spec, w)
            assert np.all(np.abs(eig.values - ref_values) <= 1e-13 * ref_values)
            assert np.all(np.abs(np.abs(eig.basis) - ref_basis) <= 1e-12 * ref_basis + 1e-30)

        assert [digest(graded, v), digest(inst.spectrum, inst.perts.vectors[0]), digest(*tied)] == [
            "82afe949366dd73e869d47d52ac82ff5dbb0d029076ab75c52e85f6532e63d86",
            "9ab67923aae6a9def5d42fbb2e8ebe33db63c05f58838571c6c4a524213836ad",
            "eefb8eabfd3db1f88d3650876d13e6fab8278432381d35504997be24926a1bb8",
        ]


class TestSecularEigenvalues:
    def test_closed_form_quadratic(self):
        # D + zz^T = [[3,1],[1,2]] with roots (5 +- sqrt(5))/2
        sol = secular_eigenvalues(*update([2.0, 1.0], [1.0, 1.0]))
        hi = (5.0 + math.sqrt(5.0)) / 2.0
        lo = (5.0 - math.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(sol.values, [hi, lo], rtol=1e-14)
        assert not sol.deflated.any()

    def test_zero_update_deflates_everything(self):
        sol = secular_eigenvalues(Spectrum([3.0, 2.0, 1.0]), [0.0, 0.0, 0.0])
        assert np.array_equal(sol.values, [3.0, 2.0, 1.0])
        assert sol.deflated.all()

    def test_matches_jacobi_oracle(self):
        spec = Spectrum([100.0, 1.0])
        a = build_perturbed(spec, PerturbationSet([[1.0, 1.0]]))
        oracle = jacobi_eig(a)
        sol = secular_eigenvalues(spec, [1.0, 1.0])
        np.testing.assert_allclose(sol.values, oracle.values, rtol=1e-10)

    def test_secular_residual(self):
        for seed in range(40):
            inst = gen_rankone_instance(seed)
            sol = secular_eigenvalues(inst.spectrum, inst.perts.vectors[0])
            lam = inst.spectrum.lambdas
            z = np.sqrt(lam) * inst.perts.vectors[0]
            for k in range(sol.d):
                if sol.deflated[k]:
                    continue
                nu = sol.values[k]
                terms = z**2 / (lam - nu)
                resid = abs(1.0 + terms.sum())
                assert resid <= 1e-8 * np.sum(np.abs(terms))

    def test_interlacing_quantified(self):
        for seed in range(60):
            inst = gen_rankone_instance(seed)
            v = inst.perts.vectors[0]
            lam = inst.spectrum.lambdas
            sol = secular_eigenvalues(inst.spectrum, v)
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

    def test_root_outside_its_interval_is_named(self, monkeypatch):
        # a root the solver put below its lowest pole (0.5 under lambda_3 = 1)
        # is refused, naming its 1-based index, its value and its pole
        monkeypatch.setattr(symmat, "_dlaed9", shifted_dlaed9)
        with pytest.raises(SecularBracketError) as info:
            secular_eigenvalues(Spectrum([3.0, 2.0, 1.0]), [1.0, 1.0, 1.0])
        assert str(info.value) == "secular root 3 violates interlacing: nu=0.5 lambda=1.0"

    @pytest.mark.parametrize("solve", [secular_eigenvalues, rankone_full])
    def test_direction_of_wrong_length_is_refused(self, solve):
        # a length-1 direction is not broadcast to (0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"v has shape \(1,\), expected \(3,\)"):
            solve(Spectrum([3.0, 2.0, 1.0]), [0.5])


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
        sol = secular_eigenvalues(inst.spectrum, inst.perts.vectors[0])
        basis = rankone_full(inst.spectrum, inst.perts.vectors[0]).basis
        lam = inst.spectrum.lambdas
        z = np.sqrt(lam) * inst.perts.vectors[0]
        assert not sol.deflated.any()
        for i in range(sol.d):
            comps = z / (lam - sol.values[i])
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


class TestSecularSolve:
    @pytest.mark.parametrize("generator", ["graded", "clustered"])
    def test_basis_orthogonal_to_working_precision(self, generator):
        # max |X^T X - I| <= 1e-14 at d = 64; eigenvectors formed from the
        # pole distances dlaed4 returns reached 6e-13 on clustered spectra
        rng = np.random.default_rng(4101)
        for _ in range(400):
            if generator == "graded":
                lambdas, v = graded_rank1(rng, rng.uniform(2.0, 11.0))
            else:
                lambdas, v = clustered_rank1(rng)
            basis = rankone_full(Spectrum(lambdas), v).basis
            assert np.abs(basis.T @ basis - np.eye(64)).max() <= 1e-14

    @pytest.mark.parametrize("top", [1e-300, 1e-200, 1e300])
    def test_scaled_problem_matches_mpmath(self, top):
        # a spectrum far from 1 is solved scaled by a power of two; unscaled,
        # dlaed4 came out 1e-6 off at 1e-300 and 1e-200 and failed at 1e300
        lambdas = [top, top * 1e-5, top * 1e-10]
        eig = rankone_full(Spectrum(lambdas), [1.0, 1.0, 1.0])
        ref_values, ref_basis = mp_eigensolve(lambdas, [[1.0, 1.0, 1.0]], 40)
        assert np.all(np.abs(eig.values - ref_values) <= 1e-13 * ref_values)
        assert np.all(np.abs(np.abs(eig.basis) - ref_basis) <= 1e-12 * ref_basis)


class TestDeflation:
    def test_zero_entry_matches_perturbed_full_problem(self):
        # deflating a coordinate agrees with solving the slightly-perturbed
        # problem where that coordinate carries weight 1e-10
        lam = [4.0, 2.0, 1.0]
        z_defl = np.array([0.7, 0.0, 0.3])
        z_full = np.array([0.7, 1e-10, 0.3])
        a = secular_eigenvalues(*update(lam, z_defl))
        b = secular_eigenvalues(*update(lam, z_full))
        np.testing.assert_allclose(a.values, b.values, atol=1e-6)

    def test_tied_eigenvalues_match_perturbed_full_problem(self):
        lam_tied = [2.0, 1.0, 1.0]
        lam_split = [2.0, 1.0 + 1e-10, 1.0]
        z = np.array([0.5, 0.4, 0.3])
        a = secular_eigenvalues(*update(lam_tied, z))
        b = secular_eigenvalues(*update(lam_split, z))
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
        sol = secular_eigenvalues(*update([3.0, 1.0, 1.0], [0.5, 0.3, 0.4]))
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
