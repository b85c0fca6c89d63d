import hashlib
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenpert import bounds as bnd
from eigenpert.symmat import PerturbationSet, Spectrum, build_perturbed, jacobi_eig
from conftest import gen_rankone_instance


def params(d, m, v_bound):
    """The BoundParams of m directions of length d with every entry v_bound."""
    return bnd.BoundParams(PerturbationSet([np.full(d, v_bound)] * m, dim=d))


def rank1_params(v):
    """The BoundParams of the single direction v."""
    return bnd.BoundParams(PerturbationSet([v]))


class TestAlpha:
    def test_equal_arguments(self):
        assert bnd.alpha(7.3, 7.3) == 1.0

    def test_direct_evaluation(self):
        assert bnd.alpha(100.0, 1.0) == pytest.approx(0.1, abs=0)
        assert bnd.alpha(1.0, 100.0) == pytest.approx(0.1, abs=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bnd.alpha(0.0, 1.0)
        with pytest.raises(ValueError):
            bnd.alpha(1.0, -2.0)

    def test_broadcasts_over_arrays(self):
        a = np.array([[100.0], [4.0]])
        b = np.array([1.0, 4.0, 400.0])
        table = bnd.alpha(a, b)
        assert table.shape == (2, 3)
        for r in range(2):
            for c in range(3):
                assert table[r, c] == bnd.alpha(float(a[r, 0]), float(b[c]))
        with pytest.raises(ValueError):
            bnd.alpha(a, np.array([1.0, 0.0]))

    @given(
        st.floats(min_value=5e-324, max_value=sys.float_info.max),
        st.floats(min_value=5e-324, max_value=sys.float_info.max),
    )
    @settings(max_examples=300)
    @pytest.mark.filterwarnings("error")
    def test_positive_over_the_double_range(self, a, b):
        # min/max underflows for far-apart arguments; alpha never does
        assert 0.0 < bnd.alpha(a, b) <= 1.0
        assert bnd.alpha(a, b) == bnd.alpha(b, a)
        assert bnd.alpha(np.array([a]), b)[0] == bnd.alpha(a, b)

    def test_extreme_pairs(self):
        tiny, huge = 5e-324, sys.float_info.max
        assert bnd.alpha(tiny, huge) == pytest.approx(math.sqrt(tiny) / math.sqrt(huge), rel=1e-6)
        assert bnd.alpha(1.0, 1e-300) == math.sqrt(1e-300)  # a normal ratio keeps its bits

    @given(
        st.floats(min_value=1e-8, max_value=1e8),
        st.floats(min_value=1e-8, max_value=1e8),
    )
    @settings(max_examples=200)
    def test_symmetry_exact(self, a, b):
        assert bnd.alpha(a, b) == bnd.alpha(b, a)
        assert 0.0 < bnd.alpha(a, b) <= 1.0


@st.composite
def spectra(draw, max_d=8):
    """A Spectrum of d <= max_d entries from 1e-300 to 1e300, with ties."""
    d = draw(st.integers(1, max_d))
    pool = draw(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=d))
    lambdas = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))
    return Spectrum(sorted(lambdas, reverse=True))


@st.composite
def rank1_cases(draw):
    """A spectrum and one direction over the double range, zeros included."""
    spec = draw(spectra())
    entry = st.one_of(st.just(0.0), st.floats(-1e300, 1e300, allow_nan=False))
    return spec, np.array(draw(st.lists(entry, min_size=spec.d, max_size=spec.d)))


def _sqrt_ratio(mn, mx):
    """sqrt(mn / mx) as `alpha` forms it: sqrt(mn) / sqrt(mx) where mn / mx
    lies below the normal range, where the quotient has lost bits."""
    r = mn / mx
    return np.where(r < np.finfo(float).tiny, np.sqrt(mn) / np.sqrt(mx), np.sqrt(r))


def _rank1_parent(spec, p, i):
    """`eigenvalue_bound_rank1` as it was before the ratio table: the ratio
    lambda_j / lambda_i is formed in every column, and overflows in the
    columns j < i of a wide spectrum, which the mask drops."""
    if p.m != 1 or not spec.is_strict:
        return None
    mag = np.abs(p.perts.vectors[0])
    if not mag.all():
        return None
    lam, d, i = spec.lambdas, spec.d, np.asarray(i)
    lam_i = lam[i][..., None]
    tail = (d - i)[..., None]
    with np.errstate(over="ignore"):
        threshold = lam_i * (1.0 - _sqrt_ratio(lam, lam_i) * tail * p.v_inf * mag)
        feasible = (np.arange(d) >= i[..., None]) & (lam >= threshold)
        ji = np.argmax(np.where(feasible, mag, -1.0), axis=-1)
        return lam[i] * (1.0 + (d - i) * p.v_inf * mag[ji])


def _refined_parent(spec, p, i, j):
    """`eigvec_bound_rank1_refined` as it was before the ratio table."""
    lami, lamj = spec.lambdas[i], spec.lambdas[j]
    mx, mn = np.maximum(lami, lamj), np.minimum(lami, lamj)
    w, k = p.w[i], p.w_psi[i]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        applicable = mx > (1.0 + p.d * bnd._power(p.v_bound, 2)) * mn
        r = mn / mx
        value = k / (1.0 - (1.0 + w) * r) * _sqrt_ratio(mn, mx)
    return np.where(applicable & (k < math.inf), np.minimum(1.0, value), 1.0)


def _same_bits(a, b):
    return (a is None and b is None) or np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestRatioTable:
    @given(spectra())
    @settings(max_examples=200)
    def test_matches_alpha_bit_for_bit(self, spec):
        r, a = bnd.ratio_table(spec)
        lam = spec.lambdas
        assert r.shape == a.shape == (spec.d, spec.d)
        for i in range(spec.d):
            for j in range(spec.d):
                assert _same_bits(a[i, j], bnd.alpha(lam[i], lam[j]))
                assert _same_bits(r[i, j], min(lam[i], lam[j]) / max(lam[i], lam[j]))
        for t in (r, a):
            with pytest.raises(ValueError, match="read-only"):
                t[0, 0] = 0.5

    def test_one_table_per_spectrum_object(self):
        spec = Spectrum([9.0, 4.0, 1.0])
        assert bnd.ratio_table(spec) is bnd.ratio_table(spec)
        twin = Spectrum([9.0, 4.0, 1.0])  # equal, but another object: its own table
        assert bnd.ratio_table(twin) is not bnd.ratio_table(spec)
        assert [t.tobytes() for t in bnd.ratio_table(twin)] == [
            t.tobytes() for t in bnd.ratio_table(spec)]
        assert bnd.ratio_table(spec)[0][0].tolist() == [1.0, 4.0 / 9.0, 1.0 / 9.0]

    @given(rank1_cases())
    @settings(max_examples=300)
    def test_bounds_match_the_parent_expressions(self, case):
        spec, v = case
        p = rank1_params(v)
        idx = np.arange(spec.d)
        i, j = np.divmod(np.arange(spec.d**2), spec.d)
        assert _same_bits(bnd.eigenvalue_bound_rank1(spec, p, idx), _rank1_parent(spec, p, idx))
        refined = bnd.eigvec_bound_rank1_refined(spec, p, i, j)
        assert _same_bits(refined, _refined_parent(spec, p, i, j))
        for k in idx:
            assert _same_bits(bnd.eigenvalue_bound_rank1(spec, p, k), _rank1_parent(spec, p, k))

    @pytest.mark.parametrize(
        "lambdas", [[1e300, 1.0, 1e-300], [1e200, 1e100, 1e-10, 1e-150, 1e-200]], ids=["d3", "d5"]
    )
    def test_parent_overflow_columns_are_dropped(self, lambdas):
        # lambda_j / lambda_i overflowed in the columns j < i of these rows;
        # the table holds lambda_i / lambda_j there, and the bound's bits stay
        spec = Spectrum(lambdas)
        lam = spec.lambdas
        with np.errstate(over="ignore"):
            assert np.isinf(lam / lam[-1]).any()
        d = spec.d
        for v in (np.linspace(0.3, 1.0, d), np.full(d, 1e-3), np.linspace(2.0, 1e-8, d)):
            p = rank1_params(v)
            idx = np.arange(spec.d)
            bound = bnd.eigenvalue_bound_rank1(spec, p, idx)
            assert np.isfinite(bound).all()
            assert _same_bits(bound, _rank1_parent(spec, p, idx))


class TestPsi:
    def test_direct_values(self):
        assert bnd.psi(0.5, 1.0) == pytest.approx(4.0)
        assert bnd.psi(0.5, 0.1) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            bnd.psi(0.0, 1.0)
        with pytest.raises(ValueError):
            bnd.psi(1.0, 1.0)
        with pytest.raises(ValueError):
            bnd.psi(0.5, 0.0)

    def test_crossing_point_w1(self):
        rho_star = (math.sqrt(5.0) - 1.0) / 2.0
        assert bnd.psi(rho_star, 1.0) == pytest.approx(2.0 / rho_star, rel=1e-12)


class TestPsiInf:
    def test_w1_closed_form(self):
        assert bnd.psi_inf(1.0) == pytest.approx(1.0 + math.sqrt(5.0), rel=1e-15)

    def test_small_w_limit(self):
        assert bnd.psi_inf(1e-12) == pytest.approx(2.0, rel=1e-9)

    def test_monotone_in_w(self):
        assert bnd.psi_inf(2.0) > bnd.psi_inf(1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200)
    def test_is_infimum(self, w):
        # no sampled rho beats the closed-form crossing value
        value = bnd.psi_inf(w)
        rho_star = 2.0 * w / (w + math.sqrt(w * w + 4.0))
        assert 0.0 < rho_star < 1.0
        # evaluating psi at the crossing loses ~w^2 ulps to cancellation in
        # (1 - rho); the closed form itself is exact
        rel = max(1e-12, 1e-13 * w * w)
        assert bnd.psi(rho_star, w) == pytest.approx(value, rel=rel)
        for rho in (0.05, 0.2, 0.5, 0.8, 0.95):
            assert bnd.psi(rho, w) >= value * (1.0 - 1e-12)


class TestEigenvalueBounds:
    def test_rankm_no_perturbation(self):
        spec = Spectrum([5.0, 2.0])
        lo, hi = bnd.eigenvalue_bound_rankm(spec, params(2, 0, 1.0), 0)
        assert (lo, hi) == (5.0, 5.0)

    def test_rankm_paper_instance(self):
        # d=2, m=1, lambda=(100,1), v=(1,1): nu_1 certified within [100, 300]
        spec = Spectrum([100.0, 1.0])
        lo, hi = bnd.eigenvalue_bound_rankm(spec, params(2, 1, 1.0), 0)
        assert (lo, hi) == (100.0, 300.0)

    def test_rankm_contains_oracle(self):
        rng = np.random.default_rng(31)
        spec = Spectrum([1e4, 500.0, 90.0, 7.0, 1.0])
        vecs = [rng.standard_normal(5) for _ in range(3)]
        perts = PerturbationSet(vecs)
        p = bnd.BoundParams.from_perturbations(perts)
        nus = jacobi_eig(build_perturbed(spec, perts)).values
        for i in range(5):
            lo, hi = bnd.eigenvalue_bound_rankm(spec, p, i)
            assert lo - 1e-9 * lo <= nus[i] <= hi + 1e-9 * hi

    def test_rank1_golden(self):
        spec = Spectrum([100.0, 1.0])
        v = np.array([1.0, 1.0])
        assert bnd.eigenvalue_bound_rank1(spec, rank1_params(v), 0) == pytest.approx(300.0)
        oracle = jacobi_eig(build_perturbed(spec, PerturbationSet([v]))).values
        assert oracle[0] <= 300.0

    def test_rank1_last_index(self):
        # at i = d-1 the bound reduces to lambda_d (1 + vinf |v_d|)
        spec = Spectrum([9.0, 1.0])
        p = rank1_params([0.5, 0.7])
        assert bnd.eigenvalue_bound_rank1(spec, p, 1) == pytest.approx(1.0 + 0.7 * 0.7)

    def test_rank1_randomized_soundness(self):
        for seed in range(200):
            inst = gen_rankone_instance(seed)
            p = bnd.BoundParams.from_perturbations(inst.perts)
            nus = jacobi_eig(build_perturbed(inst.spectrum, inst.perts)).values
            for i in range(inst.d):
                b = bnd.eigenvalue_bound_rank1(inst.spectrum, p, i)
                assert nus[i] <= b + 1e-9 * inst.spectrum.lambdas[i]


def _j_index_reference(lam, v, i):
    """The loop form of the pivot j_i: the first j >= i of largest |v_j|
    among the feasible ones."""
    d = lam.size
    vinf = float(np.max(np.abs(v)))
    best, best_mag = -1, -1.0
    for j in range(i, d):
        mag = abs(float(v[j]))
        threshold = lam[i] * (1.0 - math.sqrt(lam[j] / lam[i]) * (d - i) * vinf * mag)
        if lam[j] >= threshold and mag > best_mag:
            best, best_mag = j, mag
    return best


def _rank1_reference(spec, v, i):
    """The refined bound at one index, through the loop form of the pivot."""
    vinf = float(np.max(np.abs(v)))
    j = _j_index_reference(spec.lambdas, v, i)
    return float(spec.lambdas[i]) * (1.0 + (spec.d - i) * vinf * abs(float(v[j])))


@st.composite
def full_grid_cases(draw):
    """A spectrum from the smallest subnormal to 1e300, sometimes with a tie,
    and m <= 2 directions, mostly m = 1, with entries up to 1e154 in
    magnitude, the first sometimes with a zero: the refinement applies in
    about half the examples."""
    d = draw(st.integers(1, 8))
    lambdas = draw(st.lists(st.floats(5e-324, 1e300), min_size=d, max_size=d, unique=True))
    if draw(st.integers(0, 3)) == 3:
        lambdas[-1] = lambdas[0]
    m = draw(st.sampled_from([1, 1, 1, 0, 2]))
    entry = st.floats(-1e154, 1e154, allow_nan=False).filter(bool)
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=m, max_size=m))
    if m and draw(st.integers(0, 3)) == 3:
        vectors[0][draw(st.integers(0, d - 1))] = 0.0
    return Spectrum(sorted(lambdas, reverse=True)), vectors


class TestJIndex:
    """The pivot j_i of the rank-one eigenvalue refinement, seen through the
    bound it selects."""

    @given(full_grid_cases())
    @settings(max_examples=300)
    def test_full_grid_matches_scalar_calls(self, case):
        # over the whole index grid, whether the caller's arange or the
        # per-dimension layout's, the bound is the scalar calls' bit for bit,
        # and None exactly for m != 1, a tie in lambda or a zero entry of v
        spec, vectors = case
        lam, d = spec.lambdas, spec.d
        p = bnd.BoundParams(PerturbationSet(vectors, dim=d))
        assert spec.is_strict == bool((lam[1:] < lam[:-1]).all())
        applies = len(vectors) == 1 and len(set(lam.tolist())) == d and 0.0 not in vectors[0]
        scalars = [bnd.eigenvalue_bound_rank1(spec, p, i) for i in range(d)]
        for idx in (np.arange(d), bnd._layout(d)[0]):
            grid = bnd.eigenvalue_bound_rank1(spec, p, idx)
            assert (grid is None) == (not applies)
            if applies:
                assert grid.tobytes() == np.array(scalars).tobytes()
            else:
                assert scalars == [None] * d

    def test_array_form_matches_loop_reference(self):
        insts = [gen_rankone_instance(seed) for seed in range(200)]
        cases = [(inst.spectrum, inst.perts.vectors[0]) for inst in insts]
        # near-flat spectra with repeated |v_j|: the smallest maximizing j wins
        eps = 1e-7
        cases += [(Spectrum(1.0 - eps * np.arange(6)), np.array([0.2, -0.5, 0.5, 0.1, -0.5, 0.3])),
                  (Spectrum([4.0, 3.0, 2.0, 1.0]), np.array([0.3, 0.3, -0.3, 0.3]))]
        for spec, v in cases:
            p = rank1_params(v)
            idx = np.arange(spec.d)
            expected = np.array([_rank1_reference(spec, v, i) for i in idx])
            scalar = np.array([bnd.eigenvalue_bound_rank1(spec, p, i) for i in idx])
            assert scalar.tobytes() == expected.tobytes()
            assert bnd.eigenvalue_bound_rank1(spec, p, idx).tobytes() == expected.tobytes()

    def test_rejects_out_of_range_index_in_array(self):
        with pytest.raises(IndexError, match="index 3 out of range"):
            bnd.eigenvalue_bound_rank1(
                Spectrum([3.0, 2.0, 1.0]), rank1_params([0.1, 0.2, 0.3]), np.arange(4)
            )

    def test_hand_evaluated_2d(self):
        # 1-based j=2 infeasible: 1 < 100 (1 - 0.1 * 2 * 1 * 1) = 80, so the
        # pivot is j=1 and the bound 100 (1 + 2 * 1 * 0.5), not 100 (1 + 2 * 1 * 1)
        spec = Spectrum([100.0, 1.0])
        v = [0.5, 1.0]
        assert _j_index_reference(spec.lambdas, v, 0) == 0
        assert bnd.eigenvalue_bound_rank1(spec, rank1_params(v), 0) == 200.0

    def test_last_index_is_singleton(self):
        spec = Spectrum([50.0, 5.0, 1.0])
        v = [0.3, 0.2, 0.1]
        assert _j_index_reference(spec.lambdas, v, 2) == 2
        assert bnd.eigenvalue_bound_rank1(spec, rank1_params(v), 2) == 1.0 * (1.0 + 1 * 0.3 * 0.1)

    def test_near_flat_spectrum_picks_largest_entry(self):
        eps = 1e-6
        spec = Spectrum([1.0, 1.0 - eps, 1.0 - 2 * eps])
        v = [0.1, 0.2, 0.3]
        assert _j_index_reference(spec.lambdas, v, 0) == 2
        assert bnd.eigenvalue_bound_rank1(spec, rank1_params(v), 0) == 1.0 * (1.0 + 3 * 0.3 * 0.3)

    def test_rejects_zero_entries_and_ties(self):
        # None where the refinement does not apply: a zero entry of v, a
        # repeated eigenvalue, m = 2 and m = 0
        assert bnd.eigenvalue_bound_rank1(Spectrum([2.0, 1.0]), rank1_params([1.0, 0.0]), 0) is None
        assert bnd.eigenvalue_bound_rank1(Spectrum([1.0, 1.0]), rank1_params([1.0, 1.0]), 0) is None
        spec = Spectrum([2.0, 1.0])
        assert bnd.eigenvalue_bound_rank1(spec, params(2, 2, 1.0), 0) is None
        assert bnd.eigenvalue_bound_rank1(spec, params(2, 0, 1.0), np.arange(2)) is None


@st.composite
def graded_rank1_cases(draw):
    """A graded spectrum from up to 1e40 down to 1, ties allowed, and a
    zero-free direction whose entries run from 1e-3 to 1e3 in magnitude, or
    from 1e70 to 1e160, where c1 = 5 d^2 V^4 or w psi_inf(w) overflows."""
    d = draw(st.integers(2, 12))
    logs = sorted(draw(st.lists(st.floats(0.0, 40.0), min_size=d, max_size=d)), reverse=True)
    exps = draw(st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(70.0, 160.0)),
                         min_size=d, max_size=d))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
    return 10.0 ** np.array(logs), np.array(signs) * 10.0 ** np.array(exps)


class TestEigvecBounds:
    def test_rank1_formula(self):
        spec = Spectrum([1e6, 1.0])
        assert bnd.eigvec_bound_rank1(spec, params(2, 1, 1.0), 0, 1) == pytest.approx(0.02)

    def test_rank1_caps_at_one(self):
        spec = Spectrum([2.0, 1.0])
        assert bnd.eigvec_bound_rank1(spec, params(2, 1, 1.0), 0, 0) == 1.0

    def test_rank1_golden_observed(self):
        # lam1 = 1e4 golden instance: observed ~ 1e-2/2, bound 0.2
        spec = Spectrum([1e4, 1.0])
        p = params(2, 1, 1.0)
        b = bnd.eigvec_bound_rank1(spec, p, 0, 1)
        assert b == pytest.approx(0.2)
        eig = jacobi_eig(build_perturbed(spec, PerturbationSet([[1.0, 1.0]])))
        assert abs(eig.basis[1, 0]) == pytest.approx(0.005, rel=2e-4)
        assert abs(eig.basis[1, 0]) <= b

    def test_refined_regime_boundary(self):
        # ratio exactly 1 + d V^2 falls back to the trivial bound
        spec = Spectrum([3.0, 1.0])
        assert bnd.eigvec_bound_rank1_refined(spec, params(2, 1, 1.0), 0, 1) == 1.0

    def test_refined_closed_form(self):
        spec = Spectrum([1e6, 1.0])
        val = bnd.eigvec_bound_rank1_refined(spec, params(2, 1, 1.0), 0, 1)
        expected = 2.0 * (2.0 + math.sqrt(8.0)) / (1.0 - 3e-6) * 1e-3
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.009657, rel=1e-4)

    def test_refined_dominated_by_coarse(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 500:
            d = int(rng.integers(2, 8))
            lam1 = 10.0 ** rng.uniform(1.0, 8.0)
            expo = np.sort(rng.uniform(0.0, 1.0, d))[::-1]
            spec = Spectrum(lam1**expo)
            v = rng.uniform(-2.0, 2.0, d)
            p = bnd.BoundParams.from_perturbations(PerturbationSet([v]))
            i = int(rng.integers(0, d))
            j = int(rng.integers(0, d))
            mx = max(spec.lambdas[i], spec.lambdas[j])
            mn = min(spec.lambdas[i], spec.lambdas[j])
            if mx <= (1.0 + p.d * p.v_bound**2) * mn:
                continue
            refined = bnd.eigvec_bound_rank1_refined(spec, p, i, j)
            coarse = bnd.eigvec_bound_rank1(spec, p, i, j)
            assert refined <= coarse + 1e-15
            checked += 1

    @given(graded_rank1_cases())
    @example(([1e40, 1e30, 1e10, 1.0], [5e76, -1.0, 1.0, 1.0]))  # c1 = inf, w psi finite
    @settings(max_examples=300, deadline=None)
    def test_refined_never_looser_than_coarse_everywhere(self, case):
        # the reason reports carries no note for the refined bound exceeding
        # the coarse one: it cannot happen (eigvec_bound_rank1_refined's docstring)
        lambdas, v = case
        spec = Spectrum(lambdas)
        p = bnd.BoundParams(PerturbationSet([v]))
        i, j = np.divmod(np.arange(spec.d**2), spec.d)
        refined = bnd.eigvec_bound_rank1_refined(spec, p, i, j)
        assert np.all(refined <= bnd.capped(p.c1, bnd.alpha(spec.lambdas[i], spec.lambdas[j])))

    def test_rankm_m0_reduces_to_alpha(self):
        spec = Spectrum([4.0, 1.0])
        p = params(2, 0, 1.0)
        assert bnd.eigvec_bound_rankm(spec, p, 0, 0) == 1.0
        assert bnd.eigvec_bound_rankm(spec, p, 0, 1) == pytest.approx(0.5)

    def test_rankm_formula(self):
        spec = Spectrum([1e8, 1.0])
        assert bnd.eigvec_bound_rankm(spec, params(2, 1, 1.0), 0, 1) == pytest.approx(0.064)

    def test_rankm_cap_monotone_in_ratio(self):
        # for fixed params the bound never increases as the ratio grows
        p = params(3, 2, 1.2)
        prev = math.inf
        for ratio in 10.0 ** np.linspace(0.0, 10.0, 40):
            spec = Spectrum([ratio, 1.0, 1.0])
            b = bnd.eigvec_bound_rankm(spec, p, 0, 1)
            assert b <= prev + 1e-15
            prev = b

    def test_index_arrays_match_scalar_formulas(self):
        # scalar loop references: the array evaluation keeps the arithmetic
        # order of the formulas, so agreement is exact
        spec = Spectrum([1e14, 1e9, 3e3, 40.0, 2.0, 1.0])
        p = params(6, 1, 0.9)
        i, j = np.divmod(np.arange(36), 6)
        coarse = bnd.eigvec_bound_rank1(spec, p, i, j)
        refined = bnd.eigvec_bound_rank1_refined(spec, p, i, j)
        rankm = bnd.eigvec_bound_rankm(spec, p, i, j)
        cm = bnd.cm_constant(p)
        v2 = p.v_bound**2
        for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            mn, mx = sorted((float(spec.lambdas[a]), float(spec.lambdas[b])))
            r = mn / mx
            assert coarse[k] == min(1.0, 5.0 * p.d**2 * p.v_bound**4 * math.sqrt(r))
            assert rankm[k] == min(1.0, cm * math.sqrt(r))
            w = (p.d - a) * v2
            value = w * (w + math.sqrt(w * w + 4.0)) / (1.0 - (1.0 + w) * r) * math.sqrt(r)
            assert refined[k] == (1.0 if mx <= (1.0 + p.d * v2) * mn else min(1.0, value))
        assert 0 < np.count_nonzero(refined < 1.0) < 36
        assert 0 < np.count_nonzero(rankm < 1.0)
        lo, hi = bnd.eigenvalue_bound_rankm(spec, p, np.arange(6))
        assert list(zip(lo.tolist(), hi.tolist())) == [
            bnd.eigenvalue_bound_rankm(spec, p, k) for k in range(6)
        ]
        assert isinstance(bnd.eigvec_bound_rankm(spec, p, 0, 1), float)

    def test_rankm_randomized_soundness(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(0, 4))
            lam1 = 10.0 ** rng.uniform(0.0, 8.0)
            expo = np.linspace(1.0, 0.0, d)
            spec = Spectrum(lam1**expo)
            perts = PerturbationSet([rng.standard_normal(d) for _ in range(m)], dim=d)
            p = bnd.BoundParams.from_perturbations(perts)
            eig = jacobi_eig(build_perturbed(spec, perts))
            for i in range(d):
                for j in range(d):
                    b = bnd.eigvec_bound_rankm(spec, p, i, j)
                    assert abs(eig.basis[j, i]) <= b + 1e-9 * max(1.0, b)


class TestCmConstant:
    def test_m0(self):
        assert bnd.cm_constant(params(2, 0, 1.0)) == 1.0

    def test_one_step(self):
        assert bnd.cm_constant(params(2, 1, 1.0)) == 640.0

    def test_two_steps_exact(self):
        # 5 * 2^7 * 640^5 * sqrt(1 + 2) = 640^6 sqrt(3)
        expected = 640.0**6 * math.sqrt(3.0)
        assert bnd.cm_constant(params(2, 2, 1.0)) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.19e17, rel=1e-2)

    def test_saturation_to_inf(self):
        assert math.isinf(bnd.cm_constant(params(20, 5, 2.5)))
        # saturated constant still yields the trivial (capped) bound
        spec = Spectrum([1e8, 1.0])
        assert bnd.eigvec_bound_rankm(spec, params(2, 50, 1.0), 0, 1) == 1.0

    def test_overflowing_v_bound_saturates(self):
        # V^2 = 1e400 and V^4 lie past the double range: the bounds they
        # enter are vacuous (+inf, or capped at 1), not an OverflowError
        p = params(2, 1, 1e200)
        spec = Spectrum([1.0, 1e-300])
        assert math.isinf(bnd.cm_constant(p))
        assert bnd.eigenvalue_bound_rankm(spec, p, 0) == (1.0, math.inf)
        assert bnd.eigvec_bound_rank1(spec, p, 0, 1) == 1.0
        assert bnd.eigvec_bound_rank1_refined(spec, p, 0, 1) == 1.0
        assert bnd.eigvec_bound_rankm(spec, p, 0, 1) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_overflowed_constant_with_underflowed_alpha_is_one(self):
        # the ratio 1e-300 / 1e300 underflows to 0, but alpha is formed as
        # sqrt(1e-300) / sqrt(1e300) there and stays positive; each constant
        # below overflows to inf (C_m; 5 d^2 V^4; w psi_inf(w)), and every
        # bound is the vacuous 1, never nan
        spec = Spectrum([1e300, 1e-300])
        assert 1e-300 / 1e300 == 0.0
        assert bnd.alpha(1e300, 1e-300) == pytest.approx(1e-300, rel=1e-15)
        i, j = np.divmod(np.arange(4), 2)
        saturated = params(2, 4, 1.0)
        assert math.isinf(bnd.cm_constant(saturated))
        assert bnd.eigvec_bound_rankm(spec, saturated, 0, 1) == 1.0
        assert bnd.eigvec_bound_rankm(spec, saturated, i, j).tolist() == [1.0] * 4
        huge = params(2, 1, 1e100)
        for bound in (bnd.eigvec_bound_rank1, bnd.eigvec_bound_rank1_refined,
                      bnd.eigvec_bound_rankm):
            assert bound(spec, huge, 1, 0) == 1.0
            assert bound(spec, huge, i, j).tolist() == [1.0] * 4

    def test_params_carry_the_constant(self):
        # BoundParams.cm is cm_constant of the same parameters, bit for bit,
        # finite or saturated; the rank-m bound reads it and its bytes are
        # the ones it gave when C_m was computed per call (sha256 pinned)
        spec = Spectrum([1e14, 1e9, 3e3, 40.0, 2.0, 1.0])
        i, j = np.divmod(np.arange(36), 6)
        digest = hashlib.sha256()
        cases = (params(6, 1, 0.9), params(6, 2, 0.5), params(6, 9, 2.0), params(6, 1, 1e200))
        for p in cases:
            cm = bnd.cm_constant(p)
            assert np.float64(p.cm).tobytes() == np.float64(cm).tobytes()
            a = bnd.alpha(spec.lambdas[i], spec.lambdas[j])
            expected = np.minimum(1.0, cm * a) if math.isfinite(cm) else np.ones_like(a)
            rankm = bnd.eigvec_bound_rankm(spec, p, i, j)
            assert rankm.tobytes() == expected.tobytes()
            assert bnd.eigvec_bound_rankm(spec, p, 0, 5) == rankm[5]
            digest.update(rankm.tobytes())
        assert [math.isinf(p.cm) for p in cases] == [False, False, True, True]
        assert digest.hexdigest() == (
            "1fdece823f1aae8ce47625ca291901e37b646c07c7935965c4c6d62b5c1f1c30"
        )


class TestBoundParams:
    def test_built_from_perturbations_alone(self):
        # perts is the one init parameter, and V = max(1/sqrt(d), v_inf)
        assert list(inspect.signature(bnd.BoundParams).parameters) == ["perts"]
        with pytest.raises(TypeError):
            bnd.BoundParams(d=4, m=1, v_bound=0.1, v_inf=0.1)
        for v, v_bound in ((0.1, 0.5), (0.75, 0.75)):
            perts = PerturbationSet([np.full(4, v)])
            p = bnd.BoundParams(perts)
            assert (p.d, p.m, p.v_inf, p.v_bound) == (4, 1, v, v_bound)
            shared = bnd.BoundParams.from_perturbations(perts)
            assert p == shared and (p.cm, p.c1) == (shared.cm, shared.c1)
            assert p.w.tobytes() == shared.w.tobytes()
            assert p.w_psi.tobytes() == shared.w_psi.tobytes()

    def test_from_perturbations(self):
        perts = PerturbationSet([np.array([0.1, -0.2])])
        p = bnd.BoundParams.from_perturbations(perts)
        assert p.v_inf == pytest.approx(0.2)
        assert p.v_bound == pytest.approx(1.0 / math.sqrt(2.0))
        # V = max(1/sqrt(d), max_k ||v_k||_inf), floored also for m = 0
        two = PerturbationSet([np.array([1.0, -3.0]), np.array([0.5, 0.5])])
        assert bnd.BoundParams.from_perturbations(two).v_bound == 3.0
        empty = bnd.BoundParams.from_perturbations(PerturbationSet((), dim=4))
        assert empty.v_bound == pytest.approx(0.5)


def record_entries(i, j, observed, bound, side="upper"):
    """A record array of ENTRY_DTYPE from parallel arrays, its slack formed
    by `entry_slack` from the side of each entry."""
    observed = np.asarray(observed, dtype=float)
    bound = np.asarray(bound, dtype=float)
    entries = np.empty(len(bound), dtype=bnd.ENTRY_DTYPE)
    entries["i"], entries["j"], entries["side"] = i, j, side
    entries["observed"], entries["bound"] = observed, bound
    entries["slack"] = bnd.entry_slack(observed, bound, entries["side"] == "lower")
    return entries


def upper_report(observed, bound):
    n = len(observed)
    return bnd.make_report("eigvec-rankm", record_entries(np.zeros(n, int), 1, observed, bound))


class TestReports:
    def test_pass_rule(self):
        rep = upper_report([0.5], [0.6])
        assert rep.passed and rep.worst_slack == pytest.approx(0.1)
        # violation beyond -1e-9 * |bound| fails
        assert not upper_report([0.5, 0.5 + 3e-9], [0.6, 0.5]).passed
        # tiny violation within tolerance passes
        assert upper_report([0.5 + 1e-10], [0.5]).passed
        # entries built elsewhere are judged by the same rule
        bad = bnd.BoundEntry(0, 1, observed=0.5 + 3e-9, bound=0.5, slack=-3e-9)
        assert not bnd.make_report("eigvec-rankm", [bad]).passed

    def test_lower_entries(self):
        row = bnd.BoundEntry(0, -1, observed=5.0, bound=4.0, slack=1.0, side="lower")
        rep = bnd.make_report("eigenvalue-rankm", [row])
        (e,) = rep.entries
        assert e.side == "lower" and e.slack == 1.0 and rep.passed
        # a lower entry whose bound exceeds its observation fails
        assert not bnd.make_report("eigenvalue-rankm", [row._replace(slack=-1.0)]).passed

    @pytest.mark.parametrize("observed", [1e-10, 1e-160, 5e-321])
    def test_half_bound_fails_below_1e_9(self, observed):
        # the tolerance is relative to the bound alone: a bound that misses
        # by a factor of two fails however small the observation
        assert not upper_report([observed], [observed / 2]).passed
        lower = record_entries([0], -1, [observed], [2 * observed], "lower")
        assert not bnd.make_report("eigenvalue-rankm", lower).passed

    def test_pass_rule_broadcasts(self):
        slack = np.array([0.0, -0.5e-9, -2e-9, -1.5e-6])
        bound = np.array([0.5, 0.5, 0.5, 1e3])
        assert bnd.passes(slack, bound).tolist() == [True, True, False, False]

    def test_make_report_from_record_array(self):
        entries = record_entries(
            np.array([0, 0]), -1, [5.0, 5.0], [4.0, 6.0], np.array(["lower", "upper"])
        )
        rep = bnd.make_report("eigenvalue-rankm", entries)
        assert rep.passed and rep.notes == ()
        e = rep.entries
        assert isinstance(e, np.recarray)
        assert e.dtype == bnd.ENTRY_DTYPE and len(e) == 2
        assert e.i.tolist() == [0, 0]
        assert e.j.tolist() == [-1, -1]  # no j for the eigenvalue kinds
        assert e.observed.tolist() == [5.0, 5.0]
        assert e.bound.tolist() == [4.0, 6.0]
        assert e.slack.tolist() == [1.0, 1.0]
        assert e.side.tolist() == ["lower", "upper"]
        # the report keeps the record array it was given, not a copy
        assert np.shares_memory(e, entries)

    @pytest.mark.parametrize(
        "side",
        ["upper", "lower", np.array(["lower", "upper", "upper", "lower", "upper"])],
        ids=["upper", "lower", "array"],
    )
    def test_slack_matches_side_field_formula(self, side):
        # the slack equals the formula on the record's side field bit for
        # bit: signed zeros included, so an observation equal to its bound
        # has slack +0.0 on either side
        observed = np.array([0.5, 1.0, 0.25, 3.0, 1e-300])
        bound = np.array([0.75, 1.0, 0.125, 2.0, 0.0])
        entries = record_entries(np.arange(5), -1, observed, bound, side)
        e = bnd.make_report("eigenvalue-rankm", entries).entries
        expected = np.where(e["side"] == "upper", bound - observed, observed - bound)
        assert e["slack"].tobytes() == expected.tobytes()
        assert e["side"].tolist() == np.broadcast_to(side, 5).tolist()
        assert not np.signbit(e["slack"][1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bnd.make_report("bogus", [])
