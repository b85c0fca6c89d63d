import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenpert import bounds as bnd
from eigenpert.symmat import PerturbationSet, Spectrum, build_perturbed, jacobi_eig


def params(d, m, v_bound, v_inf=None):
    return bnd.BoundParams(d=d, m=m, v_bound=v_bound, v_inf=v_bound if v_inf is None else v_inf)


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
        st.floats(min_value=1e-8, max_value=1e8),
        st.floats(min_value=1e-8, max_value=1e8),
    )
    @settings(max_examples=200)
    def test_symmetry_exact(self, a, b):
        assert bnd.alpha(a, b) == bnd.alpha(b, a)
        assert 0.0 < bnd.alpha(a, b) <= 1.0


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
        lo, hi = bnd.eigenvalue_bound_rankm(spec, params(2, 0, 1.0, v_inf=0.0), 0)
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
        assert bnd.eigenvalue_bound_rank1(spec, v, 0) == pytest.approx(300.0)
        oracle = jacobi_eig(build_perturbed(spec, PerturbationSet([v]))).values
        assert oracle[0] <= 300.0

    def test_rank1_last_index(self):
        # at i = d-1 the bound reduces to lambda_d (1 + vinf |v_d|)
        spec = Spectrum([9.0, 1.0])
        v = np.array([0.5, 0.7])
        assert bnd.eigenvalue_bound_rank1(spec, v, 1) == pytest.approx(1.0 + 0.7 * 0.7)

    def test_rank1_randomized_soundness(self):
        from eigenpert.harness import gen_rankone_instance

        for seed in range(200):
            inst = gen_rankone_instance(seed)
            v = inst.perts.vectors[0]
            nus = jacobi_eig(build_perturbed(inst.spectrum, inst.perts)).values
            for i in range(inst.d):
                b = bnd.eigenvalue_bound_rank1(inst.spectrum, v, i)
                assert nus[i] <= b + 1e-9 * inst.spectrum.lambdas[i]


def _j_index_reference(lam, v, i):
    """The loop form of j_index: the first j >= i of largest |v_j| among the
    feasible ones."""
    d = lam.size
    vinf = float(np.max(np.abs(v)))
    best, best_mag = -1, -1.0
    for j in range(i, d):
        mag = abs(float(v[j]))
        threshold = lam[i] * (1.0 - math.sqrt(lam[j] / lam[i]) * (d - i) * vinf * mag)
        if lam[j] >= threshold and mag > best_mag:
            best, best_mag = j, mag
    return best


class TestJIndex:
    def test_array_form_matches_loop_reference(self):
        from eigenpert.harness import gen_rankone_instance

        insts = [gen_rankone_instance(seed) for seed in range(200)]
        cases = [(inst.spectrum, inst.perts.vectors[0]) for inst in insts]
        # near-flat spectra with repeated |v_j|: the smallest maximizing j wins
        eps = 1e-7
        cases += [(Spectrum(1.0 - eps * np.arange(6)), np.array([0.2, -0.5, 0.5, 0.1, -0.5, 0.3])),
                  (Spectrum([4.0, 3.0, 2.0, 1.0]), np.array([0.3, 0.3, -0.3, 0.3]))]
        for spec, v in cases:
            idx = np.arange(spec.d)
            ref = [_j_index_reference(spec.lambdas, v, i) for i in idx]
            assert [bnd.j_index(spec, v, i) for i in idx] == ref
            assert bnd.j_index(spec, v, idx).tolist() == ref
            vinf = float(np.max(np.abs(v)))
            expected = np.array([
                float(spec.lambdas[i]) * (1.0 + (spec.d - i) * vinf * abs(float(v[j])))
                for i, j in zip(idx, ref)
            ])
            assert bnd.eigenvalue_bound_rank1(spec, v, idx).tobytes() == expected.tobytes()

    def test_rejects_out_of_range_index_in_array(self):
        with pytest.raises(IndexError, match="index 3 out of range"):
            bnd.eigenvalue_bound_rank1(Spectrum([3.0, 2.0, 1.0]), [0.1, 0.2, 0.3], np.arange(4))

    def test_hand_evaluated_2d(self):
        # j=2 infeasible: 1 < 100 (1 - 0.1 * 2 * 1 * 1) = 80
        assert bnd.j_index(Spectrum([100.0, 1.0]), [1.0, 1.0], 0) == 0

    def test_last_index_is_singleton(self):
        spec = Spectrum([50.0, 5.0, 1.0])
        assert bnd.j_index(spec, [0.3, 0.2, 0.1], 2) == 2

    def test_near_flat_spectrum_picks_largest_entry(self):
        eps = 1e-6
        spec = Spectrum([1.0, 1.0 - eps, 1.0 - 2 * eps])
        assert bnd.j_index(spec, [0.1, 0.2, 0.3], 0) == 2

    def test_rejects_zero_entries_and_ties(self):
        with pytest.raises(bnd.JIndexError, match="zero"):
            bnd.j_index(Spectrum([2.0, 1.0]), [1.0, 0.0], 0)
        with pytest.raises(bnd.JIndexError, match="repeated"):
            bnd.j_index(Spectrum([1.0, 1.0]), [1.0, 1.0], 0)


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

    def test_rankm_m0_reduces_to_alpha(self):
        spec = Spectrum([4.0, 1.0])
        p = params(2, 0, 1.0, v_inf=0.0)
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
        # alpha(1e300, 1e-300) underflows to 0; each constant below overflows
        # to inf (C_m; 5 d^2 V^4; w psi_inf(w)), and inf * 0 must not be nan
        spec = Spectrum([1e300, 1e-300])
        assert bnd.alpha(1e300, 1e-300) == 0.0
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

    def test_rankm_takes_a_precomputed_constant(self):
        spec = Spectrum([1e14, 1e9, 3e3, 40.0, 2.0, 1.0])
        i, j = np.divmod(np.arange(36), 6)
        for p in (params(6, 1, 0.9), params(6, 2, 0.5), params(6, 9, 2.0)):
            cm = bnd.cm_constant(p)
            assert bnd.eigvec_bound_rankm(spec, p, i, j, cm).tobytes() == (
                bnd.eigvec_bound_rankm(spec, p, i, j).tobytes()
            )
            assert bnd.eigvec_bound_rankm(spec, p, 2, 5, cm) == bnd.eigvec_bound_rankm(spec, p, 2, 5)


class TestBoundParams:
    def test_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            bnd.BoundParams(d=4, m=1, v_bound=0.1, v_inf=0.1)

    def test_from_perturbations(self):
        perts = PerturbationSet([np.array([0.1, -0.2])])
        p = bnd.BoundParams.from_perturbations(perts)
        assert p.v_inf == pytest.approx(0.2)
        assert p.v_bound == pytest.approx(1.0 / math.sqrt(2.0))


def upper_report(observed, bound):
    n = len(observed)
    return bnd.report_from_arrays(
        "eigvec-rankm", np.zeros(n, int), np.ones(n, int), np.array(observed), np.array(bound)
    )


class TestReports:
    def test_pass_rule(self):
        rep = upper_report([0.5], [0.6])
        assert rep.passed and rep.worst_slack == pytest.approx(0.1)
        # violation beyond -1e-9 * max(1, bound) fails
        assert not upper_report([0.5, 0.5 + 3e-9], [0.6, 0.5]).passed
        # tiny violation within tolerance passes
        assert upper_report([0.5 + 1e-10], [0.5]).passed
        # entries built elsewhere are judged by the same rule
        bad = bnd.BoundEntry(0, 1, observed=0.5 + 3e-9, bound=0.5, slack=-3e-9)
        assert not bnd.make_report("eigvec-rankm", [bad]).passed

    def test_lower_entries(self):
        rep = bnd.report_from_arrays(
            "eigenvalue-rankm", np.array([0]), None, np.array([5.0]), np.array([4.0]), "lower"
        )
        (e,) = rep.entries
        assert e.side == "lower" and e.slack == pytest.approx(1.0)

    def test_pass_rule_broadcasts(self):
        slack = np.array([0.0, -0.5e-9, -2e-9, -1.5e-6])
        bound = np.array([0.5, 0.5, 0.5, 1e3])
        assert bnd.passes(slack, bound).tolist() == [True, True, False, False]

    def test_report_from_arrays(self):
        rep = bnd.report_from_arrays(
            "eigenvalue-rankm",
            np.array([0, 0]),
            None,
            np.array([5.0, 5.0]),
            np.array([4.0, 6.0]),
            np.array(["lower", "upper"]),
        )
        assert rep.passed and rep.notes == ()
        e = rep.entries
        assert e.dtype == bnd.ENTRY_DTYPE and len(e) == 2
        assert e.i.tolist() == [0, 0]
        assert e.j.tolist() == [-1, -1]  # no j for the eigenvalue kinds
        assert e.observed.tolist() == [5.0, 5.0]
        assert e.bound.tolist() == [4.0, 6.0]
        assert e.slack.tolist() == [1.0, 1.0]
        assert e.side.tolist() == ["lower", "upper"]

    @pytest.mark.parametrize(
        "side",
        ["upper", "lower", np.array(["lower", "upper", "upper", "lower", "upper"])],
        ids=["upper", "lower", "array"],
    )
    def test_slack_matches_side_field_formula(self, side):
        # the slack, computed from the input arrays, equals the formula on the
        # record's side field bit for bit (signed zeros included)
        observed = np.array([0.5, 1.0, 0.25, 3.0, 1e-300])
        bound = np.array([0.75, 1.0, 0.125, 2.0, 0.0])
        e = bnd.report_from_arrays("eigenvalue-rankm", np.arange(5), None, observed, bound, side).entries
        expected = np.where(e["side"] == "upper", bound - observed, observed - bound)
        assert e["slack"].tobytes() == expected.tobytes()
        assert e["side"].tolist() == np.broadcast_to(side, 5).tolist()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bnd.make_report("bogus", [])
