import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from eigenpert import bounds as bnd
from eigenpert import harness, symmat
from eigenpert.bounds import PASS_RTOL
from eigenpert.symmat import ConvergenceError, build_perturbed, jacobi_eig
from conftest import s_formula


def vector_digest(instance):
    h = hashlib.sha256()
    for v in instance.perts.vectors:
        h.update(v.tobytes())
    return h.hexdigest()


class TestGenInstance:
    def test_two_point_spacing(self):
        inst = harness.gen_instance(2, 0, 1e4, seed=0)
        assert np.array_equal(inst.spectrum.lambdas, [1e4, 1.0])

    def test_geometric_exponents(self):
        inst = harness.gen_instance(5, 0, 1e4, seed=0)
        np.testing.assert_allclose(
            inst.spectrum.lambdas, [1e4, 1e3, 1e2, 10.0, 1.0], rtol=1e-14
        )

    def test_vectors_independent_of_lambda1(self):
        a = harness.gen_instance(4, 2, 1e2, seed=9)
        b = harness.gen_instance(4, 2, 1e6, seed=9)
        assert vector_digest(a) == vector_digest(b)

    def test_bit_exact_regeneration(self):
        a = harness.gen_instance(7, 3, 1e6, seed=123)
        b = harness.gen_instance(7, 3, 1e6, seed=123)
        assert a.meta == b.meta
        for va, vb in zip(a.perts.vectors, b.perts.vectors):
            assert va.tobytes() == vb.tobytes()

    def test_seed_and_index_change_vectors(self):
        a = harness.gen_instance(4, 2, 1e2, seed=1)
        b = harness.gen_instance(4, 2, 1e2, seed=2)
        assert vector_digest(a) != vector_digest(b)
        assert a.perts.vectors[0].tobytes() != a.perts.vectors[1].tobytes()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            harness.gen_instance(1, 0, 10.0, seed=0)
        with pytest.raises(ValueError, match="lambda1"):
            harness.gen_instance(3, 0, 0.5, seed=0)

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="m must be >= 0"):
            harness.gen_instance(3, -1, 10.0, seed=0)

    def test_gaussian_vector_moments(self):
        # sanity on the polar transform: mean ~ 0, var ~ 1 over a big sample
        sample = np.concatenate(
            [harness.gaussian_vector(100, harness.derive_seed(5, k)) for k in range(100)]
        )
        assert abs(float(np.mean(sample))) < 0.05
        assert abs(float(np.var(sample)) - 1.0) < 0.05


class TestCertify:
    def test_m0_trivially_passes(self):
        reports = harness.certify(harness.gen_instance(4, 0, 1e4, seed=0))
        assert {r.kind for r in reports} == {"eigenvalue-rankm", "eigvec-rankm"}
        assert all(r.passed for r in reports)

    def test_golden_instance_all_pass(self):
        from eigenpert.symmat import PerturbationSet, Spectrum

        inst = harness.Instance(
            spectrum=Spectrum([1e4, 1.0]),
            perts=PerturbationSet([[1.0, 1.0]]),
            seed=0,
            meta="golden",
        )
        reports = harness.certify(inst)
        assert all(r.passed for r in reports)
        eig = jacobi_eig(build_perturbed(inst.spectrum, inst.perts))
        assert abs(abs(eig.basis[1, 0]) - s_formula(1e4)) <= 1e-10

    def test_m1_report_kinds(self):
        reports = harness.certify(harness.gen_instance(3, 1, 1e2, seed=1))
        kinds = {r.kind for r in reports}
        assert kinds == {
            "eigenvalue-rankm",
            "eigenvalue-rank1",
            "eigvec-rankm",
            "eigvec-rank1",
            "eigvec-rank1-refined",
        }

    def test_flat_spectrum_skips_rank1_eigenvalue_bound(self):
        reports = harness.certify(harness.gen_instance(3, 1, 1.0, seed=1))
        kinds = {r.kind for r in reports}
        assert "eigenvalue-rank1" not in kinds

    def test_bound_scale_induces_failures(self):
        reports = harness.certify(harness.gen_instance(3, 0, 1e2, seed=0), bound_scale=0.9)
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_bound_scale_rejected(self, scale):
        # an infinite scale makes the pass tolerance -inf; nan makes every slack nan
        with pytest.raises(ValueError, match="bound scale must be finite"):
            harness.certify(harness.gen_instance(2, 1, 1e2, seed=0), bound_scale=scale)

    def test_grid_summary(self):
        points = [harness.GridPoint(2, m, 1e2, s) for m in (0, 1) for s in (0, 1)]
        summary = harness.certify_grid(points)
        assert summary.n_instances == 4
        assert summary.passed
        assert summary.worst_slack["eigvec-rankm"] >= -PASS_RTOL

    def test_default_grid_shape(self):
        grid = harness.default_grid()
        assert len(grid) == 625

    def test_grid_axes(self):
        grid = harness.default_grid([3], [0, 2], [1e4], range(2))
        assert grid == [harness.GridPoint(3, m, 1e4, s) for m in (0, 2) for s in (0, 1)]

    def test_reports_follow_scalar_bounds(self):
        # the grid-wide evaluation agrees entry by entry with scalar calls
        inst = harness.gen_instance(4, 1, 1e6, seed=2)
        params = bnd.BoundParams.from_perturbations(inst.perts)
        scalar = {
            "eigvec-rankm": bnd.eigvec_bound_rankm,
            "eigvec-rank1": bnd.eigvec_bound_rank1,
            "eigvec-rank1-refined": bnd.eigvec_bound_rank1_refined,
        }
        reports = {r.kind: r for r in harness.certify(inst)}
        for kind, fn in scalar.items():
            entries = reports[kind].entries
            assert [(e.i, e.j) for e in entries] == [(i, j) for i in range(4) for j in range(4)]
            for e in entries:
                assert e.bound == fn(inst.spectrum, params, e.i, e.j)
        for e in reports["eigenvalue-rank1"].entries:
            assert e.bound == bnd.eigenvalue_bound_rank1(inst.spectrum, inst.perts.vectors[0], e.i)
        ev = reports["eigenvalue-rankm"].entries
        assert [e.side for e in ev[:2]] == ["lower", "upper"]
        for e in ev:
            lo, hi = bnd.eigenvalue_bound_rankm(inst.spectrum, params, e.i)
            assert e.bound == (lo if e.side == "lower" else hi)

    def test_rows_rebuild_certify_reports(self):
        # the row path (BoundEntry rows into make_report) rebuilds every
        # report bit for bit, and iterating the entries yields records
        # whose fields read as attributes
        reports = harness.certify(harness.gen_instance(10, 1, 1e6, seed=1))
        assert sorted(r.kind for r in reports) == sorted(bnd.REPORT_KINDS)
        for rep in reports:
            rows = [bnd.BoundEntry(*e) for e in rep.entries]
            rebuilt = bnd.make_report(rep.kind, rows)
            assert rebuilt.entries.tobytes() == rep.entries.tobytes()
            assert rebuilt.passed == rep.passed
            assert rebuilt.worst_slack == rep.worst_slack
            for row, e in zip(rows, rep.entries):
                assert (e.i, e.j, e.observed, e.bound, e.slack, e.side) == row

    def test_reports_retain_under_100_bytes_per_entry(self):
        inst = harness.gen_instance(20, 1, 1e8, 0)
        harness.certify(inst)  # first-call set-up (LAPACK binding) is not retained by reports
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reports = harness.certify(inst)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_entries = sum(len(r.entries) for r in reports)
        assert n_entries == 1260
        assert retained < 100 * n_entries

    def test_oracle_failure_names_instance(self, monkeypatch):
        # dgejsv reports failure through info != 0
        monkeypatch.setattr(symmat, "_dgejsv", lambda *args: 5)
        inst = harness.gen_instance(3, 1, 1e2, seed=4)
        with pytest.raises(ConvergenceError, match="seed=4 meta=grid.*info = 5"):
            harness.certify(inst)
        with pytest.raises(ConvergenceError, match="seed=4 meta=grid"):
            harness.scan(3, 1, 2, [1e2], seed=4)

    def test_tiny_weight_crosschecks_eigenvalues_only(self):
        # the secular eigenvectors of this instance would hit the pole check
        # (rankone_full raises DeflationError); its eigenvalues are fine, and
        # they are all the cross-check compares
        from eigenpert.symmat import PerturbationSet, Spectrum

        inst = harness.Instance(
            spectrum=Spectrum([4.0, 2.0, 1.0]),
            perts=PerturbationSet([[1.0, 1e-7, 1.0]]),
            seed=0,
            meta="tiny-weight",
        )
        assert all(r.passed for r in harness.certify(inst))

    def test_saturated_cm_is_flagged(self):
        reports = harness.certify(harness.gen_instance(20, 5, 1e4, seed=0))
        rep = next(r for r in reports if r.kind == "eigvec-rankm")
        assert rep.passed
        assert any("vacuous" in note for note in rep.notes)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_cm_constant_once_per_instance(self, monkeypatch, m):
        calls = []
        cm_constant = bnd.cm_constant
        monkeypatch.setattr(bnd, "cm_constant", lambda p: calls.append(p) or cm_constant(p))
        harness.certify(harness.gen_instance(5, m, 1e4, seed=1))
        assert len(calls) == 1

    def test_certify_grid_bytes_pinned(self):
        # sha256 of every default-grid report (entry bytes, verdict, notes)
        # and of the records of 27 scans; a change to how the reports or
        # records are computed must leave every bit where it was
        reports = hashlib.sha256()
        for pt in harness.default_grid():
            for rep in harness.certify(harness.gen_instance(pt.d, pt.m, pt.lambda1, pt.seed)):
                reports.update(rep.kind.encode() + rep.entries.tobytes())
                reports.update(repr((rep.passed, rep.notes)).encode())
        scans = hashlib.sha256()
        grid = np.logspace(0.0, 16.0, 9)
        for d in (2, 3, 5, 10, 30):
            for m in (0, 1, 2):
                for j in sorted({2, d}):
                    scans.update(repr(harness.scan(d, m, j, grid, seed=7)).encode())
        assert [reports.hexdigest(), scans.hexdigest()] == [
            "e239110dc1d70a8dde99687e13cf1e1f1ad3b8823d2191ea62bb89875ed4d3b5",
            "c376b99150d347dad7d74b375e5daf9db2365996a2d344c15901febfd712f716",
        ]


class TestScan:
    def test_monotone_decreasing_observed(self):
        recs = harness.scan(2, 1, 2, np.logspace(2, 8, 7), seed=0)
        obs = [r.observed for r in recs]
        assert all(a > b for a, b in zip(obs, obs[1:]))
        assert [r.lambda1 for r in recs] == sorted(r.lambda1 for r in recs)

    def test_forced_direction_matches_s_formula(self):
        # the scan pipeline on the golden recipe reproduces the closed form
        from eigenpert.symmat import PerturbationSet, Spectrum

        for lam1 in (1e2, 1e5):
            inst = harness.Instance(
                spectrum=Spectrum([lam1, 1.0]),
                perts=PerturbationSet([[1.0, 1.0]]),
                seed=0,
                meta="golden",
            )
            eig = jacobi_eig(build_perturbed(inst.spectrum, inst.perts))
            assert abs(eig.basis[1, 0]) == pytest.approx(s_formula(lam1), abs=1e-12)

    def test_m0_observed_exactly_zero(self):
        recs = harness.scan(3, 0, 2, [1e2, 1e4], seed=0)
        assert all(r.observed == 0.0 for r in recs)

    def test_shared_realization_across_grid(self):
        recs = harness.scan(5, 2, 5, np.logspace(2, 8, 7), seed=3)
        digests = set()
        for r in recs:
            inst = harness.gen_instance(r.d, r.m, r.lambda1, r.seed)
            digests.add(vector_digest(inst))
        assert len(digests) == 1

    def test_soundness_carried_into_records(self):
        recs = harness.scan(5, 1, 5, np.logspace(2, 8, 7), seed=1)
        for r in recs:
            assert r.observed <= min(r.bound_rankm, r.bound_rank1) + 1e-9

    def test_rank1_bound_only_for_m1(self):
        recs = harness.scan(3, 2, 3, [1e2, 1e4, 1e6], seed=0)
        assert all(math.isnan(r.bound_rank1) for r in recs)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            harness.scan(2, 1, 2, [1e4, 1e2], seed=0)
        with pytest.raises(ValueError, match=">= 1"):
            harness.scan(2, 1, 2, [0.5, 2.0], seed=0)
        with pytest.raises(ValueError, match="j must lie"):
            harness.scan(3, 1, 4, [1e2, 1e4], seed=0)
        with pytest.raises(ValueError, match="m must be >= 0"):
            harness.scan(3, -1, 2, [1e2, 1e4], seed=0)

    @pytest.mark.parametrize("d", [2, 10, 30])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_records_match_per_point_reference(self, d, m):
        # each record equals the one built from a fresh instance at its grid
        # point, every float bit for bit (repr round-trips a double exactly
        # and keeps nan comparable)
        grid = np.logspace(0, 12, 7)
        for j in sorted({2, d}):
            records = harness.scan(d, m, j, grid, seed=5)
            assert len(records) == len(grid)
            for rec, lam1 in zip(records, grid.tolist()):
                inst = harness.gen_instance(d, m, lam1, 5)
                eig = harness._oracle(inst)
                params = bnd.BoundParams.from_perturbations(inst.perts)
                expected = harness.ScanRecord(
                    d=d, m=m, j=j, lambda1=lam1,
                    ratio=lam1 / float(inst.spectrum.lambdas[j - 1]),
                    observed=abs(float(eig.basis[j - 1, 0])),
                    bound_rankm=bnd.eigvec_bound_rankm(inst.spectrum, params, 0, j - 1),
                    bound_rank1=(
                        bnd.eigvec_bound_rank1(inst.spectrum, params, 0, j - 1)
                        if m == 1 else math.nan
                    ),
                    seed=5,
                )
                assert repr(rec) == repr(expected)

    def test_realization_drawn_once_per_scan(self, monkeypatch):
        seeds = []
        draw = harness.gaussian_vector

        def counted(d, seed):
            seeds.append(seed)
            return draw(d, seed)

        monkeypatch.setattr(harness, "gaussian_vector", counted)
        harness.scan(5, 2, 5, np.logspace(2, 8, 7), seed=3)
        assert len(seeds) == 2


class TestFitSlope:
    def _records(self, ratios, observed):
        return [
            harness.ScanRecord(
                d=2, m=1, j=2, lambda1=r, ratio=r, observed=o,
                bound_rankm=1.0, bound_rank1=1.0, seed=0,
            )
            for r, o in zip(ratios, observed)
        ]

    def test_exact_power_law(self):
        ratios = np.logspace(2, 8, 7)
        fit = harness.fit_slope(self._records(ratios, ratios**-0.5))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
        assert fit.count == 7

    def test_affine_shift(self):
        ratios = np.logspace(2, 8, 7)
        c = 0.37
        fit = harness.fit_slope(self._records(ratios, c * ratios**-0.5))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log10(c), abs=1e-12)

    def test_gate_excludes_small_lambda1(self):
        ratios = np.array([10.0, 1e2, 1e4, 1e6])
        fit = harness.fit_slope(self._records(ratios, ratios**-0.5))
        assert fit.count == 3

    def test_insufficient_points(self):
        ratios = np.array([1e2, 1e8])
        with pytest.raises(harness.InsufficientDataError):
            harness.fit_slope(self._records(ratios, ratios**-0.5))

    def test_rejects_zero_observed(self):
        with pytest.raises(ValueError, match="positive"):
            harness.fit_slope(self._records(np.array([1e2, 1e4, 1e6]), [1e-3, 0.0, 1e-5]))

    def test_real_scan_slope(self):
        recs = harness.scan(10, 2, 10, np.logspace(2, 8, 7), seed=42)
        fit = harness.fit_slope(recs)
        assert -0.6 <= fit.slope <= -0.4


class TestRankOneSuite:
    def test_recipe_bounds(self):
        for seed in range(50):
            inst = harness.gen_rankone_instance(seed)
            assert 2 <= inst.d <= 10
            assert inst.m == 1
            assert inst.spectrum.is_strict
            assert inst.spectrum.lambdas[-1] == 1.0
            assert inst.spectrum.lambdas[0] <= 10.0**6.01
            v = inst.perts.vectors[0]
            assert np.all(np.abs(v) >= 1e-3)
            assert np.all(np.abs(v) <= 2.0)

    def test_regeneration(self):
        a = harness.gen_rankone_instance(11)
        b = harness.gen_rankone_instance(11)
        assert a.spectrum.lambdas.tobytes() == b.spectrum.lambdas.tobytes()
        assert a.perts.vectors[0].tobytes() == b.perts.vectors[0].tobytes()
