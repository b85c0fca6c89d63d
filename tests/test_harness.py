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
from conftest import clear_caches, gen_rankone_instance, s_formula


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
        harness._grid_perts.cache_clear()
        b = harness.gen_instance(7, 3, 1e6, seed=123)
        assert a.perts is not b.perts
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
            assert e.bound == bnd.eigenvalue_bound_rank1(inst.spectrum, params, e.i)
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

    def test_grid_draws_each_realization_once(self, monkeypatch):
        # 125 (d, m, seed) realizations with 11 vectors per (d, seed) over
        # the ranks; the parent drew them at every lambda_1 (1,375 and 625)
        draws, cms = [], []
        draw, cm_constant = harness.gaussian_vector, bnd.cm_constant
        monkeypatch.setattr(harness, "gaussian_vector", lambda d, s: draws.append(s) or draw(d, s))
        monkeypatch.setattr(bnd, "cm_constant", lambda p: cms.append(p) or cm_constant(p))
        assert harness.certify_grid(harness.default_grid()).passed
        assert (len(draws), len(cms)) == (275, 125)

    def test_realization_cache_is_sound(self):
        # one shared, read-only realization per (d, m, seed)
        a = harness.gen_instance(5, 2, 1e2, 3)
        b = harness.gen_instance(5, 2, 1e8, 3)
        assert a.perts is b.perts
        params = bnd.BoundParams.from_perturbations
        assert params(a.perts) is params(b.perts)
        with pytest.raises(ValueError, match="read-only"):
            a.perts.vectors[0][0] = 1.0

        # reports from a cold cache match the warm ones bit for bit
        def snapshot():
            return [
                (r.kind, r.entries.tobytes(), r.passed, r.notes)
                for pt in harness.default_grid(dims=(2, 5), ms=(0, 1, 3), seeds=(0, 3))
                for r in harness.certify(harness.gen_instance(pt.d, pt.m, pt.lambda1, pt.seed))
            ]

        warm = snapshot()
        for cache in (harness._grid_perts, harness._grid_spectrum, bnd._layout,
                      bnd._entries_template, bnd.ratio_table):
            assert cache.cache_info().hits > 0
        clear_caches()
        assert snapshot() == warm

        # the per-dimension layout, the entries templates, the ratio table
        # and the m = 1 constants are read-only
        template = bnd._entries_template(5, ("eigenvalue-rankm", "eigvec-rankm"))
        shared = (*bnd._layout(5), *template[:2], *bnd.ratio_table(a.spectrum))
        for arr in (*shared, params(a.perts).w, params(a.perts).w_psi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]

        # a rejected recipe is not cached: it raises again
        for _ in range(2):
            with pytest.raises(ValueError, match="d must be >= 2"):
                harness.gen_instance(1, 1, 10.0, 0)
            with pytest.raises(ValueError, match="m must be >= 0"):
                harness.gen_instance(3, -1, 10.0, 0)

    def test_grid_spectrum_shared_across_realizations(self):
        # one Spectrum per (d, lambda_1), whatever the rank and seed; the
        # Instance and its meta are built per call
        a = harness.gen_instance(5, 1, 1e4, 0)
        b = harness.gen_instance(5, 3, 1e4, 2)
        assert a.spectrum is b.spectrum and a is not harness.gen_instance(5, 1, 1e4, 0)
        assert harness.gen_instance(5, 1, 1e6, 0).spectrum is not a.spectrum
        assert harness._grid_spectrum.cache_info().currsize == 2
        # a rejected lambda_1 never reaches the cache
        for bad in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                harness.gen_instance(5, 1, bad, 0)
        assert harness._grid_spectrum.cache_info().currsize == 2

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_fresh_spectrum_gives_identical_reports(self, m):
        # a cached grid Spectrum (with its cached ratio table) and a fresh
        # equal Spectrum give the same report bytes
        grid = harness.gen_instance(10, m, 1e6, 3)
        fresh = harness.Instance(
            spectrum=symmat.Spectrum(grid.spectrum.lambdas.copy()),
            perts=grid.perts,
            seed=grid.seed,
            meta=grid.meta,
        )
        assert fresh.spectrum is not grid.spectrum
        for scale in (1.0, 0.9):
            got = [(r.kind, r.entries.tobytes(), r.passed, r.notes)
                   for r in harness.certify(fresh, scale)]
            assert got == [(r.kind, r.entries.tobytes(), r.passed, r.notes)
                           for r in harness.certify(grid, scale)]

    def test_m0_lower_slack_is_positive_zero(self):
        # at m = 0 the oracle returns nu_i = lambda_i exactly here, so the
        # lower end of each interval is met with slack +0.0, never -0.0
        rep = harness.certify(harness.gen_instance(5, 0, 1.0, 0))[0]
        lower = rep.entries[rep.entries.side == "lower"]
        assert (lower.observed == lower.bound).all()
        assert (lower.slack == 0.0).all() and not np.signbit(lower.slack).any()

    @pytest.mark.parametrize(
        "lambdas, vectors, n_reports",
        [([8.0, 4.0, 2.0, 1.0], [], 2), ([4.0, 4.0, 1.0], [[1.0, 0.5, 0.25]], 4),
         ([8.0, 4.0, 2.0, 1.0], [[1.0, 0.5, 0.25, 0.125]], 5)],
        ids=["m0", "m1-flat", "m1-strict"],
    )
    def test_one_passes_call_per_reports_call(self, monkeypatch, lambdas, vectors, n_reports):
        from eigenpert.symmat import PerturbationSet, Spectrum

        calls = []
        passes = bnd.passes
        monkeypatch.setattr(bnd, "passes", lambda *a: calls.append(len(a[0])) or passes(*a))
        inst = harness.Instance(
            spectrum=Spectrum(lambdas),
            perts=PerturbationSet(vectors, dim=len(lambdas)),
            seed=0,
            meta="passes-count",
        )
        reports = harness.certify(inst)
        # the pass rule runs once, over the entries of every report
        assert len(reports) == n_reports
        assert calls == [sum(len(r.entries) for r in reports)]
        # the reports are consecutive slices of one entries block
        starts = [r.entries.ctypes.data for r in reports]
        ends = [r.entries.ctypes.data + r.entries.nbytes for r in reports]
        assert starts[1:] == ends[:-1]

    def test_verdicts_match_make_report_over_the_default_grid(self):
        # each report's verdict is make_report's verdict on its own entries
        for scale in (1.0, 0.9):
            failed = 0
            for pt in harness.default_grid():
                inst = harness.gen_instance(pt.d, pt.m, pt.lambda1, pt.seed)
                for rep in harness.certify(inst, scale):
                    assert rep.passed == bnd.make_report(rep.kind, rep.entries).passed
                    failed += not rep.passed
            assert (failed > 0) == (scale < 1.0)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_one_failing_entry_fails_only_its_report(self, monkeypatch, where):
        # one failing entry at either end of the middle report and a nan
        # slack at the end of the last report fail those two reports alone
        inst = harness.gen_instance(4, 1, 1e2, 0)
        kinds, sizes = zip(*[(r.kind, len(r.entries)) for r in harness.certify(inst)])
        mid = len(kinds) // 2
        edges = np.cumsum([0, *sizes])
        bad = edges[mid] if where == "first" else edges[mid + 1] - 1
        entry_slack = bnd.entry_slack

        def broken(observed, bound, lower):
            slack = entry_slack(observed, bound, lower)
            slack[bad] = -1.0
            slack[-1] = np.nan
            return slack

        monkeypatch.setattr(bnd, "entry_slack", broken)
        reports = harness.certify(inst)
        assert tuple(r.kind for r in reports) == kinds and kinds[mid] == "eigvec-rankm"
        assert [r.passed for r in reports] == [k not in (mid, len(kinds) - 1)
                                               for k in range(len(kinds))]
        for rep in reports:
            assert rep.passed == bnd.make_report(rep.kind, rep.entries).passed

    def test_every_cache_is_cleared_between_tests(self):
        # every functools cache of harness and bounds (module functions and
        # class attributes) must be emptied by conftest.clear_caches, or a
        # call-count test could pass or fail by test order
        def caches(module):
            found = []
            for name, obj in vars(module).items():
                members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
                for attr, member in members:
                    member = getattr(member, "__func__", member)  # classmethod
                    if hasattr(member, "cache_clear") and getattr(
                        member, "__module__", None) == module.__name__:
                        found.append((f"{module.__name__}.{attr}", member))
            return found

        found = caches(harness) + caches(bnd)
        assert len(found) >= 6
        for pt in harness.default_grid(dims=(3,), ms=(0, 1), lambda1s=(1e2,), seeds=(0,)):
            harness.certify(harness.gen_instance(pt.d, pt.m, pt.lambda1, pt.seed))
        harness.scan(3, 1, 3, [1e2, 1e4], seed=0)
        for name, cache in found:
            assert cache.cache_info().currsize > 0, f"{name} is not filled here: extend this test"
        clear_caches()
        for name, cache in found:
            assert cache.cache_info().currsize == 0, f"conftest.clear_caches misses {name}"

    def test_certify_grid_bytes_pinned(self):
        # sha256 of every default-grid report (entry bytes, verdict, notes),
        # at bound scale 1 and at the self-test's 0.9, and of the records of
        # 27 scans; a change to how the reports or records are computed must
        # leave every bit where it was
        def report_digest(scale):
            digest = hashlib.sha256()
            for pt in harness.default_grid():
                inst = harness.gen_instance(pt.d, pt.m, pt.lambda1, pt.seed)
                for rep in harness.certify(inst, scale):
                    digest.update(rep.kind.encode() + rep.entries.tobytes())
                    digest.update(repr((rep.passed, rep.notes)).encode())
            return digest.hexdigest()

        scans = hashlib.sha256()
        grid = np.logspace(0.0, 16.0, 9)
        for d in (2, 3, 5, 10, 30):
            for m in (0, 1, 2):
                for j in sorted({2, d}):
                    scans.update(repr(harness.scan(d, m, j, grid, seed=7)).encode())
        assert [report_digest(1.0), report_digest(0.9), scans.hexdigest()] == [
            "4ee91c21f514bd53ac53fc806182952f4751d51f026b12ac1a246b4c81ccce45",
            "2195f0b8ac5e76ef65491fd461ddd0c3b774d8bb0e13a25765e26989b4b3f80b",
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

    def test_d_is_checked_before_j(self):
        # at d = 1 no j is valid, and the error names d, as verify's does
        for j in (1, 2):
            with pytest.raises(symmat.InputError, match=r"d must be >= 2 \(the ratio grid"):
                harness.scan(1, 1, j, [1.0, 10.0], seed=0)

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
            inst = gen_rankone_instance(seed)
            assert 2 <= inst.d <= 10
            assert inst.m == 1
            assert inst.spectrum.is_strict
            assert inst.spectrum.lambdas[-1] == 1.0
            assert inst.spectrum.lambdas[0] <= 10.0**6.01
            v = inst.perts.vectors[0]
            assert np.all(np.abs(v) >= 1e-3)
            assert np.all(np.abs(v) <= 2.0)

    def test_regeneration(self):
        a = gen_rankone_instance(11)
        b = gen_rankone_instance(11)
        assert a.spectrum.lambdas.tobytes() == b.spectrum.lambdas.tobytes()
        assert a.perts.vectors[0].tobytes() == b.perts.vectors[0].tobytes()
