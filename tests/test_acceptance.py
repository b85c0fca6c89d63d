"""Acceptance gate: end-to-end checks with hard tolerances and runtime
budgets, one printed pass/fail line per criterion.

Run with `pytest -s` to see the lines on success; failures raise and print
the FAIL line either way.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from eigenpert import bounds as bnd
from eigenpert import cli, harness
from eigenpert.rankone import rankone_full
from eigenpert.symmat import (
    PerturbationSet,
    Spectrum,
    build_perturbed,
    jacobi_eig,
)
from conftest import gen_rankone_instance, s_formula

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCAN_SEED = 42
SCAN_COMBOS = [(2, 1), (5, 1), (10, 1), (5, 2), (10, 2)]


@contextmanager
def criterion(n: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {n} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {n} PASS: {desc} [{time.perf_counter() - t0:.2f}s]")


@pytest.fixture(scope="module")
def grid_results():
    """One single-threaded sweep of the default 625-instance grid, shared by
    the eigenvalue (2) and eigenvector (4) soundness criteria."""
    points = harness.default_grid()
    t0 = time.perf_counter()
    results = [
        (pt, harness.certify(harness.gen_instance(pt.d, pt.m, pt.lambda1, pt.seed)))
        for pt in points
    ]
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_golden_closed_form():
    with criterion(1, "golden closed form |[e1]_2| = |s|/sqrt(1+s^2)"):
        t0 = time.perf_counter()
        for lam1 in (1e2, 1e4, 1e6):
            spec = Spectrum([lam1, 1.0])
            perts = PerturbationSet([[1.0, 1.0]])
            expected = s_formula(lam1)
            oracle = jacobi_eig(build_perturbed(spec, perts))
            assert abs(abs(oracle.basis[1, 0]) - expected) <= 1e-10
            secular = rankone_full(spec, [1.0, 1.0])
            assert abs(abs(secular.basis[1, 0]) - expected) <= 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_eigenvalue_soundness(grid_results):
    results, elapsed = grid_results
    with criterion(2, f"eigenvalue interval soundness on the 625-instance grid (sweep {elapsed:.1f}s)"):
        assert len(results) == 625
        failures = 0
        for pt, reports in results:
            for rep in reports:
                if rep.kind == "eigenvalue-rankm" and not rep.passed:
                    failures += 1
        assert failures == 0
        assert elapsed < 30.0, f"grid sweep took {elapsed:.1f}s"


def test_criterion_3_rank1_eigenvalue_refinement():
    with criterion(3, "rank-one eigenvalue refinement on 200 strict instances"):
        for seed in range(200):
            inst = gen_rankone_instance(seed)
            p = bnd.BoundParams.from_perturbations(inst.perts)
            lam = inst.spectrum.lambdas
            nus = jacobi_eig(build_perturbed(inst.spectrum, inst.perts)).values
            for i in range(inst.d):
                b = bnd.eigenvalue_bound_rank1(inst.spectrum, p, i)
                assert nus[i] <= b + 1e-9 * lam[i], (
                    f"seed={seed} i={i}: nu={nus[i]!r} > bound={b!r}"
                )


def test_criterion_4_eigenvector_soundness(grid_results):
    results, _ = grid_results
    with criterion(4, "eigenvector coordinate bounds on the full grid"):
        vec_kinds = {"eigvec-rankm", "eigvec-rank1", "eigvec-rank1-refined"}
        failures = [
            (pt, rep.kind)
            for pt, reports in results
            for rep in reports
            if rep.kind in vec_kinds and not rep.passed
        ]
        assert failures == []


def test_criterion_5_secular_vs_oracle():
    with criterion(5, "secular/BNS agreement with the Jacobi oracle (500 instances)"):
        t0 = time.perf_counter()
        for seed in range(1000, 1500):
            inst = gen_rankone_instance(seed)
            full = rankone_full(inst.spectrum, inst.perts.vectors[0])
            oracle = jacobi_eig(build_perturbed(inst.spectrum, inst.perts))
            rel = np.abs(full.values - oracle.values) / np.abs(oracle.values)
            assert np.max(rel) <= 1e-10, f"seed={seed}: eigenvalue rel err {np.max(rel):.3e}"
            for k in range(inst.d):
                a = full.basis[:, k]
                b = oracle.basis[:, k]
                if float(np.dot(a, b)) < 0.0:
                    b = -b
                err = float(np.linalg.norm(a - b))
                assert err <= 1e-8, f"seed={seed} k={k}: vector err {err:.3e}"
        assert time.perf_counter() - t0 < 20.0


def test_criterion_6_figure_reproduction():
    with criterion(6, "tightness-scan slopes in [-0.6, -0.4], golden CSVs reproduced"):
        t0 = time.perf_counter()
        grid = list(np.logspace(2, 8, 7))
        for d, m in SCAN_COMBOS:
            for j in sorted({2, d}):
                records = harness.scan(d, m, j, grid, seed=SCAN_SEED)
                fit = harness.fit_slope(records)
                assert -0.6 <= fit.slope <= -0.4, (
                    f"d={d} m={m} j={j}: slope {fit.slope:.4f}"
                )
                assert fit.residual_rms < 0.15, (
                    f"d={d} m={m} j={j}: rms {fit.residual_rms:.4f}"
                )
                golden = GOLDEN_DIR / f"scan_d{d}_m{m}_j{j}_seed{SCAN_SEED}.csv"
                assert cli.render_scan_csv(records, fit=fit) == golden.read_text()
        assert time.perf_counter() - t0 < 10.0


def _suite_scale_invariance(trials: int) -> None:
    rng = np.random.default_rng(2024)
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(0, 3))
        lam1 = 10.0 ** rng.uniform(0.0, 6.0)
        expo = np.linspace(1.0, 0.0, d)
        spec = Spectrum(lam1**expo)
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        scaled = Spectrum(c * spec.lambdas)
        perts = PerturbationSet([rng.standard_normal(d) for _ in range(m)], dim=d)
        p = bnd.BoundParams.from_perturbations(perts)
        i = int(rng.integers(0, d))
        j = int(rng.integers(0, d))
        # eigenvector bounds are scale-free
        b1 = bnd.eigvec_bound_rankm(spec, p, i, j)
        b2 = bnd.eigvec_bound_rankm(scaled, p, i, j)
        assert abs(b1 - b2) <= 1e-10
        # eigenvalue intervals scale linearly
        lo1, hi1 = bnd.eigenvalue_bound_rankm(spec, p, i)
        lo2, hi2 = bnd.eigenvalue_bound_rankm(scaled, p, i)
        assert abs(lo2 - c * lo1) <= 1e-10 * max(1.0, abs(c * lo1))
        assert abs(hi2 - c * hi1) <= 1e-10 * max(1.0, abs(c * hi1))
        # oracle components unchanged, eigenvalues scaled
        e1 = jacobi_eig(build_perturbed(spec, perts))
        e2 = jacobi_eig(build_perturbed(scaled, perts))
        assert np.max(np.abs(np.abs(e1.basis) - np.abs(e2.basis))) <= 1e-10
        assert np.max(np.abs(e2.values - c * e1.values) / (c * e1.values)) <= 1e-10


def _suite_alpha_symmetry(trials: int) -> None:
    rng = np.random.default_rng(77)
    for _ in range(trials):
        a = 10.0 ** rng.uniform(-8.0, 8.0)
        b = 10.0 ** rng.uniform(-8.0, 8.0)
        assert bnd.alpha(a, b) == bnd.alpha(b, a)


def _suite_refinement_dominance(trials: int) -> None:
    rng = np.random.default_rng(99)
    done = 0
    while done < trials:
        d = int(rng.integers(2, 8))
        lam1 = 10.0 ** rng.uniform(1.0, 8.0)
        expo = np.sort(rng.uniform(0.0, 1.0, d))[::-1]
        spec = Spectrum(lam1**expo)
        perts = PerturbationSet([rng.uniform(-2.0, 2.0, d)], dim=d)
        p = bnd.BoundParams.from_perturbations(perts)
        i = int(rng.integers(0, d))
        j = int(rng.integers(0, d))
        mx = float(max(spec.lambdas[i], spec.lambdas[j]))
        mn = float(min(spec.lambdas[i], spec.lambdas[j]))
        if mx <= (1.0 + p.d * p.v_bound**2) * mn:
            continue
        refined = bnd.eigvec_bound_rank1_refined(spec, p, i, j)
        coarse = bnd.eigvec_bound_rank1(spec, p, i, j)
        assert refined <= coarse + 1e-15
        done += 1


def _suite_interlacing(trials: int) -> None:
    from eigenpert.rankone import secular_eigenvalues

    for seed in range(2000, 2000 + trials):
        inst = gen_rankone_instance(seed)
        v = inst.perts.vectors[0]
        lam = inst.spectrum.lambdas
        sol = secular_eigenvalues(inst.spectrum, v)
        vinf2 = float(np.max(v * v))
        slack = 1e-9 * lam
        assert np.all(sol.values >= lam - slack)
        assert np.all(sol.values <= lam * (1.0 + inst.d * vinf2) + slack)


def _suite_orthonormality(trials: int) -> None:
    for seed in range(3000, 3000 + trials):
        inst = gen_rankone_instance(seed)
        eig = rankone_full(inst.spectrum, inst.perts.vectors[0])
        gram = eig.basis.T @ eig.basis - np.eye(inst.d)
        assert np.max(np.abs(gram)) <= 1e-9


def _suite_scan_determinism(trials: int) -> None:
    rng = np.random.default_rng(4096)
    grid = [1e2, 1e4, 1e6]
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        seed = int(rng.integers(0, 2**63))
        a = harness.scan(d, m, 2, grid, seed=seed)
        b = harness.scan(d, m, 2, grid, seed=seed)
        assert a == b
        inst1 = harness.gen_instance(d, m, 1e4, seed)
        inst2 = harness.gen_instance(d, m, 1e4, seed)
        for va, vb in zip(inst1.perts.vectors, inst2.perts.vectors):
            assert va.tobytes() == vb.tobytes()


def test_criterion_7_property_suites():
    with criterion(7, "property suites, 1000 randomized trials each"):
        t0 = time.perf_counter()
        _suite_scale_invariance(1000)
        _suite_alpha_symmetry(1000)
        _suite_refinement_dominance(1000)
        _suite_interlacing(1000)
        _suite_orthonormality(1000)
        _suite_scan_determinism(1000)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_8_falsification_self_test(capsys):
    with criterion(8, "scaled-down bounds are caught by the verifier"):
        rc = cli.main(["verify", "--perturb-bound", "0.9"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        n_failures = int(
            next(line for line in out.splitlines() if line.startswith("failures:"))
            .split(":")[1]
        )
        assert n_failures > 0
        assert out == (GOLDEN_DIR / "verify_perturb_bound_0.9.txt").read_text()
