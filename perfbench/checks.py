"""Output checks that do not trust eigenpert's own answers.

Every check returns a list of problems; an empty list means the output is
correct.  The references are computed here, apart from the program:
`numpy.linalg.eigvalsh`/`eigh` of a matrix this module assembles itself,
closed-form quadratic roots, and the secular function evaluated in `mpmath`.
Tolerances are fixed from the arithmetic, not fitted to the program:

- Jacobi against `eigvalsh` on the default grid: 1e-10 relative
  (the largest discrepancy on the 625 grid points is 4.6e-13).
- `|[e_1]_j|` against `eigh`: 1e-10 relative (largest seen 7e-14).
- secular roots: a sign change of the secular function within
  ROOT_ULPS units in the last place either side of each root.  The solver
  stops Newton once a step is below 32 eps of the offset from its anchor
  pole, and the offset is at most the root, so 32 ulps is what it promises
  (the largest miss seen on 720 graded instances is 16 ulps).
- eigenvector residuals: componentwise, RESIDUAL_RTOL times |A||x| + |nu||x|.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
EIGVAL_RTOL = 1e-10
COMPONENT_RTOL = 1e-10
ROOT_ULPS = 32
RESIDUAL_RTOL = 1e-12
PASS_RTOL = 1e-9  # the certifier's own pass rule for observed <= bound
# The paper's decay rate is -1/2, but only asymptotically: over the finite
# grids used here the fitted slope ranged from -1.13 to -0.04 (d = 10, 5000
# seeds) and from -0.97 to -0.07 (d = 30, 3000 seeds).  The band is
# -1/2 +- 3/4: it rejects coordinates that grow or fall off much faster,
# while the exact comparison with eigh is what pins the values down.
SLOPE_BAND = (-1.25, 0.25)
SLOPE_GATE = 100.0


def assemble(lambdas, vectors) -> np.ndarray:
    """D + sum_k z_k z_k^T with z_k = sqrt(D) v_k."""
    lam = np.asarray(lambdas, dtype=float)
    a = np.diag(lam)
    for v in vectors:
        z = np.sqrt(lam) * np.asarray(v, dtype=float)
        a = a + np.outer(z, z)
    return a


def eigenvalues_match(observed, lambdas, vectors, where: str) -> list:
    ref = np.sort(np.linalg.eigvalsh(assemble(lambdas, vectors)))[::-1]
    obs = np.asarray(observed, dtype=float)
    if obs.shape != ref.shape:
        return [f"{where}: {obs.size} eigenvalues, expected {ref.size}"]
    err = np.abs(obs - ref) / np.abs(ref)
    if np.all(err <= EIGVAL_RTOL):
        return []
    i = int(np.argmax(err))
    return [f"{where}: eigenvalue {i} = {obs[i]!r}, eigvalsh gives {ref[i]!r}"]


def log_slope(ratios, observed) -> float:
    x = np.log10(np.asarray(ratios, dtype=float))
    y = np.log10(np.asarray(observed, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def slope_in_band(slope: float, where: str) -> list:
    lo, hi = SLOPE_BAND
    if lo <= slope <= hi:
        return []
    return [f"{where}: slope {slope!r} outside [{lo}, {hi}]"]


def within_bound(observed: float, bound: float) -> bool:
    return observed <= bound + PASS_RTOL * max(1.0, bound)


# -- grid-default -----------------------------------------------------------


def check_certified(instance, reports) -> list:
    """Every report passes; the oracle eigenvalues match eigvalsh of A."""
    where = f"grid {instance.meta} seed={instance.seed}"
    problems = [f"{where}: report {r.kind} failed" for r in reports if not r.passed]
    kinds = {r.kind: r for r in reports}
    ev = kinds.get("eigenvalue-rankm")
    if ev is None:
        return problems + [f"{where}: no eigenvalue-rankm report"]
    upper = sorted((e for e in ev.entries if e.side == "upper"), key=lambda e: e.i)
    problems += eigenvalues_match(
        [e.observed for e in upper],
        instance.spectrum.lambdas,
        instance.perts.vectors,
        where,
    )
    return problems


# -- scan-graded ------------------------------------------------------------


def check_scan(records, instances, fit_slope: float) -> list:
    """|[e_1]_j| against eigh of A, observed <= bounds, slope near -1/2."""
    problems = []
    ratios, refs = [], []
    for rec, inst in zip(records, instances, strict=True):
        where = f"scan d={rec.d} m={rec.m} lambda1={rec.lambda1:g} seed={rec.seed}"
        _, basis = np.linalg.eigh(assemble(inst.spectrum.lambdas, inst.perts.vectors))
        ref = abs(float(basis[rec.j - 1, -1]))  # eigh is ascending: top is last
        if abs(rec.observed - ref) > COMPONENT_RTOL * ref:
            problems.append(f"{where}: |[e_1]_j| = {rec.observed!r}, eigh gives {ref!r}")
        for name in ("bound_rankm", "bound_rank1"):
            bound = getattr(rec, name)
            if math.isfinite(bound) and not within_bound(ref, bound):
                problems.append(f"{where}: observed {ref!r} exceeds {name} {bound!r}")
        if rec.lambda1 >= SLOPE_GATE:
            ratios.append(rec.lambda1 / float(inst.spectrum.lambdas[rec.j - 1]))
            refs.append(ref)
    where = f"scan d={records[0].d} m={records[0].m} seed={records[0].seed}"
    if len(refs) < 3:
        return problems + [f"{where}: fewer than 3 points past the slope gate"]
    own = log_slope(ratios, refs)
    problems += slope_in_band(own, where)
    if abs(fit_slope - own) > 1e-6:
        problems.append(f"{where}: program slope {fit_slope!r}, refit gives {own!r}")
    return problems


# -- rank1-secular ----------------------------------------------------------


def _secular_sign_change(lam_mp, w_mp, lo: float, hi: float, mp) -> bool:
    """True when 1 + sum w_j / (lambda_j - x) has a root in [lo, hi].

    The function increases between consecutive poles, so a root lies in a
    pole-free piece [a, b] iff f(a) <= 0 <= f(b), with f = -inf just right
    of a pole and +inf just left of one.
    """
    poles = sorted(float(p) for p in lam_mp if lo < float(p) < hi)
    cuts = [lo, *poles, hi]
    pole_set = set(poles)

    def f(x):
        xm = mp.mpf(x)
        return 1 + mp.fsum(w / (lj - xm) for lj, w in zip(lam_mp, w_mp))

    for a, b in zip(cuts, cuts[1:]):
        fa = -mp.inf if a in pole_set else f(a)
        fb = mp.inf if b in pole_set else f(b)
        if fa <= 0 <= fb:
            return True
    return False


def _check_roots(lam, v, nu, mp) -> list:
    problems = []
    d = lam.size
    lam_mp = [mp.mpf(float(t)) for t in lam]
    w_mp = [lj * mp.mpf(float(t)) ** 2 for lj, t in zip(lam_mp, v)]
    znorm2 = mp.fsum(w_mp)

    top = float(lam_mp[0] + znorm2)
    for i in range(d):
        upper = top if i == 0 else lam[i - 1]
        if not lam[i] <= nu[i] <= upper * (1.0 + 2 * EPS):
            problems.append(f"secular: nu[{i}] = {nu[i]!r} breaks interlacing")
    for i in range(d):
        step = ROOT_ULPS * math.ulp(nu[i])
        if not _secular_sign_change(lam_mp, w_mp, nu[i] - step, nu[i] + step, mp):
            problems.append(
                f"secular: no root within {ROOT_ULPS} ulps of nu[{i}] = {nu[i]!r}"
            )
            break

    trace_ref = mp.fsum(lam_mp) + znorm2
    trace_obs = mp.fsum(mp.mpf(float(t)) for t in nu)
    if abs(trace_obs - trace_ref) > 2 * ROOT_ULPS * EPS * trace_ref:
        problems.append(
            f"secular: sum nu = {float(trace_obs)!r}, trace gives {float(trace_ref)!r}"
        )
    return problems


def check_secular(lambdas, v, values, basis) -> list:
    """Secular roots, interlacing, trace identity and eigenvector residuals
    of D + z z^T with z = sqrt(D) v, judged in mpmath and by residuals."""
    import mpmath as mp

    lam = np.asarray(lambdas, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.asarray(values, dtype=float)
    x = np.asarray(basis, dtype=float)
    d = lam.size
    if nu.shape != (d,) or x.shape != (d, d):
        return [f"secular: shapes {nu.shape}, {x.shape} for d={d}"]
    with mp.workprec(256):
        problems = _check_roots(lam, v, nu, mp)
    a = assemble(lam, [v])
    resid = np.abs(a @ x - x * nu)
    scale = np.abs(a) @ np.abs(x) + np.abs(x) * np.abs(nu)
    worst = resid / np.where(scale > 0.0, scale, 1.0)
    if not np.all(worst <= RESIDUAL_RTOL):
        k, i = np.unravel_index(int(np.argmax(worst)), worst.shape)
        problems.append(
            f"secular: eigenvector {i} residual {worst[k, i]:.3e} at coordinate {k}"
        )
    return problems


# -- cli-oneshot ------------------------------------------------------------


def parse_instance_file(text: str):
    """The instance format's lambdas and vectors, read with this module's
    own few lines instead of the program's parser."""
    import ast

    lambdas, vectors = None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "lambdas":
            lambdas = [float(t) for t in ast.literal_eval(value)]
        elif key == "vectors":
            vectors += [[float(t) for t in vec] for vec in ast.literal_eval(value)]
        elif key == "vector":
            vectors.append([float(t) for t in ast.literal_eval(value)])
    return lambdas, vectors


def quadratic_roots(a: np.ndarray) -> list:
    """Both eigenvalues of a symmetric 2x2 matrix, descending, without
    cancellation in the small root."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    big = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
    return [big, det / big]


def printed_eigenvalues(stdout: str) -> list:
    return [
        float(line.split("=", 1)[1])
        for line in stdout.splitlines()
        if line.startswith("eigenvalue ")
    ]


def check_cli_eig(stdout: str, instance_text: str, where: str) -> list:
    lambdas, vectors = parse_instance_file(instance_text)
    got = printed_eigenvalues(stdout)
    if len(lambdas) == 2:
        ref = quadratic_roots(assemble(lambdas, vectors))
        if len(got) != 2:
            return [f"{where}: printed {len(got)} eigenvalues, expected 2"]
        bad = [i for i in range(2) if abs(got[i] - ref[i]) > 1e-13 * abs(ref[i])]
        return [f"{where}: eigenvalue {i + 1} = {got[i]!r}, roots give {ref[i]!r}" for i in bad]
    return eigenvalues_match(got, lambdas, vectors, where)


def last_line(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def check_cli_scan(stdout: str, where: str) -> list:
    """The scan CSV parses, observed <= bounds, and its slope is near -1/2."""
    lines = stdout.strip().splitlines()
    header = "d,m,j,lambda1,ratio,observed,bound_rankm,bound_rank1,seed"
    if not lines or lines[0] != header:
        return [f"{where}: CSV header missing"]
    problems = []
    ratios, observed = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != 9:
            return [f"{where}: CSV row {line!r} has {len(cells)} cells"]
        lam1, ratio, obs, b_m, b_1 = (float(c) for c in cells[3:8])
        for bound in (b_m, b_1):
            if math.isfinite(bound) and not within_bound(obs, bound):
                problems.append(f"{where}: observed {obs!r} exceeds bound {bound!r}")
        if lam1 >= SLOPE_GATE:
            ratios.append(ratio)
            observed.append(obs)
    if len(observed) < 3:
        return problems + [f"{where}: fewer than 3 points past the slope gate"]
    return problems + slope_in_band(log_slope(ratios, observed), where)
