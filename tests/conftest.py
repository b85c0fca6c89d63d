import ctypes
import math

import numpy as np
import pytest

from eigenpert import bounds, harness, symmat
from eigenpert.symmat import PerturbationSet, Spectrum


def clear_caches():
    """Empty every cache of `harness` and `bounds`: realizations, grid
    spectra, ratio tables, per-dimension layouts and entries templates."""
    for cache in (
        harness._grid_perts,
        harness._grid_spectrum,
        bounds._layout,
        bounds._entries_template,
        bounds.BoundParams.from_perturbations,
        bounds.ratio_table,
    ):
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_realization_caches():
    """Start every test with every cache empty, so call counts and
    monkeypatched draws do not depend on which tests ran before."""
    clear_caches()


def shifted_dlaed9(*args):
    """LAPACK's dlaed9, then its lowest secular root moved to half the lowest
    pole, below the root's interlacing interval.  Patched in as
    `symmat._dlaed9`, where `symmat.bind_dlaed9` returns it."""
    symmat._lapack_function(symmat.DLAED9_SYMBOL, None, *[ctypes.c_void_p] * 13)(*args)
    n = args[3]._obj.value  # every argument is an address: n is passed by reference
    roots = (ctypes.c_double * n).from_address(args[4])
    roots[0] = (ctypes.c_double * n).from_address(args[8])[0] / 2.0


def quadratic_eigenvalues(a: np.ndarray) -> tuple[float, float]:
    """Roots of the characteristic polynomial of a 2x2 symmetric matrix,
    via the quadratic formula (independent of any iterative solver)."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


def align_sign(vec: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip vec so it points the same way as reference."""
    return vec if float(np.dot(vec, reference)) >= 0.0 else -vec


def s_formula(lam1: float) -> float:
    """Closed-form second coordinate of the top unit eigenvector for
    B = diag(lam1, 1), v = (1, 1):  e_1 = (1, s)/sqrt(1+s^2)."""
    s = math.sqrt(lam1) * (1.0 - 1.0 / lam1 - math.sqrt(1.0 - 1.0 / lam1 + 1.0 / lam1**2))
    return abs(s) / math.sqrt(1.0 + s * s)


def mp_eigensolve(lambdas, vectors, dps: int):
    """Descending eigenvalues and the matrix of |[e_i]_j| (column i pairs
    with eigenvalue i) of D + sqrt(D) (sum_k v_k v_k^T) sqrt(D), assembled
    and solved in mpmath at `dps` digits from the exact float inputs."""
    import mpmath as mp

    d = len(lambdas)
    with mp.workdps(dps):
        lam = [mp.mpf(float(x)) for x in lambdas]
        a = mp.diag(lam)
        for v in vectors:
            z = [mp.sqrt(lam[i]) * mp.mpf(float(v[i])) for i in range(d)]
            for i in range(d):
                for j in range(d):
                    a[i, j] += z[i] * z[j]
        ev, q = mp.eigsy(a)
        order = sorted(range(d), key=lambda k: ev[k], reverse=True)
        values = np.array([float(ev[k]) for k in order])
        basis = np.array([[float(abs(q[j, k])) for k in order] for j in range(d)])
    return values, basis


def gen_rankone_instance(seed: int) -> harness.Instance:
    """Strict-spectrum rank-one instance for the secular/BNS stress suite.

    d in 2..10, condition number log-uniform in [10^0.5, 10^6], consecutive
    eigenvalue gaps bounded away from collision, and v entries in +-[1e-3, 2].
    """
    rng = harness.SplitMix64(harness.derive_seed(seed, 0xA5C3))
    d = 2 + int(rng.next_raw() % 9)
    log_l1 = 0.5 + 5.5 * rng.next_unit()
    gaps = np.array([0.1 + 0.9 * rng.next_unit() for _ in range(d - 1)])
    gaps *= log_l1 / float(gaps.sum())
    expo = np.concatenate([[0.0], np.cumsum(gaps)])[::-1]
    spectrum = Spectrum(10.0**expo)
    v = np.array(
        [
            (1.0 if rng.next_unit() < 0.5 else -1.0) * (1e-3 + (2.0 - 1e-3) * rng.next_unit())
            for _ in range(d)
        ]
    )
    return harness.Instance(
        spectrum=spectrum,
        perts=PerturbationSet((v,), dim=d),
        seed=seed,
        meta=f"rank1-suite(seed={seed})",
    )
