import math

import numpy as np


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
