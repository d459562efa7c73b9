"""Input builders shared by the test modules. Each draw consumes its
generator exactly as the copy it replaced did, so the seeded inputs of every
test are the same to the last bit."""

import numpy as np


def rand_herm(rng, n):
    """A random n x n Hermitian matrix: the Hermitian part of a complex
    Gaussian matrix."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def rank_ops(rng, d, k, n):
    """n random d x d operators of rank <= k, each of unit Frobenius norm."""
    ops = []
    for _ in range(n):
        g1 = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        g2 = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        a = g1 @ g2
        ops.append(a / np.linalg.norm(a))
    return ops


def cho_kye_lee_choi(a, b, c):
    """Choi matrix sum_ij e_ij (x) Phi[a,b,c](e_ij) of the Cho-Kye-Lee map
    Phi[a,b,c] on M_3: Phi(X) = diag(a x11 + b x22 + c x33,
    c x11 + a x22 + b x33, b x11 + c x22 + a x33) - X. Phi[2,0,1] is the
    Choi map: positive, not decomposable."""
    weights = np.array([[a, c, b], [b, a, c], [c, b, a]])  # row i: diag of Phi(e_ii)
    out = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        out[3 * i:3 * i + 3, 3 * i:3 * i + 3] = np.diag(weights[i])
        for j in range(3):
            out[3 * i + i, 3 * j + j] -= 1.0
    return out
