"""The paper's dense formulas, kept as test oracles.

The package acts on the cyclic reformulation with block-index permutations
and per-phase operations; these are the formulas it replaces, written as the
paper states them: the block shift matrix, the block-diagonal lift of a
selector, the diagonal masks V_k, the per-step state recursion and the
sample-by-sample B/D/x0 regressor.  Tests compare the package against them.
"""

import numpy as np

from cycsid.cyclic import place_blocks


def shift_matrix(q, M):
    """Mq x Mq block permutation: I_q on the first block superdiagonal and
    in the bottom-left corner; satisfies shift_matrix(q, M)**M == I."""
    if q < 1 or M < 1:
        raise ValueError("q and M must be positive")
    S = np.zeros((M * q, M * q))
    for i in range(M):
        j = (i + 1) % M
        S[i * q:(i + 1) * q, j * q:(j + 1) * q] = np.eye(q)
    return S


def lift_selector(block, M):
    """M-fold block-diagonal replication of one selector block."""
    return place_blocks([block] * M, 0)


def masks(spec):
    """The paper's diagonal l x l masks V_0..V_{M-1} of a MultirateSpec, one
    per phase."""
    return tuple(np.diag(row) for row in spec.sampled)


def trajectory(A, B, C, D, u, x0):
    """Run x(k+1) = A x(k) + B u(k), y(k) = C x(k) + D u(k), one step at a time.

    Returns (x, y) with x[k] the state at step k and y the unmasked output.
    The oracle of ``kernels.scan_trajectory``.
    """
    A, B, C, D, u, x0 = (np.asarray(X, dtype=np.float64) for X in (A, B, C, D, u, x0))
    N = u.shape[0]
    x = np.empty((N, A.shape[0]))
    y = np.empty((N, C.shape[0]))
    xk = x0
    for k in range(N):
        x[k] = xk
        y[k] = C @ xk + D @ u[k]
        xk = A @ xk + B @ u[k]
    return x, y


def io_regressor_dense(A, C, u):
    """The full (N*l) x (n + n*m + l*m) regressor Phi, one sample at a time:
    row block k is [C A^k, C Z(k), u(k)^T (x) I] with Z(k+1) = A Z(k) +
    u(k)^T (x) I, Z(0) = 0 and column-major vecs.

    The oracle of ``kernels.io_regressor``.
    """
    N, m = u.shape
    l, n = C.shape
    Phi = np.zeros((N * l, n + n * m + l * m))
    Ak = np.eye(n)
    Z = np.zeros((n, n * m))
    for k in range(N):
        r = k * l
        Phi[r:r + l, :n] = C @ Ak
        Phi[r:r + l, n:n + n * m] = C @ Z
        for j in range(m):
            for i in range(l):
                Phi[r + i, n + n * m + j * l + i] = u[k, j]
        Z = A @ Z
        for j in range(m):
            for i in range(n):
                Z[i, j * n + i] += u[k, j]
        Ak = A @ Ak
    return Phi
