"""Hot kernels: the state recursion and the input-response regressor.

The state recursion is sequential in time, so numpy cannot vectorize it
away; it has a numba ``@njit`` build and a pure-numpy twin (set
``CYCSID_DISABLE_NUMBA=1`` to force the numpy path).  The input-response
regressor is built in fixed-length time chunks with BLAS calls only, into a
column-major array: LAPACK's least squares works on a Fortran-ordered copy
of its matrix, and copying a column-major regressor reads it in order
instead of transposing it with strided access.
"""

import os

import numpy as np

_DISABLE = os.environ.get("CYCSID_DISABLE_NUMBA", "").strip() not in ("", "0", "false")

try:
    if _DISABLE:
        raise ImportError("numba disabled by CYCSID_DISABLE_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

#: time samples per chunk of the regressor
_CHUNK = 64


def _trajectory_numpy(A, B, C, D, u, x0):
    N = u.shape[0]
    n = A.shape[0]
    l = C.shape[0]
    x = np.empty((N, n))
    y = np.empty((N, l))
    xk = x0.copy()
    for k in range(N):
        x[k] = xk
        y[k] = C @ xk + D @ u[k]
        xk = A @ xk + B @ u[k]
    return x, y


if HAS_NUMBA:
    _trajectory_jit = njit(cache=True)(_trajectory_numpy)
else:
    _trajectory_jit = _trajectory_numpy


def trajectory(A, B, C, D, u, x0):
    """Run x(k+1) = A x(k) + B u(k), y(k) = C x(k) + D u(k).

    Returns (x, y) with x[k] the state at step k and y the unmasked output.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    D = np.ascontiguousarray(D, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    return _trajectory_jit(A, B, C, D, u, x0)


def _io_regressor_dense(A, C, u):
    """The full (N*l) x (n + n*m + l*m) regressor Phi, one sample at a time.

    Reference for io_regressor in tests.
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


def io_regressor(A, C, u):
    """Regressor Phi for the joint (x0, vec B, vec D) least squares, an
    (N*l) x (n + n*m + l*m) array.

    Row block k is [C A^k, C Z(k), u(k)^T (x) I_l] where Z obeys
    Z(k+1) = A Z(k) + u(k)^T (x) I_n, Z(0) = 0; vecs are column-major.
    Rows are made _CHUNK samples at a time from the precomputed C A^s,
    s < _CHUNK.  For a chunk starting at k0,

        [C A^(k0+s), C Z(k0+s)] = C A^s [A^k0, Z(k0)] + [0, conv_s],

    where conv_s is the input convolved with C A^s inside the chunk (one
    Toeplitz GEMM).  The D columns hold only u.  Phi is column-major (see
    the module docstring); the layout changes speed only, not a value.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    N, m = u.shape
    l, n = C.shape
    nb = n + n * m  # x0 and B columns
    p = nb + l * m
    K = max(1, min(_CHUNK, N))

    Apow = np.empty((K, n, n))
    Apow[0] = np.eye(n)
    for s in range(1, K):
        Apow[s] = A @ Apow[s - 1]
    CA = C @ Apow  # (K, l, n)
    CA_rows = CA.reshape(K * l, n)
    CA_flat = CA.reshape(K, l * n)
    AK = A @ Apow[-1]
    lag = np.arange(K)[:, None] - 1 - np.arange(K)[None, :]  # s - 1 - r
    live = lag >= 0
    lag = np.where(live, lag, 0)

    Phi = np.empty((N * l, p), order="F")
    state = np.zeros((n, nb))  # [A^k0, Z(k0)]
    state[:, :n] = np.eye(n)
    for k0 in range(0, N, K):
        Kc = min(K, N - k0)
        uc = u[k0:k0 + Kc]
        rows = Phi[k0 * l:(k0 + Kc) * l]
        rows[:, :nb] = CA_rows[:Kc * l] @ state
        # T[s, j, r] = u_j(k0 + s - 1 - r) for r < s
        T = (uc[lag[:Kc, :Kc]] * live[:Kc, :Kc, None]).transpose(0, 2, 1)
        conv = T.reshape(Kc * m, Kc) @ CA_flat[:Kc]  # rows (s, j), cols (i, x)
        rows[:, n:nb] += conv.reshape(Kc, m, l, n).transpose(0, 2, 1, 3).reshape(Kc * l, n * m)
        if k0 + K < N:
            # advance to [A^(k0+K), Z(k0+K)]; block j of the Z increment is
            # sum_t u_j(k0 + t) A^(K-1-t)
            inc = uc[::-1].T @ Apow.reshape(K, n * n)
            state = AK @ state
            state[:, n:] += inc.reshape(m, n, n).transpose(1, 0, 2).reshape(n, n * m)

    # column nb + j*l + i of output row i holds u_j
    Phi3 = Phi.reshape(N, l, p)
    Phi3[:, :, nb:] = 0.0
    for i in range(l):
        Phi3[:, i, nb + i::l] = u
    return Phi
