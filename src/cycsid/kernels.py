"""Hot kernels: the state recursion and the input-response regressor.

The state recursion is sequential in time, so only its one mat-vec per
step, x(k+1) = A x(k) + B u(k), stays in a Python loop, as two numpy calls
per step on row views made once.  B u, C x and D u do not depend on earlier
steps and run batched, as stacked ``np.matmul`` calls; numpy computes each
stacked item with the same gemv as a single ``B @ u[k]``, so the states and
outputs are bit-equal to the per-step recursion.  The input-response
regressor is built in fixed-length time chunks with BLAS calls only, into a
column-major array: LAPACK's least squares works on a Fortran-ordered copy
of its matrix, and copying a column-major regressor reads it in order
instead of transposing it with strided access.  Each chunk is written in
place through the array's C-contiguous transpose, with no transposing copy.
"""

import numpy as np

#: there is no compiled build; perfbench/worker.py reads this for its environment stamp
HAS_NUMBA = False

#: time samples per chunk of the regressor
_CHUNK = 64


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
    N = u.shape[0]
    x = np.empty((N, A.shape[0]))
    y = np.empty((N, C.shape[0]))
    x[:1] = x0
    # x[k+1] holds B u(k) first; adding A x(k) to it in place is bit-equal to
    # A x(k) + B u(k), since floating-point addition commutes
    np.matmul(B, u[:-1, :, None], out=x[1:, :, None])
    Ax = np.empty(A.shape[0])  # A x(k), written by the same gemv as A @ x[k]
    rows = list(x)
    for prev, nxt in zip(rows, rows[1:]):
        A.dot(prev, out=Ax)
        nxt += Ax
    np.matmul(C, x[:, :, None], out=y[:, :, None])
    y += np.matmul(D, u[:, :, None])[:, :, 0]
    return x, y


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
    Toeplitz GEMM).  Both terms go straight into the C-contiguous Phi.T:
    the first as a GEMM's output, the second added in one pass from the
    Toeplitz GEMM's own layout.  The D columns hold only u.  Phi is
    column-major (see the module docstring); the layout changes speed only.
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
    # T[s, j, r] = u_j(k0 + s - 1 - r) for r < s, else 0, gathered from the
    # chunk behind one zero row (uz[t + 1] = uc[t]); dead lags read uz[0]
    lead = np.maximum(np.arange(K)[:, None] - np.arange(K)[None, :], 0)  # s - r
    gather = lead[:, None, :] * m + np.arange(m)[None, :, None]  # into uz.ravel()
    uz = np.zeros((K + 1, m))

    Phi = np.empty((N * l, p), order="F")
    PhiT = Phi.T  # C-contiguous, so BLAS writes its rows in place
    state = np.zeros((n, nb))  # [A^k0, Z(k0)]
    state[:, :n] = np.eye(n)
    for k0 in range(0, N, K):
        Kc = min(K, N - k0)
        uc = u[k0:k0 + Kc]
        rows = slice(k0 * l, (k0 + Kc) * l)
        np.matmul(state.T, CA_rows[:Kc * l].T, out=PhiT[:nb, rows])
        uz[1:Kc + 1] = uc
        T = uz.ravel()[gather[:Kc, :, :Kc]]
        conv = T.reshape(Kc * m, Kc) @ CA_flat[:Kc]  # rows (s, j), cols (i, x)
        Bcols = PhiT[n:nb, rows].reshape(m, n, Kc, l)  # a view, axes (j, x, s, i)
        Bcols += conv.reshape(Kc, m, l, n).transpose(1, 3, 0, 2)
        if k0 + K < N:
            # advance to [A^(k0+K), Z(k0+K)]; block j of the Z increment is
            # sum_t u_j(k0 + t) A^(K-1-t)
            inc = uc[::-1].T @ Apow.reshape(K, n * n)
            state = AK @ state
            state[:, n:] += inc.reshape(m, n, n).transpose(1, 0, 2).reshape(n, n * m)

    # column nb + j*l + i of output row i holds u_j; the other D entries are 0
    PhiT[nb:] = 0.0
    for i in range(l):
        PhiT[nb + i::l, i::l] = u.T
    return Phi
