"""Hot kernels: the state simulation and the input-response regressor.

Both are built in fixed-length time chunks with BLAS calls only, from one
table of the powers A^s, s < _CHUNK, and one gather that lays a chunk's
lagged inputs out as a Toeplitz block.  ``chunked_trajectory`` computes
each chunk's states from the state entering it, as the free response (one
product with the power table) plus the forced response (one GEMM of the
Toeplitz block against the stacked A^q B), so its Python loop runs once per
chunk, not once per sample.  It agrees with the per-step recursion
``trajectory``, its test oracle, to round-off: the chunks sum the forced
response in another order.  The input-response regressor is written into a
column-major array: LAPACK's least squares works on a Fortran-ordered copy
of its matrix, and copying a column-major regressor reads it in order
instead of transposing it with strided access.  Each chunk is written in
place through the array's C-contiguous transpose, with no transposing copy.
"""

import numpy as np

#: there is no compiled build; perfbench/worker.py reads this for its environment stamp
HAS_NUMBA = False

#: time samples per chunk of the simulation and the regressor
_CHUNK = 64


def _chunk_tables(A, K, m):
    """The powers A^s, s < K, as a (K, n, n) array, and the gather and the
    (K + 1, m) buffer uz that lay a chunk's lagged inputs out as a Toeplitz
    block.

    With uz[t + 1] = u(k0 + t) and uz[0] = 0, uz.ravel()[gather][s, j, r] is
    u_j(k0 + s - 1 - r) for r < s and 0 otherwise: dead lags read uz[0].
    """
    n = A.shape[0]
    Apow = np.empty((K, n, n))
    Apow[0] = np.eye(n)
    for s in range(1, K):
        np.matmul(A, Apow[s - 1], out=Apow[s])
    lead = np.maximum(np.arange(K)[:, None] - np.arange(K)[None, :], 0)  # s - r
    gather = lead[:, None, :] * m + np.arange(m)[None, :, None]  # into uz.ravel()
    return Apow, gather, np.zeros((K + 1, m))


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


def chunked_trajectory(A, B, C, D, u, x0):
    """``trajectory``'s (x, y), _CHUNK samples at a time.

    For a chunk starting at k0, from the state x(k0),

        x(k0 + s) = A^s x(k0) + sum_{q<s} A^q B u(k0 + s - 1 - q),

    the free response as one product with the power table and the forced
    response as one GEMM of the lagged-input Toeplitz block against the
    stacked A^q B; y = C x + D u follows per chunk.  Beyond x and y, only
    chunk-sized arrays are allocated.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    D = np.ascontiguousarray(D, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    N, m = u.shape
    n = A.shape[0]
    K = max(1, min(_CHUNK, N))
    Apow, gather, uz = _chunk_tables(A, K, m)
    A_rows = Apow.reshape(K * n, n)
    # row j*K + q holds (A^q B)[:, j], matching the gather's (j, r) columns
    AB = np.ascontiguousarray((Apow @ B).transpose(2, 0, 1)).reshape(m * K, n)

    x = np.empty((N, n))
    y = np.empty((N, C.shape[0]))
    x[0] = x0
    # consecutive chunks share a row: each starts from the state its
    # predecessor ended on, and rewrites that row as A^0 x + 0 = x
    for k0 in range(0, max(N - 1, 1), max(K - 1, 1)):
        Kc = min(K, N - k0)
        uc, xc, yc = u[k0:k0 + Kc], x[k0:k0 + Kc], y[k0:k0 + Kc]
        free = A_rows[:Kc * n] @ xc[0]
        uz[1:Kc + 1] = uc
        np.matmul(uz.ravel()[gather[:Kc]].reshape(Kc, m * K), AB, out=xc)
        xc += free.reshape(Kc, n)
        np.matmul(xc, C.T, out=yc)
        yc += uc @ D.T
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

    Apow, gather, uz = _chunk_tables(A, K, m)
    CA = C @ Apow  # (K, l, n)
    CA_rows = CA.reshape(K * l, n)
    CA_flat = CA.reshape(K, l * n)
    AK = A @ Apow[-1]

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
