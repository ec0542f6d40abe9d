"""Hot kernels: the state simulation and the input-response regressor.

Both run with BLAS calls only and a Python loop over blocks of time, not
over samples.  ``scan_trajectory`` simulates a plant by a doubling scan:
O(log K) passes over each block of K samples, each one product with a
power A^(2^j).  It agrees with the per-step recursion ``trajectory``, its
test oracle, to round-off: the scan sums the forced response in another
order.  The input-response regressor of a cyclic model fits x0, B and D on
the cyclic reformulation's pattern: it is nonzero only on the output rows
(k, q, c) with q = k mod M, the only rows a cycled output can fill, and
there only in the columns of x0 block 0, of B's cyclic blocks and of D's
diagonal block q.  Those entries are built per time chunk from a table of
state transitions (the products of the phase matrices, built by doubling),
the phase-0 state's sensitivities at the chunk start, and a gather that lays
the chunk's lagged inputs out as Toeplitz blocks.  They are written into a
column-major array of zeros of the full regressor's shape: LAPACK's least
squares works on a Fortran-ordered copy of its matrix, and copying a
column-major regressor reads it in order instead of transposing it with
strided access.
"""

import numpy as np

#: there is no compiled build; perfbench/worker.py reads this for its environment stamp
HAS_NUMBA = False

#: time samples per chunk of the input-response regressor
_CHUNK = 64

#: time samples per block of the doubling scan
_BLOCK = 1024


def _power_table(A, T):
    """G[p, t] = A[p+t-1] ... A[p+1] A[p] (phase indices mod M), t < T, as an
    (M, T, n, n) array: the t-step state transition of the periodic system
    with phase matrices A (M, n, n), leaving phase p; G[p, 0] = I.  With one
    phase these are the powers A^t.

    Built by doubling, G[p, h + t] = G[p + h, t] G[p, h]: one batched product
    per doubling instead of one per power.
    """
    M, n, _ = A.shape
    G = np.empty((M, T, n, n))
    G[:, 0] = np.eye(n)
    G[:, 1:2] = A[:, None]
    h = 1
    while h + 1 < T:
        k = min(h, T - 1 - h)
        np.matmul(G[(np.arange(M) + h) % M, 1:k + 1], G[:, h, None],
                  out=G[:, h + 1:h + k + 1])
        h += k
    return G


def trajectory(A, B, C, D, u, x0):
    """Run x(k+1) = A x(k) + B u(k), y(k) = C x(k) + D u(k), one step at a time.

    Returns (x, y) with x[k] the state at step k and y the unmasked output.
    The test oracle of ``scan_trajectory``.
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


def scan_trajectory(A, B, C, D, u, x0):
    """``trajectory``'s (x, y) by a doubling scan (Hillis & Steele, CACM
    29(12), 1986) in blocks of _BLOCK samples.

    x[k] starts as B u(k - 1), and each block's first row as its state: x0,
    or A times the state the previous block ended on plus B u(k - 1).  The
    pass with offset h = 1, 2, 4, ... adds A^h x[k - h] to every x[k] of the
    block, so after it x[k] sums A^q times the starting row k - q for q < 2h,
    back to the block's first row at most; once 2h reaches the block length
    every row is its state.  y = C x + D u follows per block.  Beyond x and
    y, only block-sized arrays are allocated.
    """
    A, B, C, D, u = (np.asarray(X, dtype=np.float64) for X in (A, B, C, D, u))
    N = u.shape[0]
    x = np.empty((N, A.shape[0]))
    y = np.empty((N, C.shape[0]))
    x[0] = x0
    np.matmul(u[:-1], B.T, out=x[1:])
    K = min(N, _BLOCK)
    powers = [A.T]  # (A^h)^T for h = 1, 2, 4, ... below K
    while 2 ** len(powers) < K:
        powers.append(powers[-1] @ powers[-1])
    for k0 in range(0, N, K):
        xb, yb = x[k0:k0 + K], y[k0:k0 + K]
        if k0:
            xb[0] += x[k0 - 1] @ A.T
        for j, P in enumerate(powers):
            h = 2 ** j
            xb[h:] += xb[:-h] @ P
        np.matmul(xb, C.T, out=yb)
        yb += u[k0:k0 + K] @ D.T
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
    """Regressor Phi of the pattern-constrained (x0, vec B, vec D) least
    squares of a cyclic model, an (N*M*l) x (M*n + M*n*M*m + M*l*M*m)
    column-major array.

    A and C are the phase blocks of a cyclic state matrix and a block
    diagonal output matrix, stacked (M, n, n) and (M, l, n): A[p] is block
    (p+1, p) and C[p] block (p, p), as `cyclic.read_blocks` gives them.  u is
    the cycled input, (N, M*m), whose sample k sits in phase block k mod M.
    Plain (n, n) and (l, n) matrices are one phase, M = 1, where A, C and u
    may be anything.

    Row block k of the full regressor is [C A^k, C Z(k), u(k)^T (x) I] in
    the cycled matrices, with Z(k+1) = A Z(k) + u(k)^T (x) I, Z(0) = 0 and
    column-major vecs; ``_io_regressor_dense`` builds it sample by sample.
    A cycled output holds data only on the rows (k, q, c) with q = k mod M,
    and there the full regressor is nonzero only in the columns of x0 block
    0, of the B blocks (p+1, p) and of D block (q, q): the phase-0 initial
    state, cyclic B and block-diagonal D of the cyclic reformulation.  Phi
    holds exactly those entries and is zero everywhere else, so its least
    squares fits x0, B and D on that pattern; the solution there is the full
    regressor's, whose other rows have a zero right-hand side.  At M = 1
    every row is such a row and Phi is the full regressor.

    The zero rows and columns stay only because the benchmark's tracer
    (perfbench/tracing.py) pins this shape, until it bounds the shape
    instead (ROADMAP item 1); the fit needs only the nonzero block.
    Solving on that block alone (its N*l rows, 33 columns at rates (2,3) and
    63 at (3,4)) took 4.3 ms against 0.14 s on the full shape at (2,3), and
    11 ms against 1.95 s at (3,4) (benchmark plant, N = 3000, 2 vCPUs,
    OpenBLAS 0.3.31).

    Output row (q, c) at step k = q mod M holds C_q[c] G[0, k] in the x0
    columns and, for each sigma < M, the sum over tau < k, tau = sigma - 1
    mod M, of u(tau)^T (x) C_q[c] G[sigma, k - 1 - tau] in the columns of B
    block (sigma, sigma - 1), G the transition table of `_power_table`.
    These are made per chunk of K samples, a multiple of M so that every
    chunk starts at phase 0, from the phase-0 state's [A^k0, Z(k0)] columns
    at the chunk start: the free response as one batched product, the input
    sum as one Toeplitz GEMM per sigma over every live row, whose lags share
    one residue mod M.  Several chunks are gathered, within about 1/64 of
    Phi's size, and written into a Phi made by np.zeros in one call: a
    strided copy down each column for every live row.  The D columns get
    only the input of each step.
    """
    A = np.asarray(A, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if A.ndim == 2:
        A, C = A[None], C[None]
    u = np.ascontiguousarray(u, dtype=np.float64)
    M, n, _ = A.shape
    l = C.shape[1]
    N, mm = u.shape
    m = mm // M
    order, ll = M * n, M * l
    nb = order + order * mm  # x0 and B columns
    nc = n + M * m * n  # the x0 and B columns a sampled row can touch
    P = -(-_CHUNK // M)  # periods per chunk
    K = M * P  # chunk length
    chunks = -(-N // K)
    raw = np.zeros((chunks * K, m))  # the live input of each step, zero past N
    raw[:N] = u.reshape(N, M, m)[np.arange(N), np.arange(N) % M]

    q, c = np.nonzero(np.any(C != 0, axis=2))  # live output rows; row r is read on steps q[r] mod M
    G = _power_table(A, K + 1)
    lag = np.arange(K)
    # CG[r, lag] = C_q[c] G[q - lag, lag]: the lag-step response arriving at row r
    CG = (C[q, c][:, None, None, :] @ G[(q[:, None] - lag) % M, lag])[:, :, 0]
    sigma, period = np.arange(M), np.arange(P)
    # free response of row r on steps q + M*mu, (r, x, mu)
    free = np.ascontiguousarray(CG.reshape(-1, P, M, n)[np.arange(q.size), :, q].transpose(0, 2, 1))
    within = q * ll + q * l + c  # row r's row in a period
    # one Toeplitz GEMM per sigma over every live row: step q + M*mu sees the
    # input in uz row sigma + M*(mu - lam) at lag rho + M*(lam - wrap), with
    # rho = q - sigma mod M and wrap = 1 where q < sigma; lags from K on reach
    # no input of the chunk
    rho, wrap = (q[:, None] - sigma) % M, q[:, None] < sigma
    lam = period - wrap[..., None]  # (r, sigma, lam), -1 for no lag
    tables = np.where((lam >= 0)[..., None],
                      CG.reshape(-1, P, M, n)[np.arange(q.size)[:, None, None], lam, rho[..., None]],
                      0.0).transpose(1, 0, 3, 2).reshape(M, -1, P)
    lead = np.maximum(sigma[:, None, None] + M * (period - period[:, None]), 0)  # (sigma, lam, mu)
    gather = (lead[..., None] * m + np.arange(m)).reshape(M, P, P * m)  # into uz.ravel()
    uz = np.zeros((K + 1, m))  # uz[1 + t] = u(k0 + t), uz[0] = 0 for lags past the chunk start
    # input u(k0 + tau), tau = sigma - 1 mod M, enters B pair sigma and reaches
    # the next chunk start through G[sigma, K - 1 - tau]; entering[k0 // K, sigma]
    # holds those inputs
    tau = (sigma[:, None] - 1) % M + M * period
    advance = G[sigma[:, None], K - 1 - tau].transpose(0, 2, 3, 1).reshape(M, n * n, P)
    entering = np.ascontiguousarray(raw.reshape(chunks, K, m)[:, tau])
    GK = G[0, K]

    # the Phi column of compact column (x0 a | sigma, j, a): x0 block 0, B block (sigma, sigma - 1)
    pairs = order + (((sigma - 1) % M)[:, None] * m + np.arange(m))[:, :, None] * order \
        + (sigma * n)[:, None, None] + np.arange(n)
    cols = np.concatenate([np.arange(n), pairs.ravel()])

    Phi = np.zeros((N * ll, nb + ll * mm), order="F")
    PhiT = Phi.T  # C-contiguous: row i is column i of Phi
    # rows by (period, row within it), and the rows of the steps past the last whole period
    periods = PhiT[:, :N // M * M * ll].reshape(len(PhiT), N // M, M * ll)
    rest, tail = N % M, N // M * M * ll
    span = P * max(1, Phi.nbytes // 64 // max(1, q.size * nc * P * 8))
    out = np.empty((q.size, nc, span))  # (r, compact column, period)
    state = np.zeros((n, nc))  # the compact [A^k0, Z(k0)] columns
    state[:, :n] = np.eye(n)
    for k0 in range(0, N, K):
        uz[1:] = raw[k0:k0 + K]
        at = k0 // M % span
        block = out[..., at:at + P]
        np.matmul(state.T, free, out=block)
        forced = (tables @ uz.ravel()[gather]).reshape(M, q.size, n, P, m)
        block[:, n:].reshape(q.size, M, m, n, P)[...] += forced.transpose(1, 0, 4, 2, 3)
        if at + P == span or k0 + K >= N:
            # one strided copy per (r, column): the whole periods, then any rest
            first = k0 // M - at
            whole = min(at + P, N // M - first)
            periods[cols, first:first + whole, within[:, None]] = out[..., :whole]
            if k0 + K >= N and rest:
                part = q < rest
                PhiT[cols, tail + within[part, None]] = out[part, :, whole]
        if k0 + K < N:
            inc = (advance @ entering[k0 // K]).reshape(M, n, n, m)
            state = GK @ state
            state[:, n:].reshape(n, M, m, n)[...] += inc.transpose(1, 0, 3, 2)

    # column nb + (p*m + j)*ll + p*l + i of output row (k, p*l + i), p = k mod M,
    # holds u_j(k): D block (p, p), one strided copy per (p, j, i)
    for p, j, i in np.ndindex(M, m, l):
        PhiT[nb + (p * m + j) * ll + p * l + i, p * ll + p * l + i::M * ll] = raw[p:N:M, j]
    return Phi
