"""Hot kernels: the state simulation and the input-response regressor.

Both run with BLAS calls only and a Python loop over blocks of time, not
over samples.  ``scan_trajectory`` simulates a plant by a doubling scan:
O(log K) passes over each block of K samples, each one product with a
power A^(2^j).  It agrees with the per-step recursion ``trajectory``, its
test oracle, to round-off: the scan sums the forced response in another
order.  The input-response regressor of a cyclic model is built per time
chunk from a table of state transitions (the products of the phase
matrices, built by doubling) and a gather that lays the chunk's lagged
inputs out as Toeplitz blocks.  It is computed only where the model's
structure lets it be nonzero, a 1/M share of its x0 and B columns on each
sampled row, and written into a column-major array of zeros: LAPACK's
least squares works on a Fortran-ordered copy of its matrix, and copying a
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
    """Regressor Phi for the joint (x0, vec B, vec D) least squares of a
    cyclic model, an (N*M*l) x (M*n + M*n*M*m + M*l*M*m) column-major array.

    A and C are the phase blocks of a cyclic state matrix and a block
    diagonal output matrix, stacked (M, n, n) and (M, l, n): A[p] is block
    (p+1, p) and C[p] block (p, p), as `cyclic.read_blocks` gives them.  u is
    the cycled input, (N, M*m), whose sample k sits in phase block k mod M.
    Plain (n, n) and (l, n) matrices are one phase, M = 1, where A, C and u
    may be anything.

    Row block k of Phi is [C A^k, C Z(k), u(k)^T (x) I] in the cycled
    matrices, with Z(k+1) = A Z(k) + u(k)^T (x) I, Z(0) = 0 and column-major
    vecs; ``_io_regressor_dense`` builds it sample by sample.  Most of it is
    zero by structure.  On step k, output row (phase q, channel c) is zero in
    the x0 and B columns where C's row is, and otherwise nonzero there only
    in the n + M*n*m columns of its chain p = q - k mod M: x0 block p, where
    it holds C_q[c] G[p, k], and for each sigma < M the block of B that maps
    input phase sigma - 1 to state block p + sigma, where it holds the sum
    over tau < k, tau = sigma - 1 mod M, of u(tau)^T (x) C_q[c] G[p + sigma,
    k - 1 - tau], G the transition table of `_power_table`.

    Those blocks are made per chunk of K samples, a multiple of M so that
    every chunk starts at phase 0, from each chain's [A^k0, Z(k0)] columns
    at the chunk start: the free response as one batched product, the input
    sum as one Toeplitz GEMM per pair (step mod M, sigma), whose lags share
    one residue mod M.  Several chunks are gathered, within about 1/64 of
    Phi's size, and written into a Phi made by np.zeros in one call: a
    strided copy down each column for every (step phase, live row).  The D
    columns get only the live inputs.
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
    nc = n + M * m * n  # x0 and B columns of one chain
    P = -(-_CHUNK // M)  # periods per chunk
    K, T = M * P, M * (P + 1)  # chunk length; table length, lags below K and K itself
    chunks = -(-N // K)
    raw = np.zeros((chunks * K, m))  # the live input of each step, zero past N
    raw[:N] = u.reshape(N, M, m)[np.arange(N), np.arange(N) % M]

    q, c = np.nonzero(np.any(C != 0, axis=2))  # live output rows
    live = q.size
    G = _power_table(A, T)
    lag = np.arange(T)
    # CG[r, lag] = C_q[c] G[q - lag, lag]: the lag-step response arriving at row r
    CG = (C[q, c][:, None, None, :] @ G[(q[:, None] - lag) % M, lag])[:, :, 0]
    t0, sigma, period = np.arange(M)[:, None], np.arange(M), np.arange(P)
    # row r on steps t0 mod M: its chain, its free-response table, its row in a period
    chain = (q - t0) % M
    free = np.ascontiguousarray(CG[:, :K].reshape(live, P, M, n).transpose(2, 0, 3, 1))
    within = t0 * ll + q * l + c
    # one Toeplitz GEMM per (t0, sigma), over the lags rho + M*mu, rho = t0 - sigma mod M
    rho = (t0 - sigma) % M
    tables = CG.reshape(live, P + 1, M, n).transpose(2, 0, 3, 1).reshape(M, -1, P + 1)[rho]
    lead = np.maximum((t0 + M * period)[:, None, None, :]
                      - (rho[:, :, None, None] + M * np.arange(P + 1)[:, None]), 0)
    gather = (lead[..., None] * m + np.arange(m)).reshape(M, M, P + 1, P * m)  # into uz.ravel()
    uz = np.zeros((K + 1, m))  # uz[1 + t] = u(k0 + t), uz[0] = 0 for lags past the chunk start
    # chain state advance: input u(k0 + tau) enters chain p's B pair sigma = tau + 1
    # mod M and reaches the next chunk start through G[p + sigma, K - 1 - tau]
    tau = np.arange(K)
    advance = G[(t0[:, :, None] + sigma[:, None]) % M, K - 1 - tau]  # (p, sigma, tau, x, a)
    advance *= ((tau + 1 - sigma[:, None]) % M == 0)[None, :, :, None, None]
    advance = advance.transpose(0, 3, 1, 4, 2).reshape(-1, K)  # rows (p, x, sigma, a)
    GK = G[:, K]

    # the Phi column of chain p's compact column (x0 a | sigma, j, a)
    pairs = order + ((((sigma - 1) % M)[:, None] * m + np.arange(m)) * order)[None, :, :, None] \
        + (((t0 + sigma) % M) * n)[:, :, None, None] + np.arange(n)
    cols = np.concatenate([t0 * n + np.arange(n), pairs.reshape(M, -1)], axis=1)[chain]

    Phi = np.zeros((N * ll, nb + ll * mm), order="F")
    PhiT = Phi.T  # C-contiguous: row i is column i of Phi
    # rows by (period, row within it), and the rows of the steps past the last whole period
    periods = PhiT[:, :N // M * M * ll].reshape(len(PhiT), N // M, M * ll)
    rest, tail = N % M, N // M * M * ll
    span = P * max(1, Phi.nbytes // 64 // max(1, M * live * nc * P * 8))
    out = np.empty((M, live, nc, span))  # (t0, r, compact column, period)
    state = np.zeros((M, n, nc))  # each chain's compact [A^k0, Z(k0)] columns
    state[:, :, :n] = np.eye(n)
    for k0 in range(0, N, K):
        uz[1:] = raw[k0:k0 + K]
        at = k0 // M % span
        block = out[..., at:at + P]
        np.matmul(state[chain].transpose(0, 1, 3, 2), free, out=block)
        forced = (tables @ uz.ravel()[gather]).reshape(M, M, live, n, P, m)
        block[:, :, n:].reshape(M, live, M, m, n, P)[...] += forced.transpose(0, 2, 1, 5, 3, 4)
        if at + P == span or k0 + K >= N:
            # one strided copy per (t0, r, column): the whole periods, then any rest
            first = k0 // M - at
            whole = min(at + P, N // M - first)
            periods[cols, first:first + whole, within[..., None]] = out[..., :whole]
            if k0 + K >= N and rest:
                PhiT[cols[:rest], tail + within[:rest, :, None]] = out[:rest, ..., whole]
        if k0 + K < N:
            inc = (advance @ raw[k0:k0 + K]).reshape(M, n, M, n, m)
            state = GK @ state
            state[:, :, n:].reshape(M, n, M, m, n)[...] += inc.transpose(0, 1, 2, 4, 3)

    # column nb + (k mod M, j)*ll + i of output row (k, i) holds u_j(k); the other
    # D entries are 0
    dcols = nb + (np.arange(mm)[:, None] * ll + np.arange(ll)).reshape(M, m, ll)
    drows = (np.arange(M) * ll)[:, None, None] + np.arange(ll)
    steps = raw[:N // M * M].reshape(N // M, M, m).transpose(1, 2, 0)[:, :, None]
    periods[dcols, :, drows] = steps
    PhiT[dcols[:rest], tail + drows[:rest]] = raw[N - rest:N, :, None]
    return Phi
