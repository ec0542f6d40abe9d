"""Hot kernels: the state simulation and the input-response regressor.

Both solve a linear recursion x(k+1) = A x(k) + f(k) by one doubling scan,
``_doubling_scan``: BLAS calls in a Python loop over blocks of K rows and
O(log K) passes per block, not over samples.  ``scan_trajectory`` simulates
a plant; it agrees with the per-step recursion ``trajectory``, its test
oracle, to round-off, since the scan sums the forced response in another
order.  ``io_regressor`` builds the output-error regressor of a cyclic
model's x0, B and D with the periodic system's recursion run over periods:
the scan gives the phase-0 state's sensitivity at each period start, and
each sampled output row reads it through the phase matrices.  The regressor
keeps the full shape the benchmark's tracer pins (ROADMAP item 1), with its
nonzero block in the top-left corner of a column-major array of zeros whose
padding is never written: one row per output sample in time order
(``regressor_rows``), and the leading columns (``regressor_columns``).
LAPACK's least squares works on a Fortran-ordered copy of its matrix, and
copying a column-major regressor reads it in order.
"""

import numpy as np

#: there is no compiled build; perfbench/worker.py reads this for its environment stamp
HAS_NUMBA = False

#: rows per block of the doubling scan: samples of the simulation, at most
#: periods of the regressor
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


def _doubling_scan(x, A):
    """Solve x[k] = A x[k-1] + x[k] down the rows of x in place (Hillis &
    Steele, CACM 29(12), 1986): the pass with offset h = 1, 2, 4, ... adds
    A^h x[k-h] to every x[k], so after it x[k] sums A^q times the starting
    row k - q for q < 2h.  The powers A^(2^j) are formed only below the row
    count.  A row may be a stack of states, viewed 2-D: one GEMM per pass.
    """
    n, h, P = A.shape[0], 1, A.T  # P = (A^h)^T
    while h < len(x):
        if h > 1:
            P = P @ P
        rows = x[h:].reshape(-1, n)
        rows += x[:-h].reshape(-1, n) @ P
        h *= 2


def scan_trajectory(A, B, C, D, u, x0):
    """``trajectory``'s (x, y) by ``_doubling_scan``, per block of _BLOCK
    samples: x[k] starts as B u(k - 1), and each block's first row as its
    state, x0 or A times the state the previous block ended on plus
    B u(k - 1).  y = C x + D u follows per block.  Beyond x and y, only
    block-sized arrays are allocated.
    """
    A, B, C, D, u = (np.asarray(X, dtype=np.float64) for X in (A, B, C, D, u))
    N = u.shape[0]
    x = np.empty((N, A.shape[0]))
    y = np.empty((N, C.shape[0]))
    x[0] = x0
    np.matmul(u[:-1], B.T, out=x[1:])
    for k0 in range(0, N, _BLOCK):
        xb, yb = x[k0:k0 + _BLOCK], y[k0:k0 + _BLOCK]
        if k0:
            xb[0] += x[k0 - 1] @ A.T
        _doubling_scan(xb, A)
        np.matmul(xb, C.T, out=yb)
        yb += u[k0:k0 + _BLOCK] @ D.T
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


def regressor_columns(M, n, m, l):
    """Index in the full [x0, vec B, vec D] of each leading column of
    ``io_regressor``, vecs column-major as in ``_io_regressor_dense``: x0
    block 0 (n columns), then B block (sigma, sigma - 1) by (sigma, j, a)
    (M*m*n), then D block (p, p) by (p, j, i) (M*m*l).  At M = 1 these are
    0, 1, ..., n + n*m + l*m - 1.
    """
    order, ll, phase = M * n, M * l, np.arange(M)
    B = order + (((phase - 1) % M)[:, None] * m + np.arange(m))[:, :, None] * order \
        + (phase * n)[:, None, None] + np.arange(n)
    D = order + order * M * m + (phase[:, None] * m + np.arange(m))[:, :, None] * ll \
        + (phase * l)[:, None, None] + np.arange(l)
    return np.concatenate([np.arange(n), B.ravel(), D.ravel()])


def regressor_rows(C, N):
    """Index in the flattened (N, M*l) cycled output, and so in the full
    regressor's rows, of each output sample in time order: per period mu,
    the output rows (q, c) whose row c of C_q is nonzero, q-major, at the
    steps M*mu + q < N.  Sample s is row s of ``io_regressor``.

    C is stacked phase blocks (M, l, n) or one (l, n) matrix.  The rows of C
    that are zero are the outputs no sensor samples at that phase.
    """
    C = np.asarray(C)
    if C.ndim == 2:
        C = C[None]
    M, l, _ = C.shape
    q, c = np.nonzero(np.any(C != 0, axis=2))
    steps = np.arange(0, N, M)[:, None] + q
    return (steps * (M * l) + q * l + c)[steps < N]


def regressor_shape(N, M, n, m, l):
    """``io_regressor``'s shape over N steps of a period-M model with n
    states, m inputs and l outputs per phase: one row per cycled output
    entry, one column per entry of [x0, vec B, vec D]."""
    return N * M * l, M * n + M * n * M * m + M * l * M * m


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
    A cycled output holds data only on the rows (k, q, c) with q = k mod M
    and row c of C_q nonzero, the output samples, and there the full
    regressor is nonzero only in the columns of x0 block 0, of the B blocks
    (p+1, p) and of D block (q, q): the phase-0 initial state, cyclic B and
    block-diagonal D of the cyclic reformulation.  Phi holds exactly those
    entries in its top-left corner: row s is the s-th output sample, whose
    row in the full regressor ``regressor_rows`` gives, and the leading
    w = n + M*m*n + M*m*l columns are those whose index in the full
    [x0, vec B, vec D] ``regressor_columns`` gives; every other entry is
    zero.  So with the samples first in the right-hand side and zeros after
    them, theta[:w] of its least squares fits x0, B and D on that pattern,
    and the solution there is the full regressor's on the samples.  The D
    columns of an output that phase q never samples are zero.  At M = 1
    with no zero row in C every row is a sample, in its full order, the
    leading columns are all columns in their full order, and Phi is the
    full regressor.

    The rows past the samples and the padding columns from w on stay only
    because the benchmark's tracer (perfbench/tracing.py) pins this shape,
    ``regressor_shape``, until it bounds the shape instead (ROADMAP item 1);
    the fit needs only the corner.  Only the leading columns' pages are ever
    written, and the padding's stay unmapped.  README "Memory" gives the
    pages written and the least-squares times on the full shape and on the
    corner.

    The x0 and B columns come from the sensitivity S(mu), n x (n + M*m*n),
    of the phase-0 state at step M*mu to x0 block 0 and the B pairs: S(0) =
    [I 0], S(mu+1) = G[0, M] S(mu) + F(mu) with G from `_power_table`, and
    F(mu) takes the input at step M*mu + sigma - 1 through B pair sigma
    (pair 0 at sigma = M) and G[sigma, M - sigma] to the period's end.
    ``_doubling_scan`` solves it in blocks of periods, each continuing from
    the last state of the one before, up to the first period start past the
    record.  Output row (q, c) at step M*mu + q reads C_q[c] G[0, q] S(mu),
    plus C_q[c] G[t+1, q-1-t] u(M*mu + t) in B pair t + 1's columns, t < q.
    A block's temporaries stay within max(1/64 of Phi's bytes, 1 MiB).
    """
    A = np.asarray(A, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if A.ndim == 2:
        A, C = A[None], C[None]
    u = np.asarray(u, dtype=np.float64)
    M, n, _ = A.shape
    l = C.shape[1]
    N, mm = u.shape
    m = mm // M
    ll = M * l
    nc = n + M * m * n  # the x0 and B columns a sampled row can touch
    periods = -(-N // M)
    raw = np.zeros((periods * M, m))  # the live input of each step, zero past N
    raw[:N] = u.reshape(N, M, m)[np.arange(N), np.arange(N) % M]
    phase = np.arange(M)
    entering = raw.reshape(periods, M, m)[:, phase - 1]  # (mu, sigma): the input B pair sigma takes

    q, c = np.divmod(regressor_rows(C, M) % ll, l)  # (q, c) of a period's samples, in order
    R, samples = q.size, regressor_rows(C, N).size  # sample mu*R + r is Phi's row
    G = _power_table(A, M + 1)
    reach = G[phase, -phase % M].transpose(0, 2, 1)  # G[sigma, M - sigma]^T, G[0, 0] = I
    Cr = C[q, c][:, None]
    free = (Cr @ G[0, q])[:, 0]  # C_q[c] G[0, q], (r, x)
    # C_q[c] G[sigma, q - sigma] for sigma <= q, else 0, (sigma - 1, x, r): pair
    # 0 takes the period's last input, which no row of the period reads
    lag = q - phase[1:, None]
    forced = np.where((lag >= 0)[..., None],
                      (Cr @ G[phase[1:, None], np.maximum(lag, 0)])[..., 0, :], 0.0).transpose(0, 2, 1)

    Phi = np.zeros(regressor_shape(N, M, n, m, l), order="F")
    PhiT = Phi.T  # C-contiguous: row i is column i of Phi
    grid = PhiT[:nc, :periods * R].reshape(nc, periods, R)  # (column, mu, r), a view
    # a period's bytes: its row of S, and of Y and Y's input term
    K = max(1, min(_BLOCK, periods, max(Phi.nbytes // 64, 2 ** 20) // (8 * nc * (n + 2 * R))))
    S = np.zeros((K + 1, nc, n))  # S[i] = S(mu0 + i)^T over a block of periods
    S[0, :n] = np.eye(n)
    for mu0 in range(0, periods, K):
        k = min(K, periods - mu0)
        Sb, entered = S[:k + 1], entering[mu0:mu0 + k, :, :, None, None]
        Sb[1:, :n] = 0
        np.multiply(entered, reach[:, None], out=Sb[1:, n:].reshape(k, M, m, n, n))
        _doubling_scan(Sb, G[0, M])
        Y = (Sb[:k].reshape(-1, n) @ free.T).reshape(k, nc, R)
        Y[:, n + m * n:].reshape(k, M - 1, m, n, R)[...] += entered[:, 1:] * forced[:, None]
        grid[:, mu0:mu0 + k] = Y.transpose(1, 0, 2)
        S[0] = S[k]  # the next block starts from the state this one ended on
    PhiT[:nc, samples:periods * R] = 0  # the last period's rows past the record

    # sample mu*R + r, of output (q[r], c[r]) at step M*mu + q[r], holds u_j
    # of that step in column nc + (q[r]*m + j)*l + c[r]: D block (q, q)
    for r, j in np.ndindex(R, m):
        PhiT[nc + (q[r] * m + j) * l + c[r], r:samples:R] = raw[q[r]:N:M, j]
    return Phi
