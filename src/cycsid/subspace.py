"""Deterministic subspace identification on (possibly cycled) signals.

The realization follows the classical projection scheme: block-Hankel
matrices of input and output, an LQ factorization that projects future
outputs onto past data along future inputs, an SVD whose leading left
singular directions span the extended observability matrix, shift-invariance
least squares for the state matrix, and a final linear least squares over
the input-output equation for the input-side matrices and the initial state.
On noise-free data from a minimal system the result is exact up to round-off.

The Hankel depth (block rows) comes from the sampling pattern: most rows of
a cycled output are zeros that no sensor samples, so the depth counts only
the rows each phase block samples, and the shifted observability estimate
is checked against the data before a short depth is accepted.

After the LQ the work is split by phase.  A cycled signal carries sample k
in phase block k mod M, so Hankel row (block row b, phase block p) is
nonzero only on the columns j = p - start - b mod M: the LQ operand is a
direct sum of M phase groups.  The rows of outputs that no sensor samples
are all zero and go after all the others.  At a zero pivot Householder
keeps the running column's entry as it stands, so a zero row among the
others leaks raw data of later rows across the groups; placed last, it
leaks into nothing the fit reads (noisy data: off-group entries of L fall
from 2.8e-4 to 5.7e-16 of its largest entry at rates (2,3), noise 1e-2).
Noise-free data are rank deficient, and the Householder pivots that land
on round-off still leave off-group entries near 9e-3 of the largest entry;
the phase subspaces do not depend on them and stay exact, within a
principal-angle sine of about 1e-15.  So each group's excitation rank and
projection SVD are taken apart, and each phase's top n left singular
vectors fill its own state block of the observability estimate: the shift
fit then gives a cyclic A (its round-off off-pattern part is recorded and
zeroed) and the first block row a block-diagonal C, whose never-sampled
rows are exact zeros.  x0, B and D follow the same pattern: the B/D/x0
regressor (``kernels.io_regressor``) has one row per output sample, (k, q, c)
with q = k mod M and row c of C_q nonzero, in time order
(``kernels.regressor_rows``), and on them only the columns of x0's phase-0
block, B's cyclic blocks and D's diagonal blocks.  The right-hand side holds
the samples in the same order.  The one least squares on it gives those
blocks, and the model takes those that a sample reaches, so B is cyclic, D
block diagonal and zero on never-sampled outputs, and x0 zero outside phase
0 by construction.  The regressor keeps the full (N*M*l)-row shape the
benchmark's tracer pins: that block is its top-left corner, and the zero
rows and columns after it are padding that ROADMAP item 2 drops.
"""

from dataclasses import dataclass, field

import numpy as np

from .cyclic import CycledSignal, is_cyclic_matrix, place_blocks, read_blocks
from .errors import (
    DimensionMismatchError,
    DivergentModelError,
    ExcitationDeficientError,
    InsufficientDataError,
    RankConditionError,
)
from .kernels import io_regressor, regressor_columns, regressor_rows
from .numerics import as_signal, blas_threads, rank_with_tol

#: the forced order counts as exposed when every phase's sigma_(n+1)/sigma_n is at most this
SV_GAP_TOL = 0.1


@dataclass
class IdentifiedModel:
    """State-space model of order M*n returned by identification, with the
    evidence it was accepted on.

    block_rows is the Hankel depth used, pattern_block_rows the depth the
    sampling pattern chose (they differ after a fallback or an explicit
    depth), and shift_margin sigma_min/sigma_max of the shifted observability
    estimate at the depth used.  phase_rank_margins and phase_gaps hold, per
    state phase p, sigma_n/sigma_1 and sigma_(n+1)/sigma_n of that phase's
    projection.  a_offpattern is the largest entry of the shift fit's A
    outside the cyclic pattern, which identification then zeroes.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    n: int
    m: int
    l: int
    M: int
    x0: np.ndarray = field(repr=False)
    block_rows: int
    pattern_block_rows: int
    shift_margin: float
    phase_rank_margins: list
    phase_gaps: list
    a_offpattern: float

    def __post_init__(self):
        n, m, l, M = self.n, self.m, self.l, self.M
        for name, want in (("A", (M * n, M * n)), ("B", (M * n, M * m)), ("C", (M * l, M * n)),
                           ("D", (M * l, M * m)), ("x0", (M * n,)),
                           ("phase_rank_margins", (M,)), ("phase_gaps", (M,))):
            got = np.shape(getattr(self, name))
            if got != want:
                raise DimensionMismatchError(
                    f"{name} is {got} but the declared (n, m, l, M) make it {want}")
        if not all(np.all(np.isfinite(X)) for X in (self.A, self.B, self.C, self.D, self.x0)):
            raise DimensionMismatchError("identified matrices contain non-finite entries")

    @property
    def order(self):
        return self.M * self.n

    @property
    def order_gap(self):
        """The SV gap: the largest phase gap."""
        return max(self.phase_gaps)

    @property
    def order_exposed(self):
        """Whether every phase exposes its order: the SV gap is at most SV_GAP_TOL."""
        return self.order_gap <= SV_GAP_TOL

    def depth_evidence(self):
        """{used, pattern, shift_margin}: the depth record kept in reports and model files."""
        return {"used": self.block_rows, "pattern": self.pattern_block_rows,
                "shift_margin": self.shift_margin}

    def phase_evidence(self):
        """{rank_margin, sv_gap, a_offpattern}: the per-phase record of reports and model files."""
        return {"rank_margin": self.phase_rank_margins, "sv_gap": self.phase_gaps,
                "a_offpattern": self.a_offpattern}


def build_block_hankel(signal, rows, cols, start=0, out=None):
    """(q*rows) x cols matrix with block entry (i, j) = signal[start+i+j],
    written into out when given."""
    signal = as_signal(signal)
    N, q = signal.shape
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if start + rows + cols - 1 > N:
        raise InsufficientDataError(
            f"hankel needs {start + rows + cols - 1} samples, signal has {N}"
        )
    H = np.empty((q * rows, cols)) if out is None else out
    for r in range(rows):
        H[r * q:(r + 1) * q, :] = signal[start + r:start + r + cols].T
    return H


def sampled_rows(y, M):
    """seen[p]: the output rows of phase block p that carry a nonzero sample."""
    return np.any(y != 0, axis=0).reshape(M, -1).sum(axis=1)


def pattern_cover(seen, h):
    """Fewest sampled output rows in any h consecutive block rows, taken
    over every starting phase."""
    M = len(seen)
    phases = (np.arange(max(h, 0))[:, None] + np.arange(M)) % M
    return int(seen[phases].sum(axis=0).min())


def _shortest_cover(seen, rows, limit):
    """Smallest h <= limit with pattern_cover(seen, h) >= rows, else None."""
    return next((h for h in range(1, limit + 1) if pattern_cover(seen, h) >= rows), None)


def full_block_rows(order, M):
    """max(2n + 2, order + 1): a depth that needs no pattern count.  Under the
    observability assumption every phase reaches an observable phase within
    M - 1 steps and then takes n samples spaced M apart, so the shifted
    observability matrix of order block rows has full column rank."""
    return max(2 * (order // M) + 2, order + 1)


def default_block_rows(order, seen):
    """max(2n + 2, min(order + 1, h + 1)), h the fewest block rows whose every
    window samples at least 2n output rows (seen from `sampled_rows`)."""
    n = order // len(seen)
    h = _shortest_cover(seen, 2 * n, order - 1)
    return max(2 * n + 2, order + 1 if h is None else h + 1)


def _signal_array(sig):
    if isinstance(sig, CycledSignal):
        N = sig.samples.shape[0]
        held = sig.samples.reshape(N, sig.M, sig.q)[np.arange(N), np.arange(N) % sig.M]
        if np.count_nonzero(held) != np.count_nonzero(sig.samples):
            raise DimensionMismatchError(
                "a cycled signal must hold sample k in phase block k mod M only")
        return sig.samples, sig.q, sig.M
    arr = as_signal(sig)
    return arr, arr.shape[1], 1


def _hankel_phases(channels, q, M, start, rows):
    """Phase group of each row of a block Hankel with `rows` block rows over
    the given channels of a cycled signal with q channels per phase block:
    row (b, c) is nonzero only on columns j = (channels[c] // q - start - b)
    mod M, the group."""
    return ((channels // q)[None, :] - start - np.arange(rows)[:, None]).ravel() % M


def _observability_estimate(u, y, i, order, M):
    """(Gam, svs): the order-`order` extended observability estimate from
    block-Hankel data with i block rows, and the singular values of each
    phase's projection, svs[p] for the state at phases k = p mod M.

    The LQ operand [Uf; Up; Yp; Yf] keeps its full shape with the rows of
    never-sampled outputs last; each phase group's input rank and projection
    SVD are taken apart, and each phase's top n left singular vectors fill
    its state block of Gam (see the module docstring).  The Hankel blocks,
    their LQ factor and the SVD factors are locals here, so they are freed
    before the caller builds the much larger B/D/x0 regressor.
    """
    N, mm = u.shape
    ll = y.shape[1]
    n = order // M
    j = N - 2 * i + 1
    live = np.flatnonzero(y.any(axis=0))
    r_uf = i * mm
    r_up = 2 * r_uf
    r_past = r_up + i * live.size
    r_live = r_past + i * live.size

    # LQ of [Uf; Up; Yp; Yf]: row space of the lower-left blocks of Yf gives
    # the span of future outputs explained by past data after future inputs.
    # The Hankel blocks are written straight into the stack.  Only L is used,
    # so mode "r" skips forming the j-row orthogonal factor.
    stack = np.empty((2 * i * (mm + ll), j))
    build_block_hankel(u, i, j, start=i, out=stack[:r_uf])
    build_block_hankel(u, i, j, out=stack[r_uf:r_up])
    build_block_hankel(y[:, live], i, j, out=stack[r_up:r_past])
    build_block_hankel(y[:, live], i, j, start=i, out=stack[r_past:r_live])
    stack[r_live:] = 0.0
    with blas_threads(j * stack.shape[0] ** 2):
        L = np.linalg.qr(stack.T, mode="r").T

    inputs = np.arange(mm)
    group_up = _hankel_phases(inputs, mm // M, M, 0, i)
    by_group = np.argsort(np.concatenate([_hankel_phases(inputs, mm // M, M, i, i), group_up]),
                          kind="stable").reshape(M, -1)
    ranks = rank_with_tol(L[by_group[:, :, None], by_group[:, None, :]], 1e-10)
    if np.any(ranks < by_group.shape[1]):
        raise ExcitationDeficientError(
            f"input hankel rank below {2 * i * mm} in phase groups "
            f"{np.flatnonzero(ranks < by_group.shape[1]).tolist()}; "
            "input is not persistently exciting")

    proj = L[r_past:r_live, r_uf:r_past]
    group_f = _hankel_phases(live, ll // M, M, i, i)
    group_past = np.concatenate([group_up, _hankel_phases(live, ll // M, M, 0, i)])
    gam_rows = (np.arange(i)[:, None] * ll + live).ravel()  # Yf row -> row of Gam
    Gam = np.zeros((i * ll, order))
    svs = [None] * M
    for g in range(M):
        rows = np.flatnonzero(group_f == g)
        Uu, sv, _ = np.linalg.svd(proj[np.ix_(rows, np.flatnonzero(group_past == g))],
                                  full_matrices=False)
        p = (g + i) % M  # the state at the start of the future window
        k = min(n, sv.size)
        Gam[gam_rows[rows], p * n:p * n + k] = Uu[:, :k] * np.sqrt(sv[:k])
        svs[p] = sv
    return Gam, svs


def _require_samples(N, i, mm, ll, order, why=""):
    need = 2 * i * (mm + ll) + order
    if N < need:
        raise InsufficientDataError(
            f"{why}need at least {need} samples for block_rows={i}, got {N}")


def _phase_margins(svs, n):
    """(rank margins, gaps): sigma_n/sigma_1 and sigma_(n+1)/sigma_n of each
    phase's singular values.  A phase without a nonzero n-th singular value
    has margin 0 and an infinite gap; one with exactly n has nothing beyond
    its order, a gap of 0."""
    margins, gaps = [], []
    for sv in svs:
        if sv.size < n or sv[n - 1] == 0:
            margins.append(0.0)
            gaps.append(float("inf"))
        else:
            margins.append(float(sv[n - 1] / sv[0]))
            gaps.append(float(sv[n] / sv[n - 1]) if sv.size > n else 0.0)
    return margins, gaps


def _shift_margin(Gam, order, ll):
    """sigma_min/sigma_max of the shifted estimate Gam[:-ll], which has full
    column rank exactly when the depth is long enough for the shift fit."""
    s = np.linalg.svd(Gam[:-ll], compute_uv=False)
    return float(s[order - 1] / s[0]) if s.size >= order and s[0] > 0 else 0.0


@blas_threads()
def subspace_identify(ucheck, ycheck, order, block_rows=None):
    """Identify an order-`order` model from input/output data.

    Accepts CycledSignal values (their base dimension and period are kept
    on the result; sample k must sit in phase block k mod M and order must
    be a multiple of M) or plain (N, channels) arrays treated as single-rate.

    The depth i (block rows) follows the sampling pattern.  seen[p] counts
    the output rows of phase block p that carry a nonzero sample (for a
    plain array M = 1 and these are the nonzero columns), and cover(h) is
    the fewest sampled rows in any h consecutive block rows.  With
    n = order // M:

    - block_rows None picks max(2n + 2, min(order + 1, h + 1)), h the fewest
      block rows with cover(h) >= 2n;
    - any depth needs cover(i - 1) >= n, without which the shifted
      observability matrix cannot reach rank `order`; a shorter one raises
      RankConditionError naming the smallest depth that passes;
    - a depth is accepted when the data expose the order in every phase
      (the largest phase gap sigma_(n+1)/sigma_n is at most SV_GAP_TOL) and
      the shifted estimate's sigma_min/sigma_max exceeds that gap.  A default
      depth that fails is replaced once by max(2n + 2, order + 1), which
      needs no pattern count (see `full_block_rows`); an explicit block_rows
      that fails while the order is exposed raises RankConditionError.

    A is fitted by one shift least squares on the phase-placed estimate and
    its off-pattern blocks, of round-off size, are recorded and zeroed, so
    A is cyclic and C block diagonal by construction.  x0, B and D come from
    one least squares on the pattern (see the module docstring), so B is
    cyclic, D block diagonal and zero on never-sampled outputs, and x0 zero
    outside phase 0.  Raises
    InsufficientDataError when no output sample is nonzero or the record is
    too short, ExcitationDeficientError when the input does not excite the
    factorization, and DivergentModelError when the fitted A
    overflows the B/D/x0 regressor; a weak singular-value gap at the forced
    order is reported on the result, not raised.
    """
    u, m_base, M = _signal_array(ucheck)
    y, l_base, My = _signal_array(ycheck)
    if My != M:
        raise DimensionMismatchError(f"input period {M} != output period {My}")
    if u.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"signals must share length, got {u.shape[0]} and {y.shape[0]}"
        )
    if order % M:
        raise DimensionMismatchError(f"order {order} is not a multiple of the period {M}")
    N = u.shape[0]
    mm = u.shape[1]
    ll = y.shape[1]
    n_base = order // M
    seen = sampled_rows(y, M)
    if not seen.any():
        raise InsufficientDataError(
            f"no output sample of the {N}-sample record is nonzero: the data carry no output")
    pattern = default_block_rows(order, seen)
    i = pattern if block_rows is None else block_rows
    covered = pattern_cover(seen, i - 1)
    if covered < n_base:
        # n consecutive periods sample every row seen anywhere, so a shortest depth exists
        shortest = _shortest_cover(seen, n_base, M * n_base)
        raise RankConditionError(
            f"block_rows={i} too small to expose order {order}: some {i - 1} consecutive "
            f"block rows sample {covered} output rows, fewer than n = {n_base}; "
            f"use block_rows >= {shortest + 1}"
        )
    _require_samples(N, i, mm, ll, order)

    Gam, svs = _observability_estimate(u, y, i, order, M)
    margins, gaps = _phase_margins(svs, n_base)
    gap, margin = max(gaps), _shift_margin(Gam, order, ll)
    if not (gap <= SV_GAP_TOL and margin > gap):
        full = full_block_rows(order, M)
        if block_rows is None and i < full:
            _require_samples(N, full, mm, ll, order,
                             f"pattern depth {i} failed the shift check; ")
            i = full
            Gam, svs = _observability_estimate(u, y, i, order, M)
            margins, gaps = _phase_margins(svs, n_base)
            gap, margin = max(gaps), _shift_margin(Gam, order, ll)
        elif block_rows is not None and gap <= SV_GAP_TOL:
            raise RankConditionError(
                f"block_rows={i} is too short for these data: the shifted observability "
                f"estimate has margin {margin:.3g} <= SV gap {gap:.3g}, so it does not reach "
                f"rank {order}" + (f"; use block_rows={full}" if i < full else "")
            )

    A, *_ = np.linalg.lstsq(Gam[:-ll], Gam[ll:], rcond=None)
    a_offpattern = is_cyclic_matrix(A, n_base, n_base, M).max_offpattern
    A_phases = read_blocks(A, M, 1)
    A = place_blocks(A_phases, 1)
    C = Gam[:ll].copy()

    # x0, B, D jointly from the input-output equation; an overflowing A stops here.
    C_phases = read_blocks(C, M, 0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            Phi = io_regressor(A_phases, C_phases, u)
    except FloatingPointError as e:
        raise DivergentModelError(
            f"the identified A (spectral radius {np.abs(np.linalg.eigvals(A)).max():.3g}) "
            f"overflows the B/D/x0 regressor over {N} samples at block_rows={i}") from e
    # Phi's rows are the output samples, then zeros: the right-hand side too
    rows = regressor_rows(C_phases, N)
    rhs = np.zeros(Phi.shape[0])
    rhs[:rows.size] = y.reshape(-1)[rows]
    with blas_threads(Phi.shape[0] * Phi.shape[1] ** 2):
        theta, *_ = np.linalg.lstsq(Phi, rhs, rcond=None)
    # only the leading columns, x0 block 0, B's cyclic blocks and D's
    # diagonal blocks, hold data; a never-sampled output's D columns are
    # zero, and every entry of [x0, vec B, vec D] that no sample reaches is 0
    cols = regressor_columns(M, n_base, m_base, l_base)
    fitted = Phi[:rows.size, :cols.size].any(axis=0)
    full = np.zeros(Phi.shape[1])
    full[cols[fitted]] = theta[:cols.size][fitted]
    x0 = full[:order]
    B = full[order:order + order * mm].reshape((order, mm), order="F")
    D = full[order + order * mm:].reshape((ll, mm), order="F")

    return IdentifiedModel(
        A=A, B=B, C=C, D=D, n=n_base, m=m_base, l=l_base, M=M, x0=x0,
        block_rows=i, pattern_block_rows=pattern, shift_margin=margin,
        phase_rank_margins=margins, phase_gaps=gaps, a_offpattern=a_offpattern,
    )


def markov_match(H_true, H_id, depth, tol):
    """(passed, worst Frobenius error, index of the worst mismatch) over i <= depth."""
    if len(H_true) <= depth or len(H_id) <= depth:
        raise DimensionMismatchError(f"both sequences must cover depth {depth}")
    worst = 0.0
    worst_idx = 0
    for i in range(depth + 1):
        err = float(np.linalg.norm(H_true[i] - H_id[i]))
        if err > worst:
            worst, worst_idx = err, i
    return worst <= tol, worst, worst_idx
