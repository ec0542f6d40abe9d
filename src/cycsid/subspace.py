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
"""

from dataclasses import dataclass, field

import numpy as np

from .cyclic import CycledSignal
from .errors import (
    DimensionMismatchError,
    DivergentModelError,
    ExcitationDeficientError,
    InsufficientDataError,
    RankConditionError,
)
from .kernels import io_regressor
from .numerics import rank_with_tol

#: the forced order counts as exposed when sv[order] / sv[order-1] is at most this
SV_GAP_TOL = 0.1


@dataclass
class IdentifiedModel:
    """State-space model of the forced order returned by identification.

    block_rows is the Hankel depth used, pattern_block_rows the depth the
    sampling pattern chose (they differ after a fallback or an explicit
    depth), and shift_margin sigma_min/sigma_max of the shifted observability
    estimate at the depth used (None when not recorded).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    order: int
    n: int
    m: int
    l: int
    M: int
    x0: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    order_gap: float = 0.0
    order_exposed: bool = True
    block_rows: int = 0
    pattern_block_rows: int = 0
    shift_margin: float | None = None

    def __post_init__(self):
        if self.A.shape != (self.order, self.order):
            raise DimensionMismatchError("A must be order x order")
        if (self.B.shape != (self.order, self.M * self.m)
                or self.C.shape != (self.M * self.l, self.order)
                or self.D.shape != (self.M * self.l, self.M * self.m)):
            raise DimensionMismatchError(
                "B/C/D shapes inconsistent with the declared (n, m, l, M)"
            )
        if not all(np.all(np.isfinite(X)) for X in (self.A, self.B, self.C, self.D)):
            raise DimensionMismatchError("identified matrices contain non-finite entries")

    def depth_evidence(self):
        """{used, pattern, shift_margin}: the depth record kept in reports and model files."""
        return {"used": self.block_rows, "pattern": self.pattern_block_rows,
                "shift_margin": self.shift_margin}


def build_block_hankel(signal, rows, cols, start=0, out=None):
    """(q*rows) x cols matrix with block entry (i, j) = signal[start+i+j],
    written into out when given."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal.reshape(-1, 1)
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


def _base_order(order, M):
    return order // M if order % M == 0 else order


def full_block_rows(order, M):
    """max(2n + 2, order + 1): a depth that needs no pattern count.  Under the
    observability assumption every phase reaches an observable phase within
    M - 1 steps and then takes n samples spaced M apart, so the shifted
    observability matrix of order block rows has full column rank."""
    return max(2 * _base_order(order, M) + 2, order + 1)


def default_block_rows(order, seen):
    """max(2n + 2, min(order + 1, h + 1)), h the fewest block rows whose every
    window samples at least 2n output rows (seen from `sampled_rows`)."""
    n = _base_order(order, len(seen))
    h = _shortest_cover(seen, 2 * n, order - 1)
    return max(2 * n + 2, order + 1 if h is None else h + 1)


def _signal_array(sig):
    if isinstance(sig, CycledSignal):
        return sig.samples, sig.q, sig.M
    arr = np.asarray(sig, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr, arr.shape[1], 1


def _observability_estimate(u, y, i, order):
    """(Gam, sv): the order-`order` extended observability estimate from
    block-Hankel data with i block rows, and the singular values it came from.

    The Hankel blocks, their LQ factor and the SVD factors are locals here,
    so they are freed before the caller builds the much larger B/D/x0
    regressor.
    """
    N, mm = u.shape
    ll = y.shape[1]
    j = N - 2 * i + 1
    r_uf = i * mm
    r_past = r_uf + i * mm + i * ll

    # LQ of [Uf; Up; Yp; Yf]: row space of the lower-left blocks of Yf gives
    # the span of future outputs explained by past data after future inputs.
    # The Hankel blocks are written straight into the stack.  Only L is used,
    # so mode "r" skips forming the j-row orthogonal factor; it runs the same
    # Householder QR, so L is the same to the bit.
    stack = np.empty((r_past + i * ll, j))
    build_block_hankel(u, i, j, start=i, out=stack[:r_uf])
    build_block_hankel(u, i, j, out=stack[r_uf:2 * r_uf])
    build_block_hankel(y, i, j, out=stack[2 * r_uf:r_past])
    build_block_hankel(y, i, j, start=i, out=stack[r_past:])
    L = np.linalg.qr(stack.T, mode="r").T

    if rank_with_tol(L[:2 * i * mm, :2 * i * mm], 1e-10) < 2 * i * mm:
        raise ExcitationDeficientError(
            f"input hankel rank below {2 * i * mm}; input is not persistently exciting"
        )

    proj = L[r_past:, r_uf:r_past]
    Uu, sv, _ = np.linalg.svd(proj, full_matrices=False)
    return Uu[:, :order] * np.sqrt(sv[:order]), sv


def _require_samples(N, i, mm, ll, order, why=""):
    need = 2 * i * (mm + ll) + order
    if N < need:
        raise InsufficientDataError(
            f"{why}need at least {need} samples for block_rows={i}, got {N}")


def _gap_and_margin(Gam, sv, order, ll):
    """(gap, margin): sv[order]/sv[order-1], and sigma_min/sigma_max of the
    shifted estimate Gam[:-ll], which has full column rank exactly when the
    depth is long enough for the shift-invariance fit."""
    if sv.size > order and sv[order - 1] > 0:
        gap = float(sv[order] / sv[order - 1])
    else:
        gap = float("inf") if sv.size <= order or sv[order - 1] == 0 else 0.0
    s = np.linalg.svd(Gam[:-ll], compute_uv=False)
    margin = float(s[order - 1] / s[0]) if s.size >= order and s[0] > 0 else 0.0
    return gap, margin


def subspace_identify(ucheck, ycheck, order, block_rows=None):
    """Identify an order-`order` model from input/output data.

    Accepts CycledSignal values (their base dimension and period are kept
    on the result) or plain (N, channels) arrays treated as single-rate.

    The depth i (block rows) follows the sampling pattern.  seen[p] counts
    the output rows of phase block p that carry a nonzero sample (for a
    plain array M = 1 and these are the nonzero columns), and cover(h) is
    the fewest sampled rows in any h consecutive block rows.  With
    n = order // M:

    - block_rows None picks max(2n + 2, min(order + 1, h + 1)), h the fewest
      block rows with cover(h) >= 2n;
    - any depth needs cover(i - 1) >= n, without which the shifted
      observability matrix cannot reach rank `order`; a shorter one raises
      ValueError naming the smallest depth that passes;
    - a depth is accepted when the data expose the order (SV gap
      sv[order]/sv[order-1] <= SV_GAP_TOL) and the shifted estimate's
      sigma_min/sigma_max exceeds that gap.  A default depth that fails is
      replaced once by max(2n + 2, order + 1), which needs no pattern count
      (see `full_block_rows`); an explicit block_rows that fails while the
      order is exposed raises RankConditionError.

    Raises InsufficientDataError or ExcitationDeficientError when the data
    cannot support the factorization, and DivergentModelError when the
    fitted A overflows the B/D/x0 regressor; a weak singular-value gap at
    the forced order is reported on the result, not raised.
    """
    u, m_base, M = _signal_array(ucheck)
    y, l_base, My = _signal_array(ycheck)
    if My != M:
        raise DimensionMismatchError(f"input period {M} != output period {My}")
    if u.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"signals must share length, got {u.shape[0]} and {y.shape[0]}"
        )
    N = u.shape[0]
    mm = u.shape[1]
    ll = y.shape[1]
    n_base = _base_order(order, M)
    seen = sampled_rows(y, M)
    pattern = default_block_rows(order, seen)
    i = pattern if block_rows is None else block_rows
    covered = pattern_cover(seen, i - 1)
    if covered < n_base:
        shortest = _shortest_cover(seen, n_base, M * n_base)
        advice = ("no output row carries a sample" if shortest is None
                  else f"use block_rows >= {shortest + 1}")
        raise ValueError(
            f"block_rows={i} too small to expose order {order}: some {i - 1} consecutive "
            f"block rows sample {covered} output rows, fewer than n = {n_base}; {advice}"
        )
    _require_samples(N, i, mm, ll, order)

    Gam, sv = _observability_estimate(u, y, i, order)
    gap, margin = _gap_and_margin(Gam, sv, order, ll)
    if not (gap <= SV_GAP_TOL and margin > gap):
        full = full_block_rows(order, M)
        if block_rows is None and i < full:
            _require_samples(N, full, mm, ll, order,
                             f"pattern depth {i} failed the shift check; ")
            i = full
            Gam, sv = _observability_estimate(u, y, i, order)
            gap, margin = _gap_and_margin(Gam, sv, order, ll)
        elif block_rows is not None and gap <= SV_GAP_TOL:
            raise RankConditionError(
                f"block_rows={i} is too short for these data: the shifted observability "
                f"estimate has margin {margin:.3g} <= SV gap {gap:.3g}, so it does not reach "
                f"rank {order}" + (f"; use block_rows={full}" if i < full else "")
            )
    exposed = gap <= SV_GAP_TOL

    A, *_ = np.linalg.lstsq(Gam[:-ll], Gam[ll:], rcond=None)
    C = Gam[:ll].copy()

    # x0, B, D jointly from the input-output equation; an overflowing A stops here.
    try:
        with np.errstate(over="raise", invalid="raise"):
            Phi = io_regressor(A, C, u)
    except FloatingPointError as e:
        raise DivergentModelError(
            f"the identified A (spectral radius {np.abs(np.linalg.eigvals(A)).max():.3g}) "
            f"overflows the B/D/x0 regressor over {N} samples at block_rows={i}") from e
    theta, *_ = np.linalg.lstsq(Phi, y.reshape(-1), rcond=None)
    x0 = theta[:order]
    B = theta[order:order + order * mm].reshape((order, mm), order="F")
    D = theta[order + order * mm:].reshape((ll, mm), order="F")

    return IdentifiedModel(
        A=A, B=B, C=C, D=D, order=order,
        n=n_base, m=m_base, l=l_base, M=M,
        x0=x0, singular_values=sv, order_gap=gap, order_exposed=exposed,
        block_rows=i, pattern_block_rows=pattern, shift_margin=margin,
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
