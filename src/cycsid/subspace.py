"""Deterministic subspace identification on (possibly cycled) signals.

The realization follows the classical projection scheme: block-Hankel
matrices of input and output, an LQ factorization that projects future
outputs onto past data along future inputs, an SVD whose leading left
singular directions span the extended observability matrix, shift-invariance
least squares for the state matrix, and a final linear least squares over
the input-output equation for the input-side matrices and the initial state.
On noise-free data from a minimal system the result is exact up to round-off.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cyclic import CycledSignal
from .errors import (
    DimensionMismatchError,
    ExcitationDeficientError,
    InsufficientDataError,
)
from .kernels import io_regressor
from .numerics import rank_with_tol

#: the forced order counts as exposed when sv[order] / sv[order-1] is at most this
SV_GAP_TOL = 0.1


@dataclass(frozen=True)
class IdConfig:
    """Knobs for one identification run.

    block_rows None picks max(ceil(2*order/rows_y), 2n+2, order+1); the
    order+1 floor keeps the extended observability matrix full rank even
    when masking starves all but one cyclic output channel.
    """

    order: int
    block_rows: int | None = None


@dataclass
class IdentifiedModel:
    """State-space model of the forced order returned by identification."""

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


def build_block_hankel(signal, rows, cols, start=0):
    """(q*rows) x cols matrix with block entry (i, j) = signal[start+i+j]."""
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
    H = np.empty((q * rows, cols))
    for r in range(rows):
        H[r * q:(r + 1) * q, :] = signal[start + r:start + r + cols].T
    return H


def default_block_rows(order, rows_y, n):
    return max(math.ceil(2 * order / rows_y), 2 * n + 2, order + 1)


def _signal_array(sig):
    if isinstance(sig, CycledSignal):
        return sig.samples, sig.q, sig.M
    arr = np.asarray(sig, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr, arr.shape[1], 1


def subspace_identify(ucheck, ycheck, cfg):
    """Identify an order-cfg.order model from input/output data.

    Accepts CycledSignal values (their base dimension and period are kept
    on the result) or plain (N, channels) arrays treated as single-rate.
    Raises InsufficientDataError or ExcitationDeficientError when the data
    cannot support the factorization; a weak singular-value gap at the
    forced order is reported on the result, not raised.
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
    order = cfg.order
    n_base = order // M if order % M == 0 else order
    i = cfg.block_rows if cfg.block_rows is not None else default_block_rows(order, ll, n_base)
    if i <= order / ll + 1:
        raise ValueError(f"block_rows={i} too small to expose order {order} with {ll} output rows")
    if N < 2 * i * (mm + ll) + order:
        raise InsufficientDataError(
            f"need at least {2 * i * (mm + ll) + order} samples for block_rows={i}, got {N}"
        )

    j = N - 2 * i + 1
    U = build_block_hankel(u, 2 * i, j)
    Y = build_block_hankel(y, 2 * i, j)
    Up, Uf = U[:i * mm], U[i * mm:]
    Yp, Yf = Y[:i * ll], Y[i * ll:]

    # LQ of [Uf; Up; Yp; Yf]: row space of the lower-left blocks of Yf gives
    # the span of future outputs explained by past data after future inputs.
    stack = np.vstack([Uf, Up, Yp, Yf])
    L = np.linalg.qr(stack.T, mode="reduced")[1].T
    r_uf = i * mm
    r_past = r_uf + i * mm + i * ll

    if rank_with_tol(L[:2 * i * mm, :2 * i * mm], 1e-10) < 2 * i * mm:
        raise ExcitationDeficientError(
            f"input hankel rank below {2 * i * mm}; input is not persistently exciting"
        )

    proj = L[r_past:, r_uf:r_past]
    Uu, sv, _ = np.linalg.svd(proj, full_matrices=False)
    if sv.size > order and sv[order - 1] > 0:
        gap = float(sv[order] / sv[order - 1])
    else:
        gap = float("inf") if sv.size <= order or sv[order - 1] == 0 else 0.0
    exposed = gap <= SV_GAP_TOL

    Gam = Uu[:, :order] * np.sqrt(sv[:order])
    A, *_ = np.linalg.lstsq(Gam[:-ll], Gam[ll:], rcond=None)
    C = Gam[:ll].copy()

    # x0, B, D jointly from the input-output equation, linear least squares.
    Phi = io_regressor(A, C, u)
    theta, *_ = np.linalg.lstsq(Phi, y.reshape(-1), rcond=None)
    x0 = theta[:order]
    B = theta[order:order + order * mm].reshape((order, mm), order="F")
    D = theta[order + order * mm:].reshape((ll, mm), order="F")

    return IdentifiedModel(
        A=A, B=B, C=C, D=D, order=order,
        n=n_base, m=m_base, l=l_base, M=M,
        x0=x0, singular_values=sv, order_gap=gap, order_exposed=exposed,
        block_rows=i,
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
