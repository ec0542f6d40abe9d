"""Cyclic reformulation machinery: shift matrices, signal cycling, the
block-structured time-invariant system, and structural predicates.

A "cyclic" block matrix carries its only nonzero blocks on the first block
subdiagonal plus the top-right corner; conjugation by the shift matrix
rotates block-diagonal structure by one position.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, MalformedCycledSignalError
from .numerics import DEFAULT_RANK_TOL, rank_with_tol
from .statespace import ctrb, obsv

#: off-pattern tolerance for analytically constructed matrices
EXACT_TOL = 1e-12
#: off-pattern tolerance for models produced by identification
IDENTIFIED_TOL = 1e-6


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


@dataclass(frozen=True)
class CycledSignal:
    """Length-Mq samples whose only nonzero block rotates with k mod M."""

    samples: np.ndarray  # (N, M*q)
    q: int
    M: int

    @property
    def N(self):
        return self.samples.shape[0]


def cycle_signal(raw, M):
    """Pack sample k into block k mod M of a length-Mq vector."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 1:
        raw = raw.reshape(-1, 1)
    if raw.ndim != 2:
        raise DimensionMismatchError("signal must be (N, q)")
    if M < 1:
        raise ValueError("M must be positive")
    N, q = raw.shape
    out = np.zeros((N, M * q))
    phases = np.arange(N) % M
    for p in range(M):
        rows = phases == p
        out[rows, p * q:(p + 1) * q] = raw[rows]
    return CycledSignal(samples=out, q=q, M=M)


def uncycle_signal(c, tol=EXACT_TOL):
    """Extract block k mod M of sample k; inverse of cycle_signal."""
    N = c.N
    q, M = c.q, c.M
    out = np.empty((N, q))
    mask = np.ones((N, M * q), dtype=bool)
    phases = np.arange(N) % M
    for p in range(M):
        rows = phases == p
        out[rows] = c.samples[rows, p * q:(p + 1) * q]
        mask[rows, p * q:(p + 1) * q] = False
    stray = np.abs(c.samples[mask]).max() if M > 1 else 0.0
    if stray > tol:
        raise MalformedCycledSignalError(
            f"off-position mass {stray:g} exceeds tolerance {tol:g}"
        )
    return out


@dataclass(frozen=True)
class CycledSystem:
    """M-fold cyclic reformulation; A/B cyclic, C/D block diagonal."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    n: int
    m: int
    l: int
    M: int


def cyclic_reformulate(ss, spec):
    """Build the cycled system for a plant under a multirate spec."""
    if spec.l != ss.l:
        raise DimensionMismatchError(
            f"spec has {spec.l} rates but the plant has {ss.l} outputs"
        )
    n, m, l, M = ss.n, ss.m, ss.l, spec.M
    Ac = np.zeros((M * n, M * n))
    Bc = np.zeros((M * n, M * m))
    Cc = np.zeros((M * l, M * n))
    Dc = np.zeros((M * l, M * m))
    for i in range(M):
        r = (i + 1) % M
        Ac[r * n:(r + 1) * n, i * n:(i + 1) * n] = ss.A
        Bc[r * n:(r + 1) * n, i * m:(i + 1) * m] = ss.B
        Cc[i * l:(i + 1) * l, i * n:(i + 1) * n] = spec.masks[i] @ ss.C
        Dc[i * l:(i + 1) * l, i * m:(i + 1) * m] = spec.masks[i] @ ss.D
    return CycledSystem(A=Ac, B=Bc, C=Cc, D=Dc, n=n, m=m, l=l, M=M)


def cycled_initial_state(x0, M):
    """Mn-vector with x0 in block 0 and zeros elsewhere."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    out = np.zeros(M * x0.size)
    out[:x0.size] = x0
    return out


@dataclass(frozen=True)
class StructureReport:
    """Evidence for one structural check; passed iff max_offpattern <= tol."""

    kind: str  # "block_diagonal" or "cyclic"
    max_offpattern: float
    passed: bool
    tol: float


def _offpattern(mat, block_rows, block_cols, M, offset):
    """Largest |entry| outside the blocks (r, c) with r - c = offset mod M."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape != (M * block_rows, M * block_cols):
        raise DimensionMismatchError(
            f"expected {(M * block_rows, M * block_cols)}, got {mat.shape}"
        )
    if mat.size == 0:
        return 0.0
    peaks = np.abs(mat).reshape(M, block_rows, M, block_cols).max(axis=(1, 3))
    r, c = np.indices((M, M))
    return float(peaks[(r - c - offset) % M != 0].max(initial=0.0))


def _report(kind, worst, tol):
    return StructureReport(kind=kind, max_offpattern=worst, passed=worst <= tol, tol=tol)


def is_block_diagonal(mat, block_rows, block_cols, M, tol=EXACT_TOL):
    """All mass outside the M diagonal blocks must be below tol."""
    return _report("block_diagonal", _offpattern(mat, block_rows, block_cols, M, 0), tol)


def is_cyclic_matrix(mat, block_rows, block_cols, M, tol=EXACT_TOL):
    """Only blocks (i+1 mod M, i) may carry mass (subdiagonal + corner)."""
    return _report("cyclic", _offpattern(mat, block_rows, block_cols, M, 1), tol)


@dataclass
class MarkovStructureReport:
    """Aggregate of the shift-adjusted Markov-parameter structure checks."""

    items: dict  # (i, j) -> {"diagonal": StructureReport, "cyclic": StructureReport|None}
    passed: bool
    max_offpattern: float
    tol: float
    maxdepth: int

    def failing(self):
        out = []
        for key, reports in self.items.items():
            for name, rep in reports.items():
                if rep is not None and not rep.passed:
                    out.append((key, name, rep.max_offpattern))
        return out


def verify_markov_structure(H, l, m, M, tol=EXACT_TOL, maxdepth=None):
    """Check S_l^i H(i+j) S_m^j block diagonal and S_l^i H(i+j) S_m^{j-1}
    cyclic for all i, j >= 0 with i + j <= maxdepth.

    Block (a, b) of S_l^i H S_m^j is block (a+i, b-j) of H, so with
    s = i + j both checks keep exactly the blocks (a, b) of H(s) with
    a - b = s mod M: one masked block maximum per lag decides every (i, j)
    on it.  H must supply at least maxdepth+1 matrices of size Ml x Mm.
    """
    if maxdepth is None:
        maxdepth = len(H) - 1
    if len(H) <= maxdepth:
        raise DimensionMismatchError(
            f"need {maxdepth + 1} Markov matrices, got {len(H)}"
        )
    off = [_offpattern(H[s], l, m, M, s) for s in range(maxdepth + 1)]
    items = {}
    for i in range(maxdepth + 1):
        for j in range(maxdepth + 1 - i):
            items[(i, j)] = {"diagonal": _report("block_diagonal", off[i + j], tol),
                             "cyclic": _report("cyclic", off[i + j], tol) if j >= 1 else None}
    worst = max(off)
    return MarkovStructureReport(items=items, passed=worst <= tol, max_offpattern=worst,
                                 tol=tol, maxdepth=maxdepth)


def cycled_ranks(cs, tol=DEFAULT_RANK_TOL):
    """(rank of the controllability matrix, rank of the observability matrix)
    at horizon Mn."""
    return rank_with_tol(ctrb(cs), tol), rank_with_tol(obsv(cs), tol)
