"""Cyclic reformulation machinery: shift matrices, signal cycling, the
block-structured time-invariant system, and structural predicates.

A "cyclic" block matrix carries its only nonzero blocks on the first block
subdiagonal plus the top-right corner; conjugation by the shift matrix
rotates block-diagonal structure by one position.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatchError
from .numerics import DEFAULT_RANK_TOL, as_signal, rank_with_tol
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


def cycle_signal(raw, M):
    """Pack sample k into block k mod M of a length-Mq vector."""
    raw = as_signal(raw)
    if M < 1:
        raise ValueError("M must be positive")
    N, q = raw.shape
    out = np.zeros((N, M * q))
    k = np.arange(N)
    out.reshape(N, M, q)[k, k % M] = raw
    return CycledSignal(samples=out, q=q, M=M)


def _pattern_index(M, off):
    """Index into mat.reshape(M, r, M, c) selecting blocks (i+off mod M, i), i < M."""
    i = np.arange(M)
    return (i + off) % M, slice(None), i, slice(None)


def place_blocks(blocks, off):
    """M x M block matrix with blocks[i] at block (i+off mod M, i), zero elsewhere.

    off = 1 gives the cyclic pattern (subdiagonal plus top-right corner),
    off = 0 the block diagonal.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    M, r, c = blocks.shape
    out = np.zeros((M * r, M * c))
    out.reshape(M, r, M, c)[_pattern_index(M, off)] = blocks
    return out


def read_blocks(mat, M, off):
    """Blocks (i+off mod M, i) of an M x M block matrix, stacked as (M, r, c)."""
    rows, cols = mat.shape
    return mat.reshape(M, rows // M, M, cols // M)[_pattern_index(M, off)]


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
    M = spec.M
    return CycledSystem(A=place_blocks([ss.A] * M, 1), B=place_blocks([ss.B] * M, 1),
                        C=place_blocks([mask @ ss.C for mask in spec.masks], 0),
                        D=place_blocks([mask @ ss.D for mask in spec.masks], 0),
                        n=ss.n, m=ss.m, l=ss.l, M=M)


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


@dataclass(frozen=True)
class StructureChecks:
    """Named structure checks; the verdict, the worst margin and the failing
    checks are read off the reports, so they cannot disagree with them."""

    reports: dict  # key -> StructureReport

    @property
    def passed(self):
        return all(r.passed for r in self.reports.values())

    @property
    def max_offpattern(self):
        return max((r.max_offpattern for r in self.reports.values()), default=0.0)

    def failing(self):
        """(key, max_offpattern) of every check that did not pass."""
        return [(k, r.max_offpattern) for k, r in self.reports.items() if not r.passed]

    def to_dict(self):
        return {k: asdict(r) for k, r in self.reports.items()}


def verify_markov_structure(H, l, m, M, tol=EXACT_TOL, *, maxdepth):
    """Check S_l^i H(i+j) S_m^j block diagonal and S_l^i H(i+j) S_m^{j-1}
    cyclic for all i, j >= 0 with i + j <= maxdepth; one report per lag.

    Block (a, b) of S_l^i H S_m^j is block (a+i, b-j) of H, so with
    s = i + j both checks keep exactly the blocks (a, b) of H(s) with
    a - b = s mod M: one masked block maximum per lag s decides every
    (i, j) on it, and reports[s] holds it.  H must supply at least
    maxdepth+1 matrices of size Ml x Mm.
    """
    if len(H) <= maxdepth:
        raise DimensionMismatchError(
            f"need {maxdepth + 1} Markov matrices, got {len(H)}"
        )
    return StructureChecks({s: _report("block_diagonal", _offpattern(H[s], l, m, M, s), tol)
                            for s in range(maxdepth + 1)})


def cycled_ranks(cs, tol=DEFAULT_RANK_TOL):
    """(rank of the controllability matrix, rank of the observability matrix)
    at horizon Mn."""
    return rank_with_tol(ctrb(cs), tol), rank_with_tol(obsv(cs), tol)
