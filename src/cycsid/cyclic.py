"""Cyclic reformulation machinery: signal cycling, the block-structured
time-invariant system, and structural predicates.

A "cyclic" block matrix carries its only nonzero blocks on the first block
subdiagonal plus the top-right corner; conjugation by the block shift
matrix rotates block-diagonal structure by one position.  The shift is a
block-index permutation here, never a matrix; tests/oracles.py holds the
paper's dense shift matrix that the tests compare against.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatchError
from .numerics import as_signal, rank_with_tol
from .statespace import StateSpace, ctrb, obsv

#: off-pattern tolerance for analytically constructed matrices
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class CycledSignal:
    """Length-Mq samples whose only nonzero block rotates with k mod M.  The
    channels per phase block, q, are the width of samples over M; a width
    that is not a multiple of M is a DimensionMismatchError."""

    samples: np.ndarray  # (N, M*q)
    M: int

    def __post_init__(self):
        if self.samples.shape[1] % self.M:
            raise DimensionMismatchError(f"a cycled signal of period {self.M} cannot be "
                                         f"{self.samples.shape[1]} channels wide")


def cycle_signal(raw, M):
    """Pack sample k into block k mod M of a length-Mq vector."""
    raw = as_signal(raw)
    if M < 1:
        raise ValueError("M must be positive")
    N, q = raw.shape
    out = np.zeros((N, M * q))
    k = np.arange(N)
    out.reshape(N, M, q)[k, k % M] = raw
    return CycledSignal(samples=out, M=M)


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


def cyclic_reformulate(ss, spec):
    """The M-fold cyclic reformulation of a plant under a multirate spec: a
    StateSpace of M x M block matrices, A and B cyclic, C and D block
    diagonal, whose period is spec.M.  Phase k's C and D blocks keep the
    rows of the outputs it samples and are +0.0 elsewhere, as V_k C and
    V_k D are."""
    spec.check_outputs(ss)
    M, kept = spec.M, spec.sampled[:, :, None] == 1
    return StateSpace(A=place_blocks([ss.A] * M, 1), B=place_blocks([ss.B] * M, 1),
                      C=place_blocks(np.where(kept, ss.C, 0.0), 0),
                      D=place_blocks(np.where(kept, ss.D, 0.0), 0))


@dataclass(frozen=True)
class StructureReport:
    """Evidence for one structural check; passed iff max_offpattern <= tol."""

    kind: str  # "block_diagonal" or "cyclic"
    max_offpattern: float
    passed: bool
    tol: float


def _offpattern(mat, M, offset):
    """Largest |entry| of an M x M block matrix outside the blocks (r, c) with
    r - c = offset mod M.  The block sizes are its shape over M, as in
    `read_blocks`; a shape that M does not divide is a DimensionMismatchError."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] % M or mat.shape[1] % M:
        raise DimensionMismatchError(f"expected {M} x {M} blocks, got shape {mat.shape}")
    if mat.size == 0:
        return 0.0
    peaks = np.abs(mat).reshape(M, mat.shape[0] // M, M, -1).max(axis=(1, 3))
    r, c = np.indices((M, M))
    return float(peaks[(r - c - offset) % M != 0].max(initial=0.0))


def _report(kind, worst, tol):
    return StructureReport(kind=kind, max_offpattern=worst, passed=worst <= tol, tol=tol)


def is_block_diagonal(mat, M, tol=EXACT_TOL):
    """All mass of the M x M block matrix mat outside its M diagonal blocks
    must be below tol."""
    return _report("block_diagonal", _offpattern(mat, M, 0), tol)


def is_cyclic_matrix(mat, M, tol=EXACT_TOL):
    """Only blocks (i+1 mod M, i) may carry mass (subdiagonal + corner)."""
    return _report("cyclic", _offpattern(mat, M, 1), tol)


@dataclass(frozen=True)
class StructureChecks:
    """Named structure checks; the verdict and the worst margin are read off
    the reports, so they cannot disagree with them."""

    reports: dict  # key -> StructureReport

    @property
    def passed(self):
        return all(r.passed for r in self.reports.values())

    @property
    def max_offpattern(self):
        return max((r.max_offpattern for r in self.reports.values()), default=0.0)

    def to_dict(self):
        return {k: asdict(r) for k, r in self.reports.items()}


def verify_markov_structure(H, M, tol, *, maxdepth):
    """Check S_l^i H(i+j) S_m^j block diagonal and S_l^i H(i+j) S_m^{j-1}
    cyclic for all i, j >= 0 with i + j <= maxdepth; one report per lag.

    Block (a, b) of S_l^i H S_m^j is block (a+i, b-j) of H, so with
    s = i + j both checks keep exactly the blocks (a, b) of H(s) with
    a - b = s mod M: one masked block maximum per lag s decides every
    (i, j) on it, and reports[s] holds it.  H must supply at least
    maxdepth+1 M x M block matrices; their block sizes are read from their
    shape.
    """
    if len(H) <= maxdepth:
        raise DimensionMismatchError(
            f"need {maxdepth + 1} Markov matrices, got {len(H)}"
        )
    return StructureChecks({s: _report("block_diagonal", _offpattern(H[s], M, s), tol)
                            for s in range(maxdepth + 1)})


def cycled_ranks(cs):
    """(rank of the controllability matrix, rank of the observability matrix)
    at horizon Mn."""
    return rank_with_tol(ctrb(cs)), rank_with_tol(obsv(cs))
