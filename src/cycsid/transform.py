"""State coordinate transformation that turns an identified dense model back
into cyclic-reformulation shape, plus component extraction and validation.

The transform matrix is the identified model's reach sum (build_Y_check):
powers of its state matrix applied to its input matrix, each rotated by a
power of the block shift and mapped through the selector block indexed by
the power mod n.  A shift power never becomes a matrix: it is an np.roll
over the M-block axis, and a lifted (block-diagonal) selector is one product
per block.  The transformed model is checked once; its phase blocks keep
that check as evidence.
"""

from dataclasses import dataclass

import numpy as np

from .cyclic import (
    IDENTIFIED_TOL,
    StructureChecks,
    is_block_diagonal,
    is_cyclic_matrix,
    place_blocks,
    read_blocks,
)
from .errors import RankConditionError
from .numerics import DEFAULT_RANK_TOL, invert, rank_with_tol
from .statespace import StateSpace, tf_distance, transfer_functions

@dataclass(frozen=True)
class SelectorF:
    """n row-selector blocks F_0..F_{n-1}, each n x l; [F_0 ... F_{n-1}] has rank n."""

    blocks: tuple

    def __post_init__(self):
        if rank_with_tol(np.hstack(self.blocks)) < self.blocks[0].shape[0]:
            raise RankConditionError("stacked F blocks must have full row rank")


@dataclass(frozen=True)
class SelectorG:
    """n input-selector blocks G_0..G_{n-1}, each m x n; stacked rank n."""

    blocks: tuple

    def __post_init__(self):
        if rank_with_tol(np.vstack(self.blocks)) < self.blocks[0].shape[1]:
            raise RankConditionError("stacked G blocks must have full column rank")


def default_selector_F(n, l):
    """Unit selectors: block j carries a 1 at row j of its first column."""
    blocks = []
    for j in range(n):
        F = np.zeros((n, l))
        F[j, 0] = 1.0
        blocks.append(F)
    return SelectorF(blocks=tuple(blocks))


def default_selector_G(n, m):
    """Unit selectors: block j carries a 1 at column j of its first row."""
    blocks = []
    for j in range(n):
        G = np.zeros((m, n))
        G[0, j] = 1.0
        blocks.append(G)
    return SelectorG(blocks=tuple(blocks))


def lift_selector(block, M):
    """M-fold block-diagonal replication of one selector block."""
    return place_blocks([block] * M, 0)


def build_X_check(sys, F):
    """Selector-weighted observability aggregate of a cycled or identified
    system (any object with A, C, n, l, M).

    Sums lifted F_i * S_l^j * C * A^(Mi+j) over i < n, j < M: the inner
    j-sum pools every observed phase into one row block and the outer i-sum
    stacks it against powers of A^M, so the aggregate is block diagonal with
    rank Mn whenever the masked observability holds and the selector is well
    chosen.  Pairing the selector with j mod n instead collapses the rank
    when masking leaves one active phase per period.  S_l^j moves row block
    a+j to row block a, and the lifted F_i maps every row block through F_i.
    """
    n, l, M = sys.n, sys.l, sys.M
    order = M * n
    X = np.zeros((order, order))
    P = sys.C.copy()  # C A^p, advanced in p
    for p in range(order):
        i, j = divmod(p, M)
        X += (F.blocks[i] @ np.roll(P.reshape(M, l, order), -j, axis=0)).reshape(order, order)
        P = P @ sys.A
    return X


def build_Y_check(sys, G):
    """Controllability-side aggregate of a cycled or identified system (any
    object with A, B, n, m, M): the reach sum of A^p B S_m^(p%M + 1) lifted
    G_(p mod n) over p < Mn.  On an identified model it is the transform.

    S_m^s moves column block b-s to column block b, and the lifted G_k maps
    every column block through G_k.  Indexing the selector by p mod n sweeps
    every block as the power grows (an index of p mod M alone never reaches
    blocks beyond G_{M-1} when M < n); each diagonal block then collects
    consecutive powers of A applied to B, so the aggregate has rank Mn for
    controllable plants.
    """
    n, m, M = sys.n, sys.m, sys.M
    order = M * n
    T = np.zeros((order, order))
    P = sys.B.copy()  # A^p B, advanced in p; C order, as the rounding of A @ P follows its layout
    for p in range(order):
        shifted = np.roll(P.reshape(order, M, m), p % M + 1, axis=1)
        T += (shifted @ G.blocks[p % n]).reshape(order, order)
        P = sys.A @ P
    return T


@dataclass(frozen=True)
class TransformResult:
    matrix: np.ndarray
    rank: int
    cond: float

    @property
    def regular(self):
        return self.rank == len(self.matrix)


def build_transform(idm, G):
    """The coordinate transform build_Y_check(idm, G), returned with its
    numerical rank and condition number whether or not it is regular."""
    T = build_Y_check(idm, G)
    return TransformResult(matrix=T, rank=rank_with_tol(T), cond=float(np.linalg.cond(T)))


def apply_transform(idm, T, tol=DEFAULT_RANK_TOL):
    """(T^-1 A T, T^-1 B, C T, D); raises SingularMatrixError if T is not regular."""
    Ti = invert(T, tol)
    return Ti @ idm.A @ T, Ti @ idm.B, idm.C @ T, idm.D.copy()


def verify_cyclic_form(Am, Bm, Cm, Dm, n, m, l, M, tol=IDENTIFIED_TOL):
    """Check the four transformed matrices against the cyclic-reformulation
    pattern: dynamics and input cyclic, output and feedthrough block diagonal."""
    return StructureChecks({
        "A_cyclic": is_cyclic_matrix(Am, n, n, M, tol),
        "B_cyclic": is_cyclic_matrix(Bm, n, m, M, tol),
        "C_block_diagonal": is_block_diagonal(Cm, l, n, M, tol),
        "D_block_diagonal": is_block_diagonal(Dm, l, m, M, tol),
    })


def aggregate_diagnostics(idm, T, F, tol=IDENTIFIED_TOL):
    """Runtime evidence behind the transform's correctness argument.

    The selector aggregate of the identified model composed with T must be
    block diagonal and regular, and its product with the transformed state
    matrix must be cyclic.
    """
    n, M = idm.n, idm.M
    X = build_X_check(idm, F) @ T
    Am = np.linalg.solve(T, idm.A @ T)
    Z = X @ Am
    return {
        "selector_aggregate_blockdiag": is_block_diagonal(X, n, n, M, tol),
        "selector_aggregate_rank": rank_with_tol(X),
        "aggregate_dynamics_cyclic": is_cyclic_matrix(Z, n, n, M, tol),
    }


@dataclass
class CyclicModel:
    """Per-phase components read off a transformed model, plus evidence.

    Raw on-pattern blocks are stored untouched; assemble() gives the cleaned
    view with everything off-pattern forced to exact zero.
    """

    A_phases: list
    B_phases: list
    C_phases: list
    D_phases: list
    T: np.ndarray | None
    structure: StructureChecks
    n: int
    m: int
    l: int
    M: int
    source: object | None = None  # identified model the components came from

    def recovered_plant(self, spec):
        """The plant behind data sampled under the MultirateSpec spec: A and B
        from phase 0, output row r of C and D from the first phase sampling r."""
        first = [next(i for i, V in enumerate(spec.masks) if V[r, r]) for r in range(self.l)]
        C, D = (np.array([X[i][r] for r, i in enumerate(first)])
                for X in (self.C_phases, self.D_phases))
        return StateSpace(self.A_phases[0], self.B_phases[0], C, D)

    def assemble(self):
        """Rebuild (A, B, C, D) in exact cyclic-reformulation shape."""
        return (place_blocks(self.A_phases, 1), place_blocks(self.B_phases, 1),
                place_blocks(self.C_phases, 0), place_blocks(self.D_phases, 0))

    def component_spread(self):
        """Max pairwise deviation among the A phases and among the B phases."""
        devA = max(float(np.abs(Ai - self.A_phases[0]).max()) for Ai in self.A_phases)
        devB = max(float(np.abs(Bi - self.B_phases[0]).max()) for Bi in self.B_phases)
        return devA, devB


def extract_components(Am, Bm, Cm, Dm, n, m, l, M, structure, T=None):
    """Read the per-phase blocks out of a transformed model.

    Phase i of the dynamics and input sits at block (i+1 mod M, i); output
    and feedthrough phases sit on the diagonal.  structure, the
    verify_cyclic_form result already measured on them, is kept as evidence.
    """
    return CyclicModel(A_phases=list(read_blocks(Am, M, 1)), B_phases=list(read_blocks(Bm, M, 1)),
                       C_phases=list(read_blocks(Cm, M, 0)), D_phases=list(read_blocks(Dm, M, 0)),
                       T=T, structure=structure, n=n, m=m, l=l, M=M)


def model_transfer_check(cm, reference, spec, tol):
    """Compare the transfer functions of cm.recovered_plant(spec) with a reference plant.

    Returns (passed, distances) with one tf_distance per output/input pair.
    """
    got = transfer_functions(cm.recovered_plant(spec))
    want = transfer_functions(reference)
    distances = np.array([
        [tf_distance(want[i][j], got[i][j]) for j in range(reference.m)]
        for i in range(reference.l)
    ])
    return bool(np.all(distances <= tol)), distances
