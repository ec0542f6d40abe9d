"""State coordinate transformation that turns an identified dense model back
into cyclic-reformulation shape, plus component extraction and validation.

The transform matrix is the identified model's reach sum (build_Y_check):
powers of its state matrix applied to input 1's columns, each rotated by a
power of the block shift and placed in the state column indexed by the
power mod n.  A shift power never becomes a matrix: it is an np.roll over
the M-block axis, and the unit selector is a column placement.  The
transformed model is checked once; its phase blocks keep that check as
evidence.
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
from .numerics import DEFAULT_RANK_TOL, invert, rank_with_tol
from .statespace import StateSpace, powers, tf_distance, transfer_functions


def lift_selector(block, M):
    """M-fold block-diagonal replication of one selector block."""
    return place_blocks([block] * M, 0)


def build_X_check(sys):
    """Observability aggregate of a cycled or identified system (any object
    with A, C, n, l, M): the sum of F_i S_l^j C A^(Mi+j) over i < n, j < M,
    where S_l^j moves row block a+j to row block a and F_i puts output 1 of
    every row block in row i of its state block.

    The inner j-sum pools every observed phase into one row block and the
    outer i-sum stacks it against powers of A^M, so the aggregate is block
    diagonal with rank Mn whenever the masked observability holds.  Pairing
    the row with j mod n instead collapses the rank when masking leaves one
    active phase per period.
    """
    n, l, M = sys.n, sys.l, sys.M
    order = M * n
    X = np.zeros((order, order))
    for p, P in enumerate(powers(sys.A, sys.C, order, right=True)):  # P = C A^p
        i, j = divmod(p, M)
        X.reshape(M, n, order)[:, i] += np.roll(P.reshape(M, l, order)[:, 0], -j, axis=0)
    return X


def build_Y_check(sys):
    """Controllability-side aggregate of a cycled or identified system (any
    object with A, B, n, m, M): the reach sum of A^p B S_m^(p%M + 1) G_(p mod n)
    over p < Mn, where S_m^s moves column block b-s to column block b and G_k
    puts input 1 of every column block in column k of its state block.  On
    an identified model it is the transform.

    Indexing the column by p mod n sweeps every state column as the power
    grows (an index of p mod M alone never reaches columns beyond M - 1 when
    M < n); each diagonal block then collects consecutive powers of A
    applied to input 1's reach vectors, so the aggregate has rank Mn for
    controllable plants.
    """
    n, m, M = sys.n, sys.m, sys.M
    order = M * n
    T = np.zeros((order, order))
    for p, P in enumerate(powers(sys.A, sys.B, order)):  # P = A^p B
        T.reshape(order, M, n)[:, :, p % n] += np.roll(P.reshape(order, M, m)[:, :, 0],
                                                        p % M + 1, axis=1)
    return T


@dataclass(frozen=True)
class TransformResult:
    matrix: np.ndarray
    rank: int
    cond: float

    @property
    def regular(self):
        return self.rank == len(self.matrix)


def build_transform(idm):
    """The coordinate transform build_Y_check(idm), returned with its
    numerical rank and condition number whether or not it is regular."""
    T = build_Y_check(idm)
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


def aggregate_diagnostics(idm, T, tol=IDENTIFIED_TOL):
    """Runtime evidence behind the transform's correctness argument.

    The observability aggregate of the identified model composed with T must be
    block diagonal and regular, and its product with the transformed state
    matrix must be cyclic.
    """
    n, M = idm.n, idm.M
    X = build_X_check(idm) @ T
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

    Raw on-pattern blocks are stored untouched.
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
        first = spec.sampled.argmax(axis=0)  # every sensor samples some phase
        C, D = (np.array([X[i][r] for r, i in enumerate(first)])
                for X in (self.C_phases, self.D_phases))
        return StateSpace(self.A_phases[0], self.B_phases[0], C, D)

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
