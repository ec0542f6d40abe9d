"""Discrete-time LTI core: construction, simulation, Markov parameters,
controllability/observability matrices, transfer-function extraction.

Every linear model is a StateSpace, whose sizes are read from its
matrices: the plant, its cyclic reformulation, the identified model (a
subclass that adds the period and the evidence it was accepted on) and the
transformed model.  The operations here act on each of them unchanged.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DivergentPlantError
from .kernels import scan_trajectory
from .numerics import as_matrix, as_signal, as_vector


@dataclass(frozen=True)
class StateSpace:
    """x(k+1) = A x(k) + B u(k), y(k) = C x(k) + D u(k)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        C = as_matrix(self.C, "C")
        D = as_matrix(self.D, "D")
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if B.shape[0] != n:
            raise DimensionMismatchError(f"A is {A.shape} but B has {B.shape[0]} rows")
        if C.shape[1] != n:
            raise DimensionMismatchError(f"A is {A.shape} but C has {C.shape[1]} columns")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionMismatchError(
                f"D must be {C.shape[0]}x{B.shape[1]} to match C and B, got {D.shape}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def l(self):
        return self.C.shape[0]


def make_state_space(A, B, C, D):
    """Dimension-validated StateSpace from four matrix literals."""
    return StateSpace(A, B, C, D)


@dataclass
class SignalLog:
    """Input/output record of a simulation run or a signals file.

    u is (N, m), y is (N, l); obs is an (N, l) 0/1 array marking which
    output entries were actually observed (all ones for single-rate runs).
    States x are kept for testing only and are never serialized; the
    initial state is x[0] of a simulation and is not recorded otherwise.
    """

    u: np.ndarray
    y: np.ndarray
    obs: np.ndarray | None = None
    x: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.u = as_signal(self.u, "u")
        self.y = as_signal(self.y, "y")
        if self.u.shape[0] != self.y.shape[0] or self.u.shape[0] < 1:
            raise DimensionMismatchError(
                f"u and y must share a positive sample count, got {self.u.shape[0]} and {self.y.shape[0]}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.y))):
            raise DimensionMismatchError("signals contain non-finite entries")
        if self.obs is None:
            self.obs = np.ones_like(self.y)
        else:
            self.obs = np.asarray(self.obs, dtype=np.float64)
            if self.obs.shape != self.y.shape:
                raise DimensionMismatchError("obs mask must match y shape")

    @property
    def N(self):
        return self.u.shape[0]


def as_input_sequence(u, m):
    """Coerce a vector/array input record to shape (N, m)."""
    arr = as_signal(u, "input")
    if arr.shape[1] != m:
        raise DimensionMismatchError(f"input must be (N, {m}), got {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionMismatchError("input must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatchError("input contains non-finite entries")
    return arr


def simulate(sys, u, x0=None):
    """Simulate the recursion from x0 (zero when unspecified).

    A state that overflows float64 is a DivergentPlantError, with no warning.
    """
    u = as_input_sequence(u, sys.B.shape[1])
    n = sys.A.shape[0]
    x0 = np.zeros(n) if x0 is None else as_vector(x0, n, "x0")
    try:
        with np.errstate(over="raise", invalid="raise"):
            x, y = scan_trajectory(sys.A, sys.B, sys.C, sys.D, u, x0)
    except FloatingPointError as e:
        raise DivergentPlantError(
            f"the plant's A (spectral radius {np.abs(np.linalg.eigvals(sys.A)).max():.3g}) "
            f"overflows the simulation over N = {u.shape[0]} samples") from e
    return SignalLog(u=u, y=y, x=x)


def powers(A, X, count, right=False):
    """[X, A X, ..., A^(count-1) X], or [X, X A, ...] when right is set.

    The first term is a C-ordered copy of X and each later one the product
    of A with the term before it, so every term is C-ordered: the rounding
    of A @ P follows P's layout, and an F-ordered X (an identified B) gives
    the same terms as its C-ordered copy.
    """
    terms = [np.array(X, order="C")][:count]
    for _ in range(1, count):
        terms.append(terms[-1] @ A if right else A @ terms[-1])
    return terms


def markov(sys, count):
    """Impulse-response coefficients H(0)=D, H(i)=C A^{i-1} B, i >= 1."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return [sys.D.copy()] + [sys.C @ P for P in powers(sys.A, sys.B, count - 1)]


def ctrb(sys):
    """[B, AB, ..., A^{n-1}B] at the system's own state horizon."""
    return np.hstack(powers(sys.A, sys.B, sys.A.shape[0]))


def obsv(sys):
    """[C; CA; ...; CA^{n-1}] at the system's own state horizon."""
    return np.vstack(powers(sys.A, sys.C, sys.A.shape[0], right=True))


@dataclass(frozen=True)
class TransferFunction:
    """Polynomial pair in z, coefficients in descending degree, den monic."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = np.asarray(self.num, dtype=np.float64).reshape(-1)
        den = np.asarray(self.den, dtype=np.float64).reshape(-1)
        if den.size < 1 or den[0] == 0.0:
            raise DimensionMismatchError("denominator must have a nonzero leading coefficient")
        num = num / den[0]
        den = den / den[0]
        if num.size > den.size:
            raise DimensionMismatchError("numerator degree exceeds denominator degree")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)


def _leverrier(A):
    # Faddeev recursion: den coefficients plus adjugate matrices R_k with
    # (zI - A)^-1 = sum_k R_k z^{n-1-k} / den(z).
    n = A.shape[0]
    R = np.eye(n)
    den = np.empty(n + 1)
    den[0] = 1.0
    Rs = [R]
    for k in range(1, n + 1):
        W = A @ R
        den[k] = -np.trace(W) / k
        R = W + den[k] * np.eye(n)
        if k < n:
            Rs.append(R)
    return den, Rs


def transfer_functions(sys):
    """Per input/output SISO transfer functions of C(zI-A)^-1 B + D.

    Returns an l x m nested list of TransferFunction; exactly-zero leading
    numerator coefficients (D entries that are exactly 0) are trimmed.
    """
    den, Rs = _leverrier(sys.A)
    l, m = sys.C.shape[0], sys.B.shape[1]
    out = []
    for i in range(l):
        row = []
        for j in range(m):
            adj = np.array([sys.C[i] @ Rk @ sys.B[:, j] for Rk in Rs])
            num = sys.D[i, j] * den + np.concatenate([[0.0], adj])
            nz = np.nonzero(num)[0]
            num = num[nz[0]:] if nz.size else num[-1:]
            row.append(TransferFunction(num=num, den=den))
        out.append(row)
    return out


def _align(coeffs, width):
    return np.concatenate([np.zeros(width - coeffs.size), coeffs])


def tf_distance(p, q):
    """Max absolute coefficient difference over num and den, degree-aligned.

    Both transfer functions are already monic-normalized by construction;
    shorter polynomials are zero-padded at the high-degree end.
    """
    width_n = max(p.num.size, q.num.size)
    width_d = max(p.den.size, q.den.size)
    dn = np.abs(_align(p.num, width_n) - _align(q.num, width_n)).max()
    dd = np.abs(_align(p.den, width_d) - _align(q.den, width_d)).max()
    return float(max(dn, dd))
