"""Multirate sensing layer: rate specs, the periodic 0/1 sampling table,
masked simulation, and the per-phase observability assumption check."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidRateError, RankDeficientAError
from .numerics import DEFAULT_RANK_TOL, as_matrix, convert, integer, rank_with_tol
from .statespace import SignalLog, powers, simulate


@dataclass(frozen=True)
class MultirateSpec:
    """Sensor rates M_1..M_l with period M = lcm and the (M, l) 0/1 table
    sampled: sampled[k, i] is 1 when sensor i reports at phase k.  Two specs
    are equal when their rates and offsets are."""

    rates: tuple
    offsets: tuple
    M: int
    sampled: np.ndarray = field(compare=False, repr=False)

    @property
    def l(self):
        return len(self.rates)

    @property
    def masks(self):
        """The paper's diagonal l x l masks V_0..V_{M-1}, one per phase."""
        return tuple(np.diag(row) for row in self.sampled)

    def pattern(self, N):
        """(N, l) 0/1 observation pattern over N steps."""
        return self.sampled[np.arange(N) % self.M]


def build_masks(rates, offsets=None):
    """MultirateSpec for the given sensor periods.

    Sensor i reports when (k - offset_i) mod rate_i == 0, with offset_i in
    [0, rate_i); offsets default to zero, which reproduces the V_0 = I
    convention of the worked examples.
    """
    rates = convert("rates", rates, _integers, "a list of integers")
    if len(rates) == 0:
        raise InvalidRateError("at least one rate is required")
    if any(r < 1 for r in rates):
        raise InvalidRateError(f"rates must be positive, got {rates}")
    offsets = ((0,) * len(rates) if offsets is None
               else convert("offsets", offsets, _integers, "a list of integers"))
    if len(offsets) != len(rates) or not all(0 <= o < r for o, r in zip(offsets, rates)):
        raise InvalidRateError(f"offsets {list(offsets)}: need one in [0, rate) per rate")
    M = math.lcm(*rates)
    sampled = (np.subtract.outer(np.arange(M), offsets) % rates == 0).astype(np.float64)
    return MultirateSpec(rates=rates, offsets=offsets, M=M, sampled=sampled)


def _integers(values):
    return tuple(integer(v) for v in values)


def simulate_multirate(ss, spec, u, x0=None):
    """Simulate with outputs masked by V_{k mod M}; unobserved entries are exact 0."""
    if spec.l != ss.l:
        raise DimensionMismatchError(
            f"spec has {spec.l} rates but the plant has {ss.l} outputs"
        )
    log = simulate(ss, u, x0)
    obs = spec.pattern(log.N)
    return SignalLog(u=log.u, y=log.y * obs, x0=log.x0, obs=obs, x=log.x)


def check_observability_assumption(ss, spec, tol=DEFAULT_RANK_TOL):
    """Phases j whose masked pair (V_j C, A^M) is observable at horizon n.

    An empty set means no sampling phase pins down the full state.  The
    observability matrix [C; C A^M; ...; C A^(M(n-1))] is built once; phase j
    keeps the rows of the outputs it samples (the 0/1 table is exact, so a
    kept row is bit-equal to the one V_j C would give), and one stacked SVD
    gives every phase's rank at rank_with_tol's relative cutoff.
    """
    n = ss.n
    if rank_with_tol(ss.A, tol) < n:
        raise RankDeficientAError("state matrix must have rank n for the multirate analysis")
    AM = np.linalg.matrix_power(ss.A, spec.M)
    obs = as_matrix(np.vstack(powers(AM, ss.C, n, right=True)),
                    "observability matrix")  # row k*l + i: C_i A^(Mk)
    keep = np.tile(spec.sampled, n)  # (M, n*l), the sampled rows of each phase
    sv = np.linalg.svd(obs * keep[:, :, None], compute_uv=False)  # (M, n), descending
    ranks = np.count_nonzero(sv > tol * sv[:, :1], axis=1)
    return {j for j in range(spec.M) if ranks[j] == n}
