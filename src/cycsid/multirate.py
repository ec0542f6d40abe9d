"""Multirate sensing layer: rate specs, the periodic 0/1 sampling table,
masked simulation, and the per-phase observability assumption check."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRateError, RankDeficientAError
from .numerics import DEFAULT_RANK_TOL, as_matrix, check_budget, convert, integer, rank_with_tol
from .statespace import powers, simulate


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

    def pattern(self, N):
        """(N, l) 0/1 observation pattern over N steps."""
        return self.sampled[np.arange(N) % self.M]

    def check_outputs(self, plant):
        """Raise InvalidRateError unless plant has one output per rate."""
        if plant.l != self.l:
            raise InvalidRateError(f"{self.l} rates for a plant with {plant.l} outputs")


def build_masks(rates, offsets=None):
    """MultirateSpec for the given sensor periods.

    Sensor i reports when (k - offset_i) mod rate_i == 0, with offset_i in
    [0, rate_i); offsets default to zero, which reproduces the V_0 = I
    convention of the worked examples.  The (M, l) table is sized against
    the memory budget before it is built, so a period too long to tabulate
    is a MemoryBudgetError (a ValueError) naming it.
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
    check_budget(f"sampling table of period {M}", (M, len(rates)))
    sampled = np.zeros((M, len(rates)))
    for i, (rate, offset) in enumerate(zip(rates, offsets)):
        sampled[offset::rate, i] = 1.0
    return MultirateSpec(rates=rates, offsets=offsets, M=M, sampled=sampled)


def _integers(values):
    return tuple(integer(v) for v in values)


def simulate_multirate(ss, spec, u, x0=None):
    """Simulate with outputs masked by V_{k mod M}; unobserved entries are exact 0."""
    spec.check_outputs(ss)
    log = simulate(ss, u, x0)
    log.obs = spec.pattern(log.N)
    log.y *= log.obs
    return log


def check_observability_assumption(ss, spec):
    """Phases j whose masked pair (V_j C, A^M) is observable at horizon n.

    An empty set means no sampling phase pins down the full state.  The
    observability matrix [C; C A^M; ...; C A^(M(n-1))] is built once; phase j
    keeps the rows of the outputs it samples (the 0/1 table is exact, so a
    kept row is bit-equal to the one V_j C would give), and one stacked SVD
    gives every phase's rank at rank_with_tol's relative cutoff.
    """
    spec.check_outputs(ss)
    n = ss.n
    if rank_with_tol(ss.A) < n:
        raise RankDeficientAError("state matrix must have rank n for the multirate analysis")
    AM = np.linalg.matrix_power(ss.A, spec.M)
    obs = as_matrix(np.vstack(powers(AM, ss.C, n, right=True)),
                    "observability matrix")  # row k*l + i: C_i A^(Mk)
    keep = np.tile(spec.sampled, n)  # (M, n*l), the sampled rows of each phase
    sv = np.linalg.svd(obs * keep[:, :, None], compute_uv=False)  # (M, n), descending
    ranks = np.count_nonzero(sv > DEFAULT_RANK_TOL * sv[:, :1], axis=1)
    return {j for j in range(spec.M) if ranks[j] == n}
