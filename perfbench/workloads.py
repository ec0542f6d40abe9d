"""Benchmark workloads and the correctness check applied to every identification.

Each workload turns the benchmark seed into a list of `Case`s: a public
`cycsid.ExperimentConfig` plus the reference plant the benchmark checks the
result against.  The program sees only the configs; the reference plant and
the tolerances below belong to the benchmark, so a change inside `cycsid`
cannot loosen them.
"""

import math
from dataclasses import dataclass

import numpy as np

import cycsid

#: Structure and noise-free accuracy gate (the ROADMAP's acceptance floor).
TOL = 1e-6
#: On noisy data the phase-0 TF coefficients may deviate from the plant's by at
#: most this multiple of the output-noise amplitude.  The first input of
#: noisy_m6 under seeds 1..40 stays below 2.6e-3, a quarter of the amplitude;
#: 1.0 leaves headroom without letting a wrong model pass.
NOISY_TF_GAIN = 1.0

#: Third-order, one-input, two-output plant of the paper's worked examples.
PAPER_PLANT = (
    [[0.0, 0.0, 0.8], [1.0, 0.0, 0.5], [0.0, 1.0, -0.4]],
    [[1.0], [0.0], [0.0]],
    [[1.0, 0.5, 0.3], [0.1, 0.3, 0.7]],
    [[0.0], [0.0]],
)

#: (n, rates, with_d) of the 20 plants the test suite's corpus draws with its
#: fixed seed (tests/conftest.py).  Freezing the shapes keeps the mix of
#: periods M in {1, 2, 3, 6}, and so the cost of one pass, the same for every
#: benchmark seed; the seed draws fresh matrices and inputs.
CORPUS_SHAPES = (
    (3, (2, 3), True), (1, (3, 2), True), (3, (3, 3), False), (1, (1, 1), False),
    (1, (3, 2), False), (2, (2, 2), True), (3, (1, 1), False), (3, (3, 2), True),
    (2, (3,), True), (1, (1,), False), (1, (1,), False), (2, (1,), False),
    (1, (3,), True), (1, (3, 3), False), (2, (2,), False), (2, (1, 2), False),
    (1, (1,), True), (1, (1,), False), (2, (3, 3), False), (1, (3,), False),
)

#: Distinct inputs a single-plant workload cycles through.
POOL = 4


@dataclass(frozen=True)
class Case:
    """One identification: the config handed to the program and its reference."""

    cfg: cycsid.ExperimentConfig
    reference: cycsid.StateSpace
    noise: float = 0.0

    @property
    def order(self):
        return math.lcm(*self.cfg.rates) * self.reference.n


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # seed -> list[Case]
    #: fresh processes an untraced run is split over; each times one cold
    #: identification and then its share of the warm loop
    processes: int
    #: stop warm loops only at the end of a pass over the cases, so every run
    #: times the same mix of plants
    whole_passes: bool = False


def _input_seeds(seed, count):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _paper_cases(rates, noise, seed):
    plant = cycsid.make_state_space(*PAPER_PLANT)
    return [
        Case(cfg=cycsid.ExperimentConfig(
                plant=plant, rates=rates, N=3000, noise=noise,
                input={"kind": "uniform", "amplitude": 1.0, "seed": s}),
             reference=plant, noise=noise)
        for s in _input_seeds(seed, POOL)
    ]


def random_plant(rng, n, l, with_d=False):
    """Random controllable/observable plant with spectral radius 0.9 and rank-n A
    (the test suite's corpus recipe)."""
    while True:
        A = rng.normal(size=(n, n))
        radius = np.abs(np.linalg.eigvals(A)).max()
        if radius < 1e-6:
            continue
        A *= 0.9 / radius
        B = rng.normal(size=(n, 1))
        C = rng.normal(size=(l, n))
        D = 0.5 * rng.normal(size=(l, 1)) if with_d else np.zeros((l, 1))
        ss = cycsid.make_state_space(A, B, C, D)
        if (np.linalg.matrix_rank(cycsid.ctrb(ss)) == n
                and np.linalg.matrix_rank(cycsid.obsv(ss)) == n
                and np.linalg.matrix_rank(A) == n):
            return ss


def _corpus_cases(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for n, rates, with_d in CORPUS_SHAPES:
        while True:
            ss = random_plant(rng, n, len(rates), with_d)
            if cycsid.check_observability_assumption(ss, cycsid.build_masks(rates)):
                break
        cfg = cycsid.ExperimentConfig(
            plant=ss, rates=rates, N=2000,
            input={"kind": "uniform", "amplitude": 1.0, "seed": int(rng.integers(0, 2**31))})
        cases.append(Case(cfg=cfg, reference=ss))
    return cases


WORKLOADS = {w.name: w for w in (
    Workload("paper_m6",
             "paper plant at rates (2,3), M=6, N=3000, no noise: the headline study; "
             "B/D/x0 fit, LQ and Markov structure check dominate",
             lambda seed: _paper_cases((2, 3), 0.0, seed), processes=5),
    Workload("wide_m12",
             "same plant at rates (3,4), M=12, N=3000: the M-scaling axis, 12-fold "
             "inflated data, ~1 GB peak memory and M^2 block loops",
             lambda seed: _paper_cases((3, 4), 0.0, seed), processes=1),
    Workload("corpus_small",
             "20 random plants, n<=3, l<=2, M in {1,2,3,6}, N=2000: small M bypasses "
             "M-scaling work; per-sample Python loops weigh more",
             _corpus_cases, processes=5, whole_passes=True),
    Workload("noisy_m6",
             "paper_m6 with output noise 1e-2: full-rank data uses LQ and SVD "
             "differently and shows accuracy traded for speed",
             lambda seed: _paper_cases((2, 3), 1e-2, seed), processes=5),
)}


def _tf_coefficients(A, b, c, d):
    """(num, den) of c (zI - A)^-1 b + d via det(zI - A + b c) - det(zI - A),
    computed with numpy only so the check does not reuse the program's
    Leverrier-Faddeev code."""
    den = np.poly(A)
    num = np.poly(A - np.outer(b, c)) - den + d * den
    return num, den


def tf_error(phase0, reference):
    """Worst TF coefficient distance between the identified phase-0 system
    (A, B, C, D) and the reference plant, over all output/input pairs."""
    A, B, C, D = (np.asarray(X, dtype=float) for X in phase0)
    worst = 0.0
    for i in range(reference.l):
        for j in range(reference.m):
            got = _tf_coefficients(A, B[:, j], C[i], D[i, j])
            want = _tf_coefficients(reference.A, reference.B[:, j], reference.C[i],
                                    reference.D[i, j])
            for g, w in zip(got, want):
                worst = max(worst, float(np.abs(g - w).max()))
    return worst


def check(case, model, report):
    """(names of failed checks, TF error) for one identification."""
    order = case.order
    failed = [f"rank.{k}" for k in ("controllability", "observability", "transform")
              if report.ranks[k] != order]
    if max(v["max_offpattern"] for v in report.cyclic_form.values()) > TOL:
        failed.append("cyclic_form")
    if report.markov_structure["max_offpattern"] > TOL:
        failed.append("markov_structure")
    err = tf_error((model.A_phases[0], model.B_phases[0], model.C_phases[0],
                    model.D_phases[0]), case.reference)
    if case.noise > 0.0:
        if not err <= NOISY_TF_GAIN * case.noise:
            failed.append("tf_noisy")
    else:
        if not report.markov["worst_error"] <= TOL:
            failed.append("markov")
        if not (report.tf_passed and err <= TOL):
            failed.append("tf")
    return failed, err
