"""Stress corpus: seeded random plants, sampling patterns and records.

Every case must end in exactly one of three outcomes: every gate passes
against the true plant; a typed CycsidError; or a report that owns up, with
non-empty failures() or order_exposed False.  A bare numpy exception, a
warning (warnings are errors here), a LAPACK line on stderr and a passing
report with a wrong model are not outcomes.  The fast tier runs with the
suite; the long tier is marked slow:

    python -m pytest tests/test_stress.py -m slow
"""

import math

import numpy as np
import pytest

from cycsid import CycsidError, ExperimentConfig, run_identification
from cycsid.statespace import markov

from conftest import random_plant

#: the outcomes a case may end in
OUTCOMES = ("pass", "typed", "flagged")


def stress_cases(seed, count, n_max=3, rate_max=4, N_max=2000, regressor_mb=32):
    """count ExperimentConfigs drawn from seed: n <= n_max states, m <= 2
    inputs, l <= 3 outputs, rates <= rate_max with random offsets, D or
    none, noise 0 or 1e-3, N log-uniform in [60, N_max], so that some
    records are too short for their depth.  Draws whose B/D/x0 regressor
    would exceed regressor_mb are drawn again, so large periods come with
    short records."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n, m, l = int(rng.integers(1, n_max + 1)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        rates = tuple(int(r) for r in rng.integers(1, rate_max + 1, size=l))
        offsets = tuple(int(rng.integers(0, r)) for r in rates)
        with_d = bool(rng.integers(0, 2))
        noise = float(rng.choice([0.0, 1e-3]))
        N = int(np.exp(rng.uniform(np.log(60), np.log(N_max))))
        M = math.lcm(*rates)
        cols = M * n * (1 + M * m) + M * l * M * m
        if 8 * N * M * l * cols > regressor_mb * 2**20:
            continue
        plant = random_plant(rng, n, l, with_d, m=m)
        cases.append(ExperimentConfig(plant=plant, rates=rates, offsets=offsets, N=N,
                                      noise=noise,
                                      input={"seed": int(rng.integers(0, 2**31))}))
    return cases


def outcome(cfg):
    """(outcome, detail) of one identification run; anything else raises."""
    try:
        model, report = run_identification(cfg)
    except CycsidError as e:
        return "typed", type(e).__name__
    failed = report.failures() + ([] if report.order_exposed else ["order_exposed"])
    if failed:
        return "flagged", ",".join(failed)
    # a pass must be right: the recovered plant's Markov parameters are the plant's
    got, want = markov(model.recovered_plant(cfg.spec), 12), markov(cfg.plant, 12)
    worst = max(np.abs(g - w).max() for g, w in zip(got, want))
    assert worst <= 1e-6 * max(1.0, max(np.abs(w).max() for w in want)), worst
    return "pass", ""


def _id(cfg):
    p = cfg.plant
    return (f"n{p.n}m{p.m}l{p.l}-r{''.join(map(str, cfg.rates))}"
            f"-o{''.join(map(str, cfg.offsets))}-N{cfg.N}-{'noisy' if cfg.noise else 'clean'}")


def check_case(cfg, capfd):
    kind, detail = outcome(cfg)
    assert kind in OUTCOMES
    # clean data are identified exactly unless the record is too short
    assert cfg.noise or kind == "pass" or detail == "InsufficientDataError", (kind, detail)
    assert capfd.readouterr().err == ""


FAST = stress_cases(2027, 30)


@pytest.mark.parametrize("cfg", FAST, ids=[f"{k:02d}-{_id(c)}" for k, c in enumerate(FAST)])
def test_fast_stress_case_ends_in_one_outcome(cfg, capfd):
    check_case(cfg, capfd)


LONG = stress_cases(31337, 400, n_max=4, rate_max=5, N_max=3000, regressor_mb=64)


@pytest.mark.slow
@pytest.mark.parametrize("cfg", LONG, ids=[f"{k:03d}-{_id(c)}" for k, c in enumerate(LONG)])
def test_long_stress_case_ends_in_one_outcome(cfg, capfd):
    check_case(cfg, capfd)
