"""Stress corpus: seeded random plants, sampling patterns and records.

Every case must end in exactly one of three outcomes: every gate passes
against the true plant; a typed CycsidError; or a report that owns up, with
non-empty failures() or order_exposed False.  A bare numpy exception, a
warning (warnings are errors here), a LAPACK line on stderr and a passing
report with a wrong model are not outcomes.  At a forced Hankel depth too
short for the sampling pattern the typed error must advise a depth that
passes the pattern check.  The fast tiers run with the suite; the long
tiers are marked slow:

    python -m pytest tests/test_stress.py -m slow
"""

import math
import re

import numpy as np
import pytest

from cycsid import (CycsidError, ExperimentConfig, cycle_signal, run_identification,
                    subspace_identify)
from cycsid.pipeline import collect_data, observable_phases, validate
from cycsid.statespace import markov

from conftest import random_plant

#: the outcomes a case may end in
OUTCOMES = ("pass", "typed", "flagged")


def stress_cases(seed, count, n_max=3, rate_max=4, N_max=2000, regressor_mb=32,
                 noise=(0.0, 1e-3)):
    """count ExperimentConfigs drawn from seed: n <= n_max states, m <= 2
    inputs, l <= 3 outputs, rates <= rate_max with random offsets, D or
    none, an output noise level drawn from noise, N log-uniform in
    [60, N_max], so that some records are too short for their depth.  Draws
    whose B/D/x0 regressor would exceed regressor_mb are drawn again, so
    large periods come with short records."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n, m, l = int(rng.integers(1, n_max + 1)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        rates = tuple(int(r) for r in rng.integers(1, rate_max + 1, size=l))
        offsets = tuple(int(rng.integers(0, r)) for r in rates)
        with_d = bool(rng.integers(0, 2))
        level = float(rng.choice(noise))
        N = int(np.exp(rng.uniform(np.log(60), np.log(N_max))))
        M = math.lcm(*rates)
        cols = M * n * (1 + M * m) + M * l * M * m
        if 8 * N * M * l * cols > regressor_mb * 2**20:
            continue
        plant = random_plant(rng, n, l, with_d, m=m)
        cases.append(ExperimentConfig(plant=plant, rates=rates, offsets=offsets, N=N,
                                      noise=level,
                                      input={"seed": int(rng.integers(0, 2**31))}))
    return cases


def identify_at_depth(cfg, block_rows):
    """run_identification(cfg) with the Hankel depth forced to block_rows."""
    spec, log = cfg.spec, collect_data(cfg)
    phases = observable_phases(cfg)
    idm = subspace_identify(cycle_signal(log.u, spec.M), cycle_signal(log.y, spec.M),
                            cfg.plant.n, block_rows=block_rows)
    return validate(idm, cfg, {"seed": cfg.input["seed"], "N": log.N,
                               "observable_phases": phases})


def outcome(cfg, block_rows=None):
    """(outcome, detail) of one identification run, at the depth block_rows
    when it is given; a typed error's detail is its type name and message,
    and anything else raises."""
    try:
        model, report = (run_identification(cfg) if block_rows is None
                         else identify_at_depth(cfg, block_rows))
    except CycsidError as e:
        return "typed", f"{type(e).__name__}: {e}"
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
    assert cfg.noise or kind == "pass" or detail.startswith("InsufficientDataError:"), (
        kind, detail)
    assert capfd.readouterr().err == ""


def check_forced_depths(cfg, capfd):
    # every depth 2 ... order + 1 ends in an outcome; a depth too short for
    # the pattern is a RankConditionError whose advice is a depth that is not
    top = cfg.spec.M * cfg.plant.n + 1
    advised = {}
    for depth in range(2, top + 1):
        kind, detail = outcome(cfg, depth)
        assert kind in OUTCOMES
        found = re.search(r"use block_rows >= (\d+)", detail)
        if found:
            assert detail.startswith("RankConditionError:"), detail
            advised[depth] = int(found.group(1))
    # each advised depth was among those run, and it passed the pattern check
    assert all(depth < x <= top and x not in advised for depth, x in advised.items())
    assert capfd.readouterr().err == ""


FAST = stress_cases(2027, 30)


@pytest.mark.parametrize("cfg", FAST, ids=[f"{k:02d}-{_id(c)}" for k, c in enumerate(FAST)])
def test_fast_stress_case_ends_in_one_outcome(cfg, capfd):
    check_case(cfg, capfd)


@pytest.mark.parametrize("cfg", FAST, ids=[f"{k:02d}-{_id(c)}" for k, c in enumerate(FAST)])
def test_fast_stress_case_ends_in_one_outcome_at_every_depth(cfg, capfd):
    check_forced_depths(cfg, capfd)


LONG = stress_cases(31337, 400, n_max=4, rate_max=5, N_max=3000, regressor_mb=64)


@pytest.mark.slow
@pytest.mark.parametrize("cfg", LONG, ids=[f"{k:03d}-{_id(c)}" for k, c in enumerate(LONG)])
def test_long_stress_case_ends_in_one_outcome(cfg, capfd):
    check_case(cfg, capfd)


DEEP = stress_cases(4099, 100, n_max=4, rate_max=5, N_max=3000, regressor_mb=64)


@pytest.mark.slow
@pytest.mark.parametrize("cfg", DEEP, ids=[f"{k:03d}-{_id(c)}" for k, c in enumerate(DEEP)])
def test_long_stress_case_ends_in_one_outcome_at_every_depth(cfg, capfd):
    check_forced_depths(cfg, capfd)


# output noise near the signal level: the same three outcomes, and a case
# that passes the 1e-6 gates on such data must still be right
NOISY = stress_cases(11, 20, noise=(1e-2, 1e-1))


@pytest.mark.parametrize("cfg", NOISY, ids=[f"{k:02d}-{_id(c)}" for k, c in enumerate(NOISY)])
def test_loud_noise_stress_case_ends_in_one_outcome(cfg, capfd):
    check_case(cfg, capfd)


LOUD = stress_cases(12, 200, n_max=4, rate_max=5, N_max=3000, regressor_mb=64,
                    noise=(1e-2, 1e-1))


@pytest.mark.slow
@pytest.mark.parametrize("cfg", LOUD, ids=[f"{k:03d}-{_id(c)}" for k, c in enumerate(LOUD)])
def test_long_loud_noise_stress_case_ends_in_one_outcome(cfg, capfd):
    check_case(cfg, capfd)
