"""Shared fixtures: the benchmark plant, the two built-in studies, and the
randomized 20-plant corpus with its end-to-end runs (session-scoped, since
full identification runs are the expensive part of the suite)."""

import json

import numpy as np
import pytest

from cycsid import (
    ExperimentConfig,
    benchmark_plant,
    build_masks,
    builtin_config,
    check_observability_assumption,
    cyclic_reformulate,
    extract_components,
    make_state_space,
    run_identification,
    verify_cyclic_form,
)
from cycsid.cli import main
from cycsid.statespace import ctrb, obsv
from cycsid.subspace import IdentifiedModel

from refusals import FILES
from test_readme import _section_code

CORPUS_SEED = 271828
CORPUS_SIZE = 20


def extract_checked(sys, M, tol):
    """extract_components with the cyclic-form check measured on the same
    model, as the pipeline's convention search hands it over; like the
    pipeline, it extracts only a model that passes the check at tol."""
    form = verify_cyclic_form(sys, M, tol)
    assert form.passed, form.reports
    return extract_components(sys, M, form)


def identified_model(A, B, C, D, M):
    """An IdentifiedModel of period M with the given matrices, a zero initial
    state and zero evidence in place of an identification's depth and phase
    records."""
    return IdentifiedModel(A=A, B=B, C=C, D=D, M=M, x0=np.zeros(len(A)),
                           block_rows=0, pattern_block_rows=0, shift_margin=0.0,
                           phase_rank_margins=[0.0] * M, phase_gaps=[0.0] * M,
                           a_offpattern=0.0)


def write_walkthrough(base, **changes):
    """README's walk-through files in the directory base: its "Config format"
    example, with changes to its keys, as cfg.json, and the signals and model
    files that the walk-through's simulate and identify lines write."""
    config, run = base / FILES["config"], base / "run"
    config.write_text(json.dumps({**json.loads(_section_code("### Config format", "json")),
                                  **changes}))
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    assert main(["identify", "--config", str(config), "--signals", str(base / FILES["signals"]),
                 "--out", str(run)]) == 0
    return base


@pytest.fixture(scope="session")
def plant():
    return benchmark_plant()


@pytest.fixture(scope="session")
def mixed_rate_run():
    """Built-in study with rates (1, 3): config, extracted model, report."""
    cfg = builtin_config((1, 3))
    model, report = run_identification(cfg)
    return cfg, model, report


@pytest.fixture(scope="session")
def dual_rate_run():
    """Built-in study with rates (2, 3): config, extracted model, report."""
    cfg = builtin_config((2, 3))
    model, report = run_identification(cfg)
    return cfg, model, report


def random_plant(rng, n, l, with_d=False, m=1):
    """Random controllable/observable plant with spectral radius 0.9 and rank-n A."""
    while True:
        A = rng.normal(size=(n, n))
        radius = np.abs(np.linalg.eigvals(A)).max()
        if radius < 1e-6:
            continue
        A *= 0.9 / radius
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(l, n))
        D = 0.5 * rng.normal(size=(l, m)) if with_d else np.zeros((l, m))
        ss = make_state_space(A, B, C, D)
        if (np.linalg.matrix_rank(ctrb(ss)) == n
                and np.linalg.matrix_rank(obsv(ss)) == n
                and np.linalg.matrix_rank(A) == n):
            return ss


@pytest.fixture(scope="session")
def corpus():
    """20 random plants (n <= 3, l <= 2, m = 1, rates from {1,2,3}) satisfying
    the masked observability assumption."""
    rng = np.random.default_rng(CORPUS_SEED)
    cases = []
    while len(cases) < CORPUS_SIZE:
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 3))
        rates = tuple(int(rng.choice([1, 2, 3])) for _ in range(l))
        ss = random_plant(rng, n, l, with_d=bool(rng.integers(0, 3) == 0))
        spec = build_masks(rates)
        if not check_observability_assumption(ss, spec):
            continue
        cases.append({
            "plant": ss,
            "rates": rates,
            "spec": spec,
            "cycled": cyclic_reformulate(ss, spec),
            "seed": CORPUS_SEED + len(cases),
        })
    return cases


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    """Full identification runs over the corpus (N = 2000 per case)."""
    runs = []
    for case in corpus:
        cfg = ExperimentConfig(
            plant=case["plant"],
            rates=case["rates"],
            input={"kind": "uniform", "amplitude": 1.0, "seed": case["seed"]},
            N=2000,
            tolerances={"markov": 1e-6, "structure": 1e-6, "tf": 1e-5},
        )
        model, report = run_identification(cfg)
        runs.append({"case": case, "cfg": cfg, "model": model, "report": report})
    return runs
