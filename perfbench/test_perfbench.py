"""Tests of the benchmark itself: its correctness gate counts wrong answers,
its tracer attributes time and work without changing results, and its
metric names match BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cycsid  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Tally, identify  # noqa: E402


def small_case(reference=None, N=1000, noise=0.0):
    plant = cycsid.make_state_space(*workloads.PAPER_PLANT)
    cfg = cycsid.ExperimentConfig(plant=plant, rates=(1, 3), N=N, noise=noise,
                                  input={"kind": "uniform", "amplitude": 1.0, "seed": 7})
    return workloads.Case(cfg=cfg, reference=reference or plant, noise=noise)


def perturbed(plant, eps):
    return cycsid.make_state_space(plant.A + eps * np.eye(plant.n), plant.B, plant.C, plant.D)


def test_correct_answer_passes():
    tally = Tally()
    _, report = identify(small_case(), cycsid.run_identification, tally)
    assert report is not None
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.tf_err_max < 1e-10


def test_perturbed_reference_counts_as_failure():
    case = small_case()
    wrong = workloads.Case(cfg=case.cfg, reference=perturbed(case.reference, 1e-3))
    tally = Tally()
    _, report = identify(wrong, cycsid.run_identification, tally)
    assert report is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.reasons == [["tf"]]


def test_noisy_answer_is_held_to_the_noise_scaled_bound():
    noisy = small_case(noise=1e-2)
    tally = Tally()
    identify(noisy, cycsid.run_identification, tally)
    assert tally.failed == 0
    far = workloads.Case(cfg=noisy.cfg, reference=perturbed(noisy.reference, 0.05),
                         noise=noisy.noise)
    identify(far, cycsid.run_identification, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons == [["tf_noisy"]]


def test_raising_identification_counts_and_does_not_stop_the_run():
    tally = Tally()
    _, report = identify(small_case(N=20), cycsid.run_identification, tally)
    assert report is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.reasons[0][0].startswith("raised InsufficientDataError")


def test_independent_tf_error_agrees_with_program_report():
    case = small_case()
    model, report = cycsid.run_identification(case.cfg)
    _, err = workloads.check(case, model, report)
    assert abs(err - max(max(row) for row in report.tf_distances)) < 1e-12


def test_workloads_follow_the_seed():
    for name, wl in workloads.WORKLOADS.items():
        a, b, c = wl.make(3), wl.make(3), wl.make(4)
        assert [x.cfg.input for x in a] == [x.cfg.input for x in b], name
        assert [x.cfg.input for x in a] != [x.cfg.input for x in c], name
    corpus = workloads.WORKLOADS["corpus_small"].make(3)
    assert [(x.reference.n, x.cfg.rates) for x in corpus] == \
        [(n, rates) for n, rates, _ in workloads.CORPUS_SHAPES]
    assert {math.lcm(*x.cfg.rates) for x in corpus} == {1, 2, 3, 6}


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail(range(1, 12)) == (6, 50.0)
    value, pct = run.tail(range(100))
    assert value == 89 and pct == 90.0


def test_tracer_attributes_time_and_computes_counts():
    case = small_case()
    before = (cycsid.pipeline.subspace_identify, np.linalg.qr)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model, report = tracer.identify(case.cfg)
    finally:
        tracer.uninstall()
    assert (cycsid.pipeline.subspace_identify, np.linalg.qr) == before
    assert workloads.check(case, model, report)[0] == []

    root = [s for s in tracer.spans if s.name == tracing.ROOT]
    assert len(root) == 1 and {s.run for s in tracer.spans} == {1}
    layers = tracer.layer_seconds()
    assert sum(layers.values()) == pytest.approx(root[0].end - root[0].start, rel=1e-9)
    for name in ("subspace.lq", "subspace.svd", "subspace.ac_fit", "subspace.bdx0_fit",
                 "kernels.io_regressor", "cyclic.markov_structure", "transform.tf_check"):
        assert layers[name] > 0, name
    assert tracer.reference_seconds() > 0

    # counts from the shapes: M=3, n=3, m=1, l=2, N=1000
    M, n, m, l, N = 3, 3, 1, 2, 1000
    order, i = M * n, model.source.block_rows
    assert tracer.counts["subspace.block_rows"] == i
    assert tracer.counts["subspace.lq_bytes"] == 8 * 2 * i * M * (m + l) * (N - 2 * i + 1)
    rows, cols = N * M * l, order + order * M * m + M * l * M * m
    assert tracer.counts["subspace.bdx0_fit_rows"] == rows
    assert tracer.counts["subspace.bdx0_fit_cols"] == cols
    assert tracer.counts["kernels.io_regressor_bytes"] == 8 * rows * cols
    assert tracer.counts["cyclic.markov_structure_blocks"] == (2 * order + 1) ** 2 * M * (M - 1)

    stages = tracer.stage_seconds()
    for stage in ("identify", "markov", "transform", "total"):
        assert stages[stage] == pytest.approx(report.timings[stage], rel=0.05, abs=2e-3), stage


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_m6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
