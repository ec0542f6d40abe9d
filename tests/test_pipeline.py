import argparse
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from cycsid import (
    AssumptionFailedError,
    ExperimentConfig,
    RunReport,
    SchemaError,
    SignalLog,
    StructureViolationError,
    build_masks,
    builtin_config,
    check_observability_assumption,
    cyclic_reformulate,
    make_state_space,
    numerics,
    pipeline,
    run_identification,
    save_signals,
)
from cycsid.cli import build_parser, main
from cycsid.fileio import MODEL_KEYS, RECORD_KEYS, load_model
from cycsid.pipeline import (
    DEMO_STUDIES,
    _fmt_matrix,
    choose_transform,
    demo_paper,
    generate_input,
    load_config,
    poly_str,
)

from conftest import identified_model
from oracles import trajectory
from refusals import RESIZED_PAPER_PLANTS


def test_dual_rate_run_recovers_transfer_functions(dual_rate_run):
    _, model, report = dual_rate_run
    assert report.block_rows == {"used": 9, "pattern": 9,
                                 "shift_margin": model.source.shift_margin}
    assert report.block_rows["shift_margin"] > report.sv_gap
    assert report.tf_passed
    assert max(max(row) for row in report.tf_distances) <= 1e-6
    assert report.ranks["controllability"] == 18
    assert report.ranks["observability"] == 18
    assert report.ranks["transform"] == 18


def test_mixed_rate_run_structure(mixed_rate_run):
    _, model, report = mixed_rate_run
    assert report.markov_structure["passed"]
    assert all(v["passed"] for v in report.cyclic_form.values())
    assert report.markov["passed"]


def test_run_rejects_unobservable_plant():
    blind = make_state_space([[0.5, 0.1], [0.0, 0.4]], [[1.0], [1.0]],
                             [[0.0, 0.0]], [[0.0]])
    cfg = ExperimentConfig(plant=blind, rates=(2,), N=600)
    with pytest.raises(AssumptionFailedError):
        run_identification(cfg)


def test_eigenvalue_paired_plant_passes_the_transfer_check():
    # with eigenvalues 0.9 and -0.9 under period 2, A^2 B is parallel to B;
    # the transform's selector index p mod n still sweeps every block
    plant = make_state_space(np.diag([0.9, -0.9]), [[1.0], [1.0]],
                             np.eye(2), np.zeros((2, 1)))
    cfg = ExperimentConfig(plant=plant, rates=(1, 2), N=1500,
                           input={"kind": "uniform", "amplitude": 1.0, "seed": 3})
    model, report = run_identification(cfg)
    assert report.tf_passed


def input_one_blind_config(rates):
    """A plant that input 1 alone does not control: A = diag(0.5, -0.3),
    B = I.  The transform's reach sum is built from input 1, so its T is
    singular although the identified model is sound."""
    plant = make_state_space(np.diag([0.5, -0.3]), np.eye(2), [[1.0, 1.0], [1.0, -1.0]],
                             np.zeros((2, 2)))
    return ExperimentConfig(plant=plant, rates=rates, N=3000)


def test_rate_four_plant_with_fast_modes_ends_typed_and_records_cond(capfd, tmp_path):
    # one output at rate 4 sees A^4, whose modes (-0.052)^4 and 0.033^4 sit
    # near the rank cutoff.  The identified model is cyclic by construction,
    # so its transformed model has no off-pattern part for a structure
    # tolerance to refuse: every run returns a report that names its failures.
    # A structure refusal comes from a singular transform instead; the
    # built-in study runner stores its attempt record as it is.  Neither way
    # leaves a warning (warnings are errors here) or a LAPACK line, and cond(T)
    # is finite in either record
    rng = np.random.default_rng(1)
    runs = 0
    while runs < 6:
        P, B, C = rng.normal(size=(3, 3)), rng.normal(size=(3, 1)), rng.normal(size=(1, 3))
        A = P @ np.diag([-0.9, -0.052, 0.033]) @ np.linalg.inv(P)
        plant = make_state_space(A, B, C, [[0.93]])
        cfg = ExperimentConfig(plant=plant, rates=(4,), N=3000)
        if not check_observability_assumption(plant, cfg.spec):
            continue
        runs += 1
        u = generate_input(cfg)
        _, y = trajectory(plant.A, plant.B, plant.C, plant.D, u, np.zeros(3))
        obs = cfg.spec.pattern(cfg.N)
        signals = tmp_path / f"signals{runs}.csv"
        save_signals(SignalLog(u=u, y=y * obs, obs=obs), signals)
        cfg = dataclasses.replace(cfg, input={"file": str(signals)})

        _, report = run_identification(cfg)
        assert {"rank.observability", "tf"} <= set(report.failures())
        assert "cyclic_form" not in report.failures()
        # the per-phase margins name the weak phase the global ratio cannot
        assert min(report.phases["rank_margin"]) < 1e-9 < max(report.phases["rank_margin"])
        cond = report.conventions_tried[0]["cond"]
        assert np.isfinite(cond) and cond >= 1.0
        if runs == 1:
            blind = input_one_blind_config((1, 2))
            with pytest.raises(StructureViolationError) as info:
                run_identification(blind)
            e = info.value
            status, reports = demo_paper([("rate 4", cfg), ("input 1 blind", blind)],
                                         printer=lambda line: None)
            assert status == 4 and reports["input 1 blind"] == {
                "error": str(e), "kind": "structure", "attempt": e.attempt}
            assert reports["rate 4"].failures() == report.failures()
            assert np.isfinite(e.attempt["cond"]) and e.attempt["cond"] >= 1.0
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("rates", [(1, 2), (2, 3)])
def test_plant_input_one_does_not_control_ends_in_a_typed_refusal(rates, capfd):
    # the identified model is sound, but the reach sum of input 1 alone is
    # singular: a typed refusal whose attempt record holds the rank and a
    # finite cond(T), with no warning (warnings are errors here)
    with pytest.raises(StructureViolationError) as info:
        run_identification(input_one_blind_config(rates))
    attempt = info.value.attempt
    assert attempt["regular"] is False and attempt["rank"] < 2 * math.lcm(*rates)
    assert np.isfinite(attempt["cond"]) and attempt["cond"] > 1e12
    assert "applied" not in attempt and str(info.value).endswith(str(attempt))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("offsets", [(0, 1), (1, 0)])
def test_sampling_offsets_pass_every_check(offsets):
    # phase 0 does not sample one output; its row of C and D is read from the
    # first phase that does, so a correct model passes the transfer check
    cfg = dataclasses.replace(builtin_config((2, 3)), offsets=offsets)
    model, report = run_identification(cfg)
    assert report.failures() == []
    assert max(max(row) for row in report.tf_distances) <= 1e-6
    assert np.abs(model.C_phases[0][offsets.index(1)]).max() <= 1e-12


def test_run_report_round_trips(dual_rate_run):
    _, _, report = dual_rate_run
    doc = json.loads(json.dumps(report.to_dict()))
    back = RunReport.from_dict(doc)
    assert back.to_dict() == report.to_dict()
    assert back.components["A_phases"] == report.components["A_phases"]
    # a key the report does not hold is refused, not dropped
    with pytest.raises(TypeError, match="convention"):
        RunReport.from_dict({**doc, "convention": "general"})


def test_runs_are_deterministic(plant):
    cfg1 = dataclasses.replace(builtin_config((1, 3)), N=1200, input={"seed": 77})
    cfg2 = dataclasses.replace(builtin_config((1, 3)), N=1200, input={"seed": 77})
    m1, r1 = run_identification(cfg1)
    m2, r2 = run_identification(cfg2)
    for a, b in zip(m1.A_phases, m2.A_phases):
        assert np.array_equal(a, b)
    assert r1.components == r2.components


def test_run_with_nonzero_initial_state(plant):
    cfg = ExperimentConfig(plant=plant, rates=(2, 3), N=2000,
                           input={"kind": "uniform", "amplitude": 1.0, "seed": 55},
                           x0=np.array([1.0, -2.0, 0.5]))
    model, report = run_identification(cfg)
    assert report.tf_passed
    assert 0 in report.observable_phases  # fully observed phase stays observable
    assert np.abs(model.source.x0).max() > 0.1  # initial response was estimated


def test_run_from_signals_file_in_config(plant, tmp_path):
    from cycsid import build_masks, save_signals, simulate_multirate

    rng = np.random.default_rng(66)
    u = rng.uniform(-1, 1, (1500, 1))
    log = simulate_multirate(plant, build_masks((1, 3)), u)
    path = tmp_path / "signals.csv"
    save_signals(log, path)
    cfg = ExperimentConfig(plant=plant, rates=(1, 3), input={"file": str(path)})
    model, report = run_identification(cfg)
    assert report.tf_passed
    assert report.N == 1500
    assert report.seed is None


def test_noise_degrades_margins(plant):
    clean = dataclasses.replace(builtin_config((1, 3)), N=1500, input={"seed": 5})
    noisy = dataclasses.replace(clean, noise=1e-4,
                                tolerances={"markov": 1.0, "structure": 1.0, "tf": 1.0})
    _, rep_clean = run_identification(clean)
    _, rep_noisy = run_identification(noisy)
    assert (rep_noisy.markov["worst_error"]
            > 100 * rep_clean.markov["worst_error"])


def test_corpus_end_to_end(corpus_runs):
    for run in corpus_runs:
        report = run["report"]
        assert report.tf_passed, (run["case"]["rates"], report.tf_distances)
        assert max(max(row) for row in report.tf_distances) <= 1e-5
        # the sparse-Markov working assumption validates on every identified model
        assert report.markov_structure["passed"]
        assert report.order_exposed


def test_poly_str():
    assert poly_str([1.0, 0.9, 0.0]) == "z^2+0.9z"
    assert poly_str([1.0, 0.4, -0.5, -0.8]) == "z^3+0.4z^2-0.5z-0.8"
    assert poly_str([0.1, 0.34, 0.77]) == "0.1z^2+0.34z+0.77"
    assert poly_str([0.0]) == "0"


# ------------------------------------------------------------------- CLI ---

def write_config(tmp_path, **overrides):
    doc = {
        "plant": {
            "A": [[0.0, 0.0, 0.8], [1.0, 0.0, 0.5], [0.0, 1.0, -0.4]],
            "B": [[1.0], [0.0], [0.0]],
            "C": [[1.0, 0.5, 0.3], [0.1, 0.3, 0.7]],
            "D": [[0.0], [0.0]],
        },
        "rates": [1, 3],
        "input": {"kind": "uniform", "amplitude": 1.0, "seed": 11},
        "N": 1200,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_simulate_identify_verify_chain(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "signals.csv").exists()

    assert main(["identify", "--config", str(cfg),
                 "--signals", str(out / "signals.csv"),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["model.json", "report.json",
                                                     "signals.csv", "simulate_report.json"]
    report = json.loads((out / "report.json").read_text())
    assert report["tf_passed"] is True
    depth = report["block_rows"]
    assert (f"block rows {depth['used']} (pattern); shift margin "
            f"{depth['shift_margin']:.2g} > gap {report['sv_gap']:.2g}\n"
            in capsys.readouterr().out)

    assert main(["verify", "--model", str(out / "model.json"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verify_report.json").read_text())
    assert verdict["tf_passed"] and RunReport.from_dict(verdict).failures() == []
    assert verdict["cyclic_form"] == report["cyclic_form"]

    # the transform, rebuilt from the saved model, repeats the identify run's
    # attempt, cyclic form and components exactly
    idm = load_model(out / "model.json").model
    tol = report["cyclic_form"]["A_cyclic"]["tol"]
    cm, attempt = choose_transform(idm, tol)
    assert [attempt] == report["conventions_tried"]
    assert cm.structure.to_dict() == report["cyclic_form"]
    assert attempt["convention"] == "general"
    assert {k: [X.tolist() for X in getattr(cm, k)] for k in report["components"]} \
        == report["components"]

    # the margin is measured on the transformed model, not on its clean
    # rebuild: a B entry edited off the pattern shows in it
    off_pattern_b(out / "model.json", 1e-9)
    assert main(["verify", "--model", str(out / "model.json"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verify_report.json").read_text())
    assert max(v["max_offpattern"] for v in verdict["cyclic_form"].values()) > 0.0
    capsys.readouterr()


def test_cli_identify_verify_chain_with_offsets(tmp_path, capsys):
    cfg = write_config(tmp_path, rates=[2, 3], offsets=[0, 1], N=3000)
    out = tmp_path / "run"
    assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 0
    assert "checks PASS" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["model.json", "report.json"]
    report = json.loads((out / "report.json").read_text())
    assert json.loads((out / "model.json").read_text())["offsets"] == [0, 1]
    assert main(["verify", "--model", str(out / "model.json"), "--config", str(cfg),
                 "--out", str(out)]) == 0
    verdict = json.loads((out / "verify_report.json").read_text())
    assert RunReport.from_dict(verdict).failures() == []
    assert max(max(row) for row in verdict["tf_distances"]) <= 1e-6
    assert (verdict["cyclic_form"], verdict["conventions_tried"]) == (
        report["cyclic_form"], report["conventions_tried"])

    # a config sampled at other offsets describes other data: a data error,
    # not a transfer verdict
    (out / "verify_report.json").unlink()
    other = write_config(tmp_path, rates=[2, 3], offsets=[1, 0], N=3000)
    capsys.readouterr()
    assert main(["verify", "--model", str(out / "model.json"), "--config", str(other),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"data error: {out / 'model.json'}: model rates [2, 3], "
                                       "offsets [0, 1] != config rates [2, 3], offsets [1, 0]\n")
    assert not (out / "verify_report.json").exists()


@pytest.mark.parametrize("plant, rates, message", [
    pytest.param(RESIZED_PAPER_PLANTS["n2"], (2, 3),
                 "model (n, m) = (3, 1) != config plant (n, m) = (2, 1)", id="n2"),
    pytest.param(RESIZED_PAPER_PLANTS["m2"], (2, 3),
                 "model (n, m) = (3, 1) != config plant (n, m) = (3, 2)", id="m2"),
    pytest.param({"A": [[0.0, 0.0, 0.8], [1.0, 0.0, 0.5], [0.0, 1.0, -0.4]],
                  "B": [[1.0], [0.0], [0.0]], "C": [[1.0, 0.5, 0.3]], "D": [[0.0]]}, (6,),
                 "model (M, l) = (6, 2) != config (M, l) = (6, 1)", id="l1"),
    pytest.param(None, (3, 4), "model (M, l) = (6, 2) != config (M, l) = (12, 2)", id="M12"),
])
def test_validate_refuses_a_model_of_another_size(dual_rate_run, plant, rates, message):
    # the (2,3) paper model judged against a config of another period or
    # plant size came from other data: a data error that names both sizes
    _, model, _ = dual_rate_run
    plant = builtin_config(rates).plant if plant is None else make_state_space(**plant)
    cfg = ExperimentConfig(plant=plant, rates=rates)
    with pytest.raises(SchemaError) as err:
        pipeline.validate(model.source, cfg,
                          {"seed": None, "N": None, "observable_phases": [0]})
    assert str(err.value) == message


@pytest.mark.parametrize("identified_at, judged_at, message", [
    pytest.param(((2, 3), (0, 1)), ((2, 3), (1, 0)),
                 "model C is nonzero at phase 0, output 1, which rates [2, 3], offsets [1, 0] "
                 "never sample", id="offsets-swapped"),
    pytest.param(((3, 2), None), ((2, 3), None),
                 "model C is nonzero at phase 2, output 2, which rates [2, 3], offsets [0, 0] "
                 "never sample", id="rates-swapped"),
])
def test_validate_refuses_a_model_of_another_sampling_pattern(identified_at, judged_at,
                                                               message):
    # the same period and sizes, but the model's C reads an output at a phase
    # that the config never samples: the model came from other data
    (rates, offsets), (cfg_rates, cfg_offsets) = identified_at, judged_at
    model, _ = run_identification(dataclasses.replace(builtin_config(rates), offsets=offsets))
    cfg = dataclasses.replace(builtin_config(cfg_rates), offsets=cfg_offsets)
    with pytest.raises(SchemaError) as err:
        pipeline.validate(model.source, cfg, {"seed": None, "N": None, "observable_phases": [0]})
    assert str(err.value) == message


def test_validate_judges_a_model_that_is_zero_on_a_sampled_output(dual_rate_run):
    # the check is one way: a sampled output whose model row is all zero is
    # judged, and fails the checks it fails
    cfg, model, _ = dual_rate_run
    idm = model.source
    C = idm.C.copy()
    C[0] = 0.0  # phase 0 samples output 1
    _, report = pipeline.validate(dataclasses.replace(idm, C=C), cfg,
                                  {"seed": None, "N": None, "observable_phases": [0]})
    assert "tf" in report.failures()


def test_a_simulated_record_over_the_memory_budget_is_a_config_error(tmp_path):
    # N = 10**9 at rates (2,3) would simulate 194 GiB: the config refuses it
    # and names N, before anything is simulated
    plant = builtin_config((2, 3)).plant
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the simulated record of N = 1000000000 samples, "
                                         r"shape \(1000000000, 26\), would take 194 GiB"):
        ExperimentConfig(plant=plant, rates=(2, 3), N=10**9)
    path = write_config(tmp_path, rates=[2, 3], N=10**9)
    with pytest.raises(ValueError, match="N = 1000000000"):
        load_config(path)
    assert time.perf_counter() - start < 0.5
    # a signals file is already in memory, and the record check leaves it alone
    assert ExperimentConfig(plant=plant, rates=(2, 3), N=10**9,
                            input={"file": "signals.csv"}).N == 10**9


def test_reference_stage_times_the_aggregate_ranks(monkeypatch):
    # validate's two aggregate ranks belong to the reference stage, so a
    # slower rank shows in its time
    delay = 0.05

    def slow_rank(*args, **kwargs):
        time.sleep(delay)
        return rank(*args, **kwargs)

    rank = pipeline.rank_with_tol
    monkeypatch.setattr(pipeline, "rank_with_tol", slow_rank)
    _, report = run_identification(builtin_config((1, 3)))
    assert report.timings["reference"] >= 2 * delay


def test_cli_identify_shows_a_depth_fallback(tmp_path, capsys):
    # the second mode is seen only at phase 0, so the pattern depth 6 fails
    # the shifted-observability check and the run falls back to order + 1
    path = write_config(
        tmp_path,
        plant={"A": [[0.9, 0.0], [0.0, 0.5]], "B": [[1.0], [1.0]],
               "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0], [0.0]]},
        rates=[1, 6], N=3000,
    )
    assert main(["identify", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "; checks PASS\nblock rows 13 (fallback from pattern 6); shift margin " \
        in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    depth = report["block_rows"]
    assert (depth["used"], depth["pattern"]) == (13, 6)
    assert depth["shift_margin"] > report["sv_gap"]


def test_identify_and_demo_paper_give_one_verdict(tmp_path, capsys):
    # output noise moves the identified Markov parameters ~1e-3 off the plant's,
    # past the 1e-6 tolerance, while the structure checks and the loosened TF pass
    path = write_config(tmp_path, rates=[2, 3], N=3000, input={"seed": 12345})
    assert main(["identify", "--config", str(path), "--out", str(tmp_path),
                 "--noise", "0.01", "--tol-tf", "0.1"]) == 4
    assert "; checks FAIL: markov\n" in capsys.readouterr().out
    report = RunReport.from_dict(json.loads((tmp_path / "report.json").read_text()))
    assert report.failures() == ["markov"]

    cfg = dataclasses.replace(load_config(path), noise=0.01,
                              tolerances={"markov": 1e-6, "structure": 1e-6, "tf": 0.1})
    lines = []
    status, reports = demo_paper([("noisy (2,3)", cfg)], printer=lines.append)
    assert status == 4
    assert "study result: FAIL (markov)" in lines
    markov_line = next(s for s in lines if s.startswith("identified/true Markov match"))
    assert markov_line.endswith(f"at lag {report.markov['worst_index']} (depth 12) -> FAIL")
    assert reports["noisy (2,3)"].to_dict() == {**report.to_dict(),
                                                "timings": reports["noisy (2,3)"].timings}


def test_cli_records_the_default_seed(tmp_path, capsys):
    path = write_config(tmp_path, input={"amplitude": 2.0})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["identify", "--config", str(path), "--out", str(tmp_path)]) == 0
    for name in ("simulate_report.json", "report.json"):
        assert json.loads((tmp_path / name).read_text())["seed"] == 12345
    seeded = tmp_path / "seeded"
    assert main(["identify", "--config", str(path), "--out", str(seeded),
                 "--seed", "12345"]) == 0
    assert (json.loads((seeded / "report.json").read_text())["components"]
            == json.loads((tmp_path / "report.json").read_text())["components"])
    capsys.readouterr()


def test_noise_on_a_signals_file_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, noise=1e-9)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    signals = str(tmp_path / "signals.csv")
    # --signals replaces the config's input and noise with the recording
    assert main(["identify", "--config", str(path), "--signals", signals,
                 "--out", str(tmp_path)]) == 0
    assert main(["identify", "--config", str(path), "--signals", signals,
                 "--noise", "0.5", "--out", str(tmp_path)]) == 2
    on_file = write_config(tmp_path, input={"file": signals}, noise=0.5)
    assert main(["identify", "--config", str(on_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(
        line.startswith("config error: ")
        and line.endswith("noise applies to simulated data, not to a signals file")
        for line in err)


@pytest.mark.parametrize("x0, on_file, message", [
    pytest.param([1.0, 2.0], False, "x0 must have length 3 (the plant order), got 2",
                 id="length"),
    pytest.param([1.0, float("nan"), 0.0], False, "x0 must be finite", id="nan"),
    pytest.param([1.0, 2.0, 3.0], True, "x0 applies to simulated data, not to a signals file",
                 id="file"),
])
def test_config_checks_x0(tmp_path, capsys, x0, on_file, message):
    # the constructor checks x0, so a bad one is a config error before any run
    commands = ["simulate", "identify"]
    if on_file:
        path = write_config(tmp_path, x0=x0)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        signals = str(tmp_path / "signals.csv")
        # --signals replaces the config's x0 along with its input and noise
        assert main(["identify", "--config", str(path), "--signals", signals,
                     "--out", str(tmp_path)]) == 0
        path = write_config(tmp_path, input={"file": signals}, x0=x0)
        commands = ["identify"]
    else:
        path = write_config(tmp_path, rates=[2, 3], x0=x0)
    capsys.readouterr()
    for command in commands:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n" * len(commands)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("flag, value, named_by", [
    ("--seed", "99", "--signals"), ("--n", "600", "--signals"),
    ("--seed", "99", "config"), ("--n", "600", "config"),
], ids=["seed", "n", "config-seed", "config-n"])
def test_signals_file_takes_no_seed_or_n(tmp_path, capsys, flag, value, named_by):
    # the recording fixes the input and the sample count, so either flag would
    # be dropped, whether --signals or the config's input names the file
    path = write_config(tmp_path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    signals = str(tmp_path / "signals.csv")
    if named_by == "--signals":
        runs = [["identify", "--config", str(path), "--signals", signals]]
    else:
        path = write_config(tmp_path, input={"file": signals})
        runs = [[command, "--config", str(path)] for command in ("simulate", "identify")]
    capsys.readouterr()
    for run in runs:
        assert main([*run, "--out", str(tmp_path / "out"), flag, value]) == 2
    assert capsys.readouterr().err == (f"config error: {flag} does not apply to a signals "
                                       "file, which holds its own input and length\n") * len(runs)
    assert not (tmp_path / "out").exists()


def test_verify_writes_the_identify_report_and_verdict(tmp_path, capsys):
    # verify judges the saved model with the validation identify ran: the same
    # report apart from timings, the same verdict line and the same exit code;
    # output noise fails markov while the loosened TF passes
    path = write_config(tmp_path, rates=[2, 3], N=3000, input={"seed": 12345})
    check = ["--out", str(tmp_path), "--tol-tf", "0.1"]
    assert main(["identify", "--config", str(path), "--noise", "0.01", *check]) == 4
    identified = capsys.readouterr().out.splitlines()[0]
    assert identified.endswith("; checks FAIL: markov")
    assert main(["verify", "--model", str(tmp_path / "model.json"), "--config", str(path),
                 *check]) == 4
    verdict_line = identified.replace("identified", "verified")
    assert capsys.readouterr().out == verdict_line + "\n"
    report = json.loads((tmp_path / "report.json").read_text())
    verdict = json.loads((tmp_path / "verify_report.json").read_text())
    assert list(verdict["timings"]) == ["reference", "markov", "transform", "verify"]
    assert {**verdict, "timings": report["timings"]} == report
    assert (verdict["seed"], verdict["N"]) == (12345, 3000)


def test_identify_keeps_the_record_of_a_structure_refusal(tmp_path, capsys):
    # a plant that input 1 alone does not control gives a singular transform:
    # identify writes the refusal verify and demo-paper keep, and no model
    blind = input_one_blind_config((2, 3)).plant
    path = write_config(tmp_path, rates=[2, 3], N=3000, input={"seed": 12345},
                        plant={key: getattr(blind, key).tolist() for key in "ABCD"})
    out = tmp_path / "run"
    assert main(["identify", "--config", str(path), "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report == {"error": report["error"], "kind": "structure",
                      "attempt": report["attempt"]}
    assert report["attempt"]["regular"] is False and "applied" not in report["attempt"]
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    assert capsys.readouterr().err == f"verification failure: {report['error']}\n"


def off_pattern_b(path, value):
    """Edit value into the model file's B at block (0, 0), off its cyclic
    pattern when M > 1."""
    doc = json.loads(path.read_text())
    doc["B"][0][0] = value
    path.write_text(json.dumps(doc))


def test_verify_judges_a_cyclic_model_file_at_the_given_tolerance(tmp_path, dual_rate_run,
                                                                  capsys):
    from cycsid.fileio import save_model

    cfg, model, report = dual_rate_run
    path = tmp_path / "model.json"
    save_model(model.source, path, cfg.spec)
    verify = ["verify", "--model", str(path), "--config",
              str(write_config(tmp_path, rates=[2, 3])), "--out", str(tmp_path)]
    assert main(verify) == 0
    cyclic_form = json.loads((tmp_path / "verify_report.json").read_text())["cyclic_form"]
    assert cyclic_form == report.cyclic_form
    # the identified model is cyclic by construction, and so is its transform
    assert max(v["max_offpattern"] for v in cyclic_form.values()) == 0.0

    # a model file edited off the pattern is judged against the given
    # tolerance; the refusal is the record demo-paper keeps for a refused study
    off_pattern_b(path, 1e-9)
    assert main(verify) == 0
    cyclic_form = json.loads((tmp_path / "verify_report.json").read_text())["cyclic_form"]
    margin = max(v["max_offpattern"] for v in cyclic_form.values())
    assert 0.0 < margin <= 1e-6
    capsys.readouterr()
    assert main(verify + ["--tol-structure", "1e-20"]) == 4
    verdict = json.loads((tmp_path / "verify_report.json").read_text())
    assert verdict == {"error": verdict["error"], "kind": "structure",
                       "attempt": verdict["attempt"]}
    assert verdict["attempt"]["max_offpattern"] == margin
    assert capsys.readouterr().err == f"verification failure: {verdict['error']}\n"


@pytest.mark.parametrize("edit, message", [
    pytest.param({"n": "x"}, "n must be an integer, got 'x'", id="n"),
    pytest.param({"M": "q"}, "M must be an integer, got 'q'", id="M"),
    pytest.param({"rates": 3}, "rates must be a list of integers, got 3", id="rates"),
    pytest.param({"offsets": "ab"}, "offsets must be a list of integers, got 'ab'",
                 id="offsets"),
    pytest.param({"offsets": None}, "offsets must be a list of integers, got None",
                 id="offsets-null"),
    pytest.param({"block_rows": {"used": "x"}}, "block_rows.used must be an integer, got 'x'",
                 id="block_rows"),
    pytest.param({"block_rows": {"shift_margin": "x"}},
                 "block_rows.shift_margin must be a number, got 'x'", id="shift_margin"),
    # the SV gap and the order's exposure derive from the per-phase record
    pytest.param({"sv_gap": 0.1}, "unknown model keys ['sv_gap']", id="sv_gap"),
    pytest.param({"phases": {"rank_margin": "x"}},
                 "phases.rank_margin must be a list of numbers, got 'x'", id="rank_margin"),
    pytest.param({"phases": {"sv_gap": [0.1]}}, "phase_gaps must hold 6 entries, one per phase",
                 id="phase-count"),
    pytest.param({"phases": 1}, "phases must be an object, got 1", id="phases"),
    pytest.param({"order_exposed": True}, "unknown model keys ['order_exposed']",
                 id="order_exposed"),
    *(pytest.param({"provenance": v}, f"provenance must be an object, got {v!r}",
                   id=f"provenance-{type(v).__name__}") for v in ([1, 2], "seed", None)),
    pytest.param({"provenance": {"seed": "x"}},
                 "provenance.seed must be an integer or null, got 'x'", id="provenance-seed"),
    pytest.param({"provenance": {"N": [1, 2]}},
                 "provenance.N must be an integer or null, got [1, 2]", id="provenance-N"),
    pytest.param({"A": [[0.0] * 18] * 17 + [[0.0]]},
                 "A must be a matrix of numbers, got [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...], ",
                 id="ragged-A"),
    # the model's constructor names the matrix that does not fit the others
    *(pytest.param({key: [[0.0] * cols] * rows}, message, id=f"shape-{key}")
      for key, rows, cols, message in (
          ("B", 17, 6, "A is (18, 18) but B has 17 rows"),
          ("C", 12, 17, "A is (18, 18) but C has 17 columns"),
          ("D", 11, 6, "D must be 12x6 to match C and B, got (11, 6)"))),
    pytest.param({"x0": [0.0] * 17}, "x0 must have length 18, got 17", id="shape-x0"),
    pytest.param({"x0": [[0.0]] * 18}, "x0 must be a list of numbers, got [[0.0], [0.0], ",
                 id="nested-x0"),
    # matrices that fit each other, but not the declared per-phase sizes
    pytest.param({"n": 2}, "the model's matrices make (n, m, l) = (3, 1, 2) per phase but "
                 "the file declares (2, 1, 2)", id="declared-n"),
])
def test_verify_names_a_malformed_model_field(tmp_path, dual_rate_run, capsys, edit, message):
    # the model file is data: a bad field is a data error (exit 3) that names it
    from cycsid.fileio import save_model

    cfg, model, _ = dual_rate_run
    path = tmp_path / "model.json"
    save_model(model.source, path, cfg.spec)
    doc = json.loads(path.read_text())
    # an edit of a nested record changes only the keys it names
    path.write_text(json.dumps({**doc, **{
        key: {**doc[key], **value} if isinstance(doc.get(key), dict) and isinstance(value, dict)
        else value for key, value in edit.items()}}))
    capsys.readouterr()
    assert main(["verify", "--model", str(path), "--config",
                 str(write_config(tmp_path, rates=[2, 3])), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: {message}")
    assert not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("key", [
    *MODEL_KEYS, *(f"{name}.{key}" for name, keys in RECORD_KEYS.items() for key in keys),
    "extra", *(f"{name}.extra" for name in RECORD_KEYS)])
def test_verify_needs_exactly_the_model_file_keys(tmp_path, dual_rate_run, capsys, key):
    # the model file holds every key of the identified record and no other:
    # dropping one, or adding one ("extra"), is a data error that names it
    from cycsid.fileio import save_model

    cfg, model, _ = dual_rate_run
    path = tmp_path / "model.json"
    save_model(model.source, path, cfg.spec, {"seed": 12345, "N": 3000})
    doc = json.loads(path.read_text())
    *outer, name = key.split(".")
    record = doc[outer[0]] if outer else doc
    if name == "extra":
        record[name] = 0
        message = f"unknown {outer[0] if outer else 'model'} keys ['extra']"
    else:
        del record[name]
        message = f"missing required field '{key}'"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--model", str(path), "--config",
                 str(write_config(tmp_path, rates=[2, 3])), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: {message}")
    assert not (tmp_path / "verify_report.json").exists()


def test_signals_of_another_sampling_pattern_are_a_data_error(tmp_path, capsys):
    # recorded at offsets (0, 0), identified under offsets (1, 0): other data
    path = write_config(tmp_path, rates=[2, 3], N=3000)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    signals = tmp_path / "signals.csv"
    (tmp_path / "shifted").mkdir()
    shifted = write_config(tmp_path / "shifted", rates=[2, 3], N=3000, offsets=[1, 0])
    capsys.readouterr()
    assert main(["identify", "--config", str(shifted), "--signals", str(signals),
                 "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == (f"data error: {signals}: step 0, output 1 has obs 1 "
                                       "and y 0, but rates [2, 3], offsets [1, 0] skip it\n")

    # a sample where the recording says nothing was observed
    lines = signals.read_text().splitlines()
    k, u, y1, y2, o1, o2 = lines[2].split(",")  # step 1: neither output is sampled
    assert (o1, o2) == ("0", "0")
    lines[2] = ",".join([k, u, y1, "0.5", o1, o2])
    signals.write_text("\n".join(lines) + "\n")
    assert main(["identify", "--config", str(path), "--signals", str(signals),
                 "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == (f"data error: {signals}: step 1, output 2 has obs 0 "
                                       "and y 0.5, but rates [2, 3], offsets [0, 0] skip it\n")
    assert not (tmp_path / "run" / "report.json").exists()


def test_verify_refuses_a_cyclic_model_file(tmp_path, dual_rate_run, capsys):
    from cycsid.fileio import save_model

    cfg, model, _ = dual_rate_run
    path = tmp_path / "cyclic_model.json"
    save_model(model.source, path, cfg.spec)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "kind": "cyclic"}))
    capsys.readouterr()
    assert main(["verify", "--model", str(path), "--config",
                 str(write_config(tmp_path, rates=[2, 3])), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"data error: {path}: unknown model kind 'cyclic'\n"
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_reports_the_attempt_of_a_model_that_fails_the_structure_check(
        tmp_path, plant, capsys):
    from cycsid.fileio import save_model

    # a dense perturbation of the cycled dynamics is cyclic in no basis, so
    # the transform applies and the cyclic-form check refuses it
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    dense = identified_model(cs.A + 0.01, cs.B, cs.C, cs.D, 3)
    path = tmp_path / "model.json"
    save_model(dense, path, spec)
    assert main(["verify", "--model", str(path), "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path)]) == 4
    verdict = json.loads((tmp_path / "verify_report.json").read_text())
    with pytest.raises(StructureViolationError) as err:
        choose_transform(dense, 1e-6)
    assert capsys.readouterr().err == f"verification failure: {err.value}\n"
    assert verdict == {"error": str(err.value), "kind": "structure",
                       "attempt": err.value.attempt}
    attempt = verdict["attempt"]
    assert (attempt["convention"], attempt["rank"], attempt["regular"]) == ("general", 9, True)
    assert attempt["applied"] and not attempt["structure_passed"]
    assert attempt["max_offpattern"] > 1e-6 and attempt["cond"] >= 1.0


def test_cli_subcommands_take_only_the_flags_they_read(tmp_path, capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    data, check = {"--seed", "--n", "--noise"}, {"--tol-structure", "--tol-tf"}
    assert options == {
        "simulate": {"--config", "--out"} | data,
        "identify": {"--config", "--signals", "--out"} | data | check,
        "verify": {"--model", "--config", "--out"} | check,
        "demo-paper": {"--out"} | data | check,
    }
    cfg = str(write_config(tmp_path))
    assert main(["simulate", "--config", cfg, "--tol-tf", "1"]) == 2
    assert main(["verify", "--model", "model.json", "--config", cfg, "--noise", "1"]) == 2
    assert "unrecognized arguments: --noise 1" in capsys.readouterr().err
    # there is one transform, and no flag for its selector convention
    assert main(["identify", "--config", cfg, "--convention", "general"]) == 2
    assert "unrecognized arguments: --convention general" in capsys.readouterr().err


def test_demo_prints_reference_line_and_passes(tmp_path, capsys):
    assert main(["demo-paper", "--out", str(tmp_path), "--n", "1500"]) == 0
    text = capsys.readouterr().out
    assert "(z^2+0.9z) / (z^3+0.4z^2-0.5z-0.8)" in text
    assert "(0.1z^2+0.34z+0.77) / (z^3+0.4z^2-0.5z-0.8)" in text
    assert "study result: PASS" in text
    assert (tmp_path / "demo_report.json").exists()


def test_demo_paper_records_every_refused_study_and_exits_with_the_worst_code(
        tmp_path, monkeypatch, capsys):
    # too few samples refuse both studies as data errors (3).  A memory budget
    # that admits study (1,3) but not study (2,3)'s B/D/x0 regressor refuses
    # the second as a config error (2), and the first study's report is still
    # written.  Every refused study leaves the same record, and stderr stays empty
    assert main(["demo-paper", "--n", "50", "--out", str(tmp_path / "short")]) == 3
    lines = capsys.readouterr().out.splitlines()
    short = json.loads((tmp_path / "short" / "demo_report.json").read_text())
    for label, _ in DEMO_STUDIES:
        record = short[label]
        assert record == {"error": record["error"], "kind": "data", "attempt": None}
        assert f"study result: FAIL (data error: {record['error']})" in lines

    monkeypatch.setattr(numerics, "MEMORY_BUDGET", 2**22)
    assert main(["demo-paper", "--n", "600", "--out", str(tmp_path / "big")]) == 2
    out = capsys.readouterr()
    big = json.loads((tmp_path / "big" / "demo_report.json").read_text())
    record = big["dual rate (2,3)"]
    assert record == {"error": record["error"], "kind": "config", "attempt": None}
    assert record["error"].startswith("the B/D/x0 regressor, shape (7200, 198)")
    assert f"study result: FAIL (config error: {record['error']})" in out.out.splitlines()
    assert RunReport.from_dict(big["mixed rates (1,3)"]).failures() == []
    assert out.err == ""


def test_demo_paper_pins_its_round_off_free_lines():
    # every line of the built-in studies that carries no round-off digits
    lines = []
    status, _ = demo_paper([(label, builtin_config(rates)) for label, rates in DEMO_STUDIES],
                           printer=lines.append)
    assert status == 0
    tf1 = "(z^2+0.9z) / (z^3+0.4z^2-0.5z-0.8)"
    tf2 = "(0.1z^2+0.34z+0.77) / (z^3+0.4z^2-0.5z-0.8)"
    tfs = [f"reference TF1: {tf1}", f"recovered TF1: {tf1}",
           f"reference TF2: {tf2}", f"recovered TF2: {tf2}"]
    pinned = ("===", "period", "ranks", "reference TF", "recovered TF", "study result")
    assert [line for line in lines if line.startswith(pinned)] == [
        "=== mixed rates (1,3) ===",
        "period M = 3, model order = 9",
        "ranks: controllability 9, observability 9, transform 9 (expected 9)",
        *tfs,
        "study result: PASS",
        "=== dual rate (2,3) ===",
        "period M = 6, model order = 18",
        "ranks: controllability 18, observability 18, transform 18 (expected 18)",
        *tfs,
        "study result: PASS",
    ]


def test_fmt_matrix_prints_round_off_as_unsigned_zero():
    # the demo's matrix text must not move when only the last bits of a fit do
    assert _fmt_matrix([-1e-12, -0.0, 0.0, 0.8]) == \
        "    [ 0.000000   0.000000   0.000000   0.800000]"
    assert _fmt_matrix([[-4e-7], [-6e-7]], indent="") == "[ 0.000000]\n[-0.000001]"


def test_demo_starved_data_reports_cleanly(tmp_path, capsys):
    assert main(["demo-paper", "--out", str(tmp_path), "--n", "50"]) == 3
    out = capsys.readouterr().out
    assert "data error" in out


def test_demo_heavy_noise_fails_structure(tmp_path, capsys):
    assert main(["demo-paper", "--out", str(tmp_path), "--n", "1500",
                 "--noise", "0.05"]) == 4
    capsys.readouterr()


def test_cli_verify_wrong_reference_fails(tmp_path, dual_rate_run, capsys):
    # verify a (2,3) model against a perturbed reference plant: transfer FAIL
    from cycsid.fileio import save_model

    cfg, model, _ = dual_rate_run
    model_path = tmp_path / "model.json"
    save_model(model.source, model_path, cfg.spec)
    wrong = write_config(
        tmp_path,
        plant={"A": [[0.0, 0.0, 0.8], [1.0, 0.0, 0.5], [0.0, 1.0, -0.3]],
               "B": [[1.0], [0.0], [0.0]],
               "C": [[1.0, 0.5, 0.3], [0.1, 0.3, 0.7]],
               "D": [[0.0], [0.0]]},
        rates=[2, 3],
    )
    assert main(["verify", "--model", str(model_path), "--config", str(wrong),
                 "--out", str(tmp_path)]) == 4
    capsys.readouterr()
