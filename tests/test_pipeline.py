import json

import numpy as np
import pytest

from cycsid import (
    AssumptionFailedError,
    ExperimentConfig,
    RunReport,
    builtin_config,
    make_state_space,
    run_identification,
)
from cycsid.cli import main
from cycsid.fileio import load_model
from cycsid.pipeline import choose_transform, poly_str


def test_dual_rate_run_recovers_transfer_functions(dual_rate_run):
    _, model, report = dual_rate_run
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


def test_convention_fallback_on_eigenvalue_paired_plant():
    # with eigenvalues 0.9 and -0.9 under period 2, A^2 B is parallel to B,
    # so the outer-index transform is singular while the cycled index works
    from cycsid import StructureViolationError

    plant = make_state_space(np.diag([0.9, -0.9]), [[1.0], [1.0]],
                             np.eye(2), np.zeros((2, 1)))
    cfg = ExperimentConfig(plant=plant, rates=(1, 2), N=1500,
                           input={"kind": "uniform", "amplitude": 1.0, "seed": 3})
    _, report = run_identification(cfg)
    assert report.convention == "general"
    assert report.tf_passed

    forced = ExperimentConfig(plant=plant, rates=(1, 2), N=1500, convention="example",
                              input={"kind": "uniform", "amplitude": 1.0, "seed": 3})
    with pytest.raises(StructureViolationError):
        run_identification(forced)


def test_run_report_round_trips(dual_rate_run):
    _, _, report = dual_rate_run
    doc = json.loads(json.dumps(report.to_dict()))
    back = RunReport.from_dict(doc)
    assert back.to_dict() == report.to_dict()
    assert back.components["A_phases"] == report.components["A_phases"]


def test_runs_are_deterministic(plant):
    cfg1 = builtin_config((1, 3), N=1200, seed=77)
    cfg2 = builtin_config((1, 3), N=1200, seed=77)
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
    clean = builtin_config((1, 3), N=1500, seed=5)
    noisy = builtin_config((1, 3), N=1500, seed=5, noise=1e-4,
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
    assert (out / "model.json").exists()
    assert (out / "cyclic_model.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["tf_passed"] is True

    worst = max(v["max_offpattern"] for v in report["cyclic_form"].values())
    for convention in ([], ["--convention", "auto"], ["--convention", "example"]):
        assert main(["verify", "--model", str(out / "model.json"),
                     "--config", str(cfg), "--out", str(out)] + convention) == 0
        verdict = json.loads((out / "verify_report.json").read_text())
        assert verdict["structure_passed"] and verdict["tf_passed"]
        if convention != ["--convention", "example"]:
            # the margin measured on the transformed model, not on its clean rebuild
            assert verdict["max_offpattern"] == worst > 0.0

    # the cyclic model file carries the margin measured at extraction
    assert main(["verify", "--model", str(out / "cyclic_model.json"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verify_report.json").read_text())
    assert verdict["structure_passed"] and verdict["tf_passed"]
    assert verdict["max_offpattern"] == worst > 0.0

    # the shared convention search repeats the identify run's choice on the saved model
    idm = load_model(out / "model.json").model
    tol = report["cyclic_form"]["A_cyclic"]["tol"]
    cm, tres, tried = choose_transform(idm, 3, 1, 2, 3, "auto", tol)
    assert tres.convention == report["convention"]
    assert tried == report["conventions_tried"]
    saved_T = np.array(json.loads((out / "cyclic_model.json").read_text())["T"])
    assert np.array_equal(cm.T, saved_T)
    capsys.readouterr()


def test_cli_config_error_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["identify", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2


def test_cli_data_error_exit_3(tmp_path):
    cfg = write_config(tmp_path)
    sig = tmp_path / "bad.csv"
    sig.write_text("k,u_1,y_1,y_2\n0,1,2,3\n")  # missing obs columns
    assert main(["identify", "--config", str(cfg), "--signals", str(sig),
                 "--out", str(tmp_path)]) == 3
    starved = write_config(tmp_path, N=50)
    assert main(["identify", "--config", str(starved),
                 "--out", str(tmp_path)]) == 3


def test_cli_structure_failure_exit_4(tmp_path):
    blind = write_config(
        tmp_path,
        plant={"A": [[0.5, 0.1], [0.0, 0.4]], "B": [[1.0], [1.0]],
               "C": [[0.0, 0.0]], "D": [[0.0]]},
        rates=[2],
        N=600,
    )
    assert main(["identify", "--config", str(blind), "--out", str(tmp_path)]) == 4


def test_demo_prints_reference_line_and_passes(tmp_path, capsys):
    assert main(["demo-paper", "--out", str(tmp_path), "--n", "1500"]) == 0
    text = capsys.readouterr().out
    assert "(z^2+0.9z) / (z^3+0.4z^2-0.5z-0.8)" in text
    assert "(0.1z^2+0.34z+0.77) / (z^3+0.4z^2-0.5z-0.8)" in text
    assert "study result: PASS" in text
    assert (tmp_path / "demo_report.json").exists()


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

    _, model, report = dual_rate_run
    model_path = tmp_path / "model.json"
    save_model(model, model_path, rates=(2, 3),
               provenance={"convention": report.convention})
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
