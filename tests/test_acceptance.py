"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import numpy as np

from cycsid import (
    ExperimentConfig,
    apply_transform,
    build_masks,
    build_X_check,
    build_Y_check,
    cyclic_reformulate,
    default_selector_F,
    default_selector_G,
    is_block_diagonal,
    is_cyclic_matrix,
    lift_selector,
    markov,
    markov_match,
    model_transfer_check,
    rank_with_tol,
    run_identification,
    shift_matrix,
    subspace_identify,
    tf_distance,
    transfer_functions,
    verify_markov_structure,
)

from cycsid.cyclic import read_blocks

from conftest import extract_checked, random_plant


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_dual_rate_transfer_recovery(dual_rate_run, plant):
    cfg, model, report = dual_rate_run
    ref = transfer_functions(plant)
    got = transfer_functions(model.recovered_plant(build_masks(cfg.rates)))
    d1 = tf_distance(ref[0][0], got[0][0])
    d2 = tf_distance(ref[1][0], got[1][0])
    # pin the reference coefficients themselves before using them as oracle
    assert np.allclose(ref[0][0].num, [1.0, 0.9, 0.0], atol=1e-13)
    assert np.allclose(ref[0][0].den, [1.0, 0.4, -0.5, -0.8], atol=1e-13)
    assert np.allclose(ref[1][0].num, [0.1, 0.34, 0.77], atol=1e-13)
    runtime = report.timings["total"]
    ok = d1 <= 1e-6 and d2 <= 1e-6 and runtime <= 30.0
    _report("1 dual-rate transfer recovery", ok,
            f"distances ({d1:.3g}, {d2:.3g}) <= 1e-6, runtime {runtime:.2f}s <= 30s")


def test_criterion_2_dual_rate_rank_facts(dual_rate_run):
    _, model, report = dual_rate_run
    r = report.ranks
    rank_T = rank_with_tol(model.T, 1e-9)
    ok = (r["controllability"] == 18 and r["observability"] == 18 and rank_T == 18)
    _report("2 dual-rate rank facts", ok,
            f"ctrl {r['controllability']}, obsv {r['observability']}, transform {rank_T} (all 18)")


def test_criterion_3_dual_rate_structure_facts(dual_rate_run):
    _, model, report = dual_rate_run
    forms = report.cyclic_form
    structure_ok = all(forms[k]["passed"] for k in
                       ("A_cyclic", "B_cyclic", "C_block_diagonal", "D_block_diagonal"))
    devA, _ = model.component_spread()
    c1 = np.abs(model.C_phases[1]).max()
    c5 = np.abs(model.C_phases[5]).max()
    # masked rows follow the phase pattern: row 2 blank at phases 2 and 4,
    # row 1 blank at phase 3
    row_zeros = max(np.abs(model.C_phases[2][1]).max(),
                    np.abs(model.C_phases[4][1]).max(),
                    np.abs(model.C_phases[3][0]).max())
    ok = structure_ok and devA <= 1e-6 and c1 <= 1e-6 and c5 <= 1e-6 and row_zeros <= 1e-6
    _report("3 dual-rate structure facts", ok,
            f"forms pass={structure_ok}, A spread {devA:.3g}, "
            f"blank phases ({c1:.3g}, {c5:.3g}), masked rows {row_zeros:.3g}")


def test_criterion_4_mixed_rate_markov_reproduction(plant, mixed_rate_run):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    H = markov(cs, 5)
    S1 = shift_matrix(1, 3)

    # independent oracle: direct small-matrix products placed per mask
    A, B, C = plant.A, plant.B, plant.C
    ks = [C @ B, C @ A @ B, C @ A @ A @ B, C @ A @ A @ A @ B]
    expected = []
    for k in ks:
        E = np.zeros((6, 3))
        for phase in range(3):
            E[2 * phase:2 * phase + 2, phase:phase + 1] = spec.masks[phase] @ k
        expected.append(E)

    worst_true = 0.0
    for i in range(1, 5):
        got = H[i] @ np.linalg.matrix_power(S1, i % 3)
        worst_true = max(worst_true, np.abs(got - expected[i - 1]).max())

    # displayed digits (magnitudes) at the displayed positions
    displayed = {1: (1.0, 0.1), 2: (0.5, 0.3), 3: (0.3, 0.7), 4: (0.93, 0.05)}
    digits_ok = True
    for i, (top, second) in displayed.items():
        got = np.abs(H[i] @ np.linalg.matrix_power(S1, i % 3))
        digits_ok &= abs(got[0, 0] - top) <= 1e-12 and abs(got[1, 0] - second) <= 1e-12
        digits_ok &= abs(got[2, 1] - top) <= 1e-12 and abs(got[4, 2] - top) <= 1e-12

    _, model, _ = mixed_rate_run
    H_id = markov(model.source, 5)
    worst_id = max(
        np.abs(H_id[i] @ np.linalg.matrix_power(S1, i % 3) - expected[i - 1]).max()
        for i in range(1, 5)
    )
    ok = worst_true <= 1e-12 and digits_ok and worst_id <= 1e-3
    _report("4 mixed-rate Markov reproduction", ok,
            f"true err {worst_true:.3g} <= 1e-12, displayed digits {digits_ok}, "
            f"identified err {worst_id:.3g} <= 1e-3")


def test_criterion_5_markov_structure_on_corpus(corpus):
    worst = 0.0
    for case in corpus:
        cs = case["cycled"]
        depth = 2 * cs.M * cs.n
        H = markov(cs, depth + 1)
        rep = verify_markov_structure(H, cs.l, cs.m, cs.M, tol=1e-12, maxdepth=depth)
        worst = max(worst, rep.max_offpattern)
        assert rep.passed, (case["rates"], rep.failing()[:3])
    _report("5 shift-adjusted Markov structure on corpus", worst <= 1e-12,
            f"20 plants, worst off-pattern {worst:.3g}")


def test_criterion_6_aggregate_structure_on_corpus(corpus):
    ok = True
    detail = []
    for case in corpus:
        cs = case["cycled"]
        order = cs.M * cs.n
        X = build_X_check(cs, default_selector_F(cs.n, cs.l))
        Y = build_Y_check(cs, default_selector_G(cs.n, cs.m))
        cyc = is_cyclic_matrix(X @ cs.B, cs.n, cs.m, cs.M, tol=1e-12)
        bd = is_block_diagonal(cs.C @ Y, cs.l, cs.n, cs.M, tol=1e-12)
        rx, ry = rank_with_tol(X), rank_with_tol(Y)
        case_ok = cyc.passed and bd.passed and rx == order and ry == order
        if not case_ok:
            detail.append((case["rates"], rx, ry, cyc.max_offpattern, bd.max_offpattern))
        ok = ok and case_ok
    _report("6 selector aggregate structure on corpus", ok,
            "all ranks full, structures exact" if ok else str(detail))


def test_criterion_7_single_rate_degeneration():
    rng = np.random.default_rng(420)
    worst = 0.0
    for n in (1, 2, 4):
        ss = random_plant(rng, n, 1)
        cfg = ExperimentConfig(plant=ss, rates=(1,), N=500,
                               input={"kind": "uniform", "amplitude": 1.0, "seed": 1000 + n})
        model, report = run_identification(cfg)
        H_true = markov(ss, 21)
        H_pipe = markov(model.source, 21)
        _, err, _ = markov_match(H_true, H_pipe, 20, 1e-8)
        worst = max(worst, err)
        # the cycled path with M=1 must agree with plain identification
        from cycsid.pipeline import generate_input
        from cycsid.statespace import simulate

        u = generate_input(cfg)
        log = simulate(ss, u)
        plain = subspace_identify(u, log.y, order=n)
        H_plain = markov(plain, 21)
        agree = max(np.linalg.norm(a - b) for a, b in zip(H_pipe, H_plain))
        assert agree <= 1e-12, agree
    _report("7 single-rate degeneration", worst <= 1e-8,
            f"worst Markov error {worst:.3g} <= 1e-8 at depth 20")


def test_criterion_8_cyclic_form_positive_and_negative_controls(corpus_runs):
    # identification places each phase in its own state block, so the raw
    # model already has the cyclic pattern, in a basis of its own per phase:
    # its A phase blocks disagree until the transform aligns them
    ok = True
    neg_checked = 0
    for run in corpus_runs:
        report = run["report"]
        model = run["model"]
        ok = ok and all(v["passed"] for v in report.cyclic_form.values())
        ok = ok and max(report.component_spread.values()) <= 1e-6
        cs = run["case"]["cycled"]
        if cs.M >= 2:
            raw = model.source
            ok = ok and is_cyclic_matrix(raw.A, cs.n, cs.n, cs.M, tol=0.0).passed
            phases = read_blocks(raw.A, cs.M, 1)
            ok = ok and max(np.abs(X - phases[0]).max() for X in phases) > 1e-6
            neg_checked += 1
    _report("8 transformed passes, raw phases disagree", ok and neg_checked >= 10,
            f"positive on 20 runs, negative control on {neg_checked} multirate runs")


def test_criterion_9_coordinate_freedom(dual_rate_run, plant):
    _, model, _ = dual_rate_run
    idm = model.source
    rng = np.random.default_rng(88)
    ok = True
    details = []
    for trial in range(5):
        block = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        phi = lift_selector(block, 6)
        Am, Bm, Cm, Dm = apply_transform(idm, model.T @ phi)
        cm = extract_checked(Am, Bm, Cm, Dm, 3, 1, 2, 6, 1e-6)
        devA, _ = cm.component_spread()
        c_blank = max(np.abs(cm.C_phases[1]).max(), np.abs(cm.C_phases[5]).max())
        passed, dists = model_transfer_check(cm, plant, build_masks((2, 3)), 1e-6)
        trial_ok = cm.structure.passed and devA <= 1e-6 and c_blank <= 1e-6 and passed
        details.append(f"trial {trial}: spread {devA:.2g} tf {dists.max():.2g}")
        ok = ok and trial_ok
    _report("9 coordinate freedom", ok, "; ".join(details[:2]) + " ...")
