import dataclasses

import numpy as np
import pytest

from cycsid import (
    SingularMatrixError,
    StructureViolationError,
    apply_transform,
    build_masks,
    build_transform,
    build_X_check,
    build_Y_check,
    cyclic_reformulate,
    extract_components,
    lift_selector,
    make_state_space,
    markov,
    model_transfer_check,
    rank_with_tol,
    shift_matrix,
    tf_distance,
    transfer_functions,
    verify_cyclic_form,
)
from cycsid.cyclic import is_block_diagonal, is_cyclic_matrix, place_blocks
from cycsid.pipeline import choose_transform

from conftest import extract_checked, identified_model


def as_identified(cs, M):
    """Wrap a true cycled system of period M as an identification result."""
    return identified_model(cs.A, cs.B, cs.C, cs.D, M)


def unit_F_blocks(n, l):
    """F_i, n x l: output 1 of a row block into row i of a state block."""
    blocks = [np.zeros((n, l)) for _ in range(n)]
    for i, F in enumerate(blocks):
        F[i, 0] = 1.0
    return blocks


def unit_G_blocks(n, m):
    """G_k, m x n: input 1 of a column block into column k of a state block."""
    blocks = [np.zeros((m, n)) for _ in range(n)]
    for k, G in enumerate(blocks):
        G[0, k] = 1.0
    return blocks


@pytest.fixture(scope="module")
def two_by_two_cycled(plant):
    """The benchmark dynamics with two inputs and two outputs, cycled at rates (1,3)."""
    rng = np.random.default_rng(5)
    wide = make_state_space(plant.A, rng.normal(size=(3, 2)), plant.C, rng.normal(size=(2, 2)))
    return cyclic_reformulate(wide, build_masks((1, 3)))


def test_reach_sum_reads_only_input_one(two_by_two_cycled):
    cs = two_by_two_cycled
    B = cs.B.copy()
    B.reshape(9, 3, 2)[:, :, 1] = np.random.default_rng(6).normal(size=(9, 3))
    other = dataclasses.replace(cs, B=B)
    assert not np.array_equal(other.B, cs.B)
    assert np.array_equal(build_Y_check(other, 3), build_Y_check(cs, 3))
    assert rank_with_tol(build_Y_check(cs, 3)) == 9


def test_observability_aggregate_reads_only_output_one(two_by_two_cycled):
    cs = two_by_two_cycled
    C = cs.C.copy()
    C.reshape(3, 2, 9)[:, 1] = np.random.default_rng(7).normal(size=(3, 9))
    other = dataclasses.replace(cs, C=C)
    assert not np.array_equal(other.C, cs.C)
    assert np.array_equal(build_X_check(other, 3), build_X_check(cs, 3))
    assert rank_with_tol(build_X_check(cs, 3)) == 9


def test_lift_selector():
    block = np.arange(6.0).reshape(3, 2)
    lifted = lift_selector(block, 3)
    assert lifted.shape == (9, 6)
    assert is_block_diagonal(lifted, 3, tol=0.0).passed
    assert np.array_equal(lift_selector(block, 1), block)


def dense_X_check(sys, M):
    """sum_{i<n, j<M} lift(F_i) S_l^j C A^(Mi+j), with the shift and the
    lifted unit selector as dense matrices."""
    n, l = sys.n // M, sys.l // M
    S, F = shift_matrix(l, M), unit_F_blocks(n, l)
    X = np.zeros((M * n, M * n))
    P = sys.C.copy()
    for p in range(M * n):
        i, j = divmod(p, M)
        X += lift_selector(F[i], M) @ np.linalg.matrix_power(S, j) @ P
        P = P @ sys.A
    return X


def dense_reach_sum(sys, M):
    """sum_{p<Mn} A^p B S_m^(p%M + 1) lift(G_(p mod n)), with dense shift and
    lifted unit-selector matrices."""
    n, m = sys.n // M, sys.m // M
    S, G = shift_matrix(m, M), unit_G_blocks(n, m)
    T = np.zeros((M * n, M * n))
    P = sys.B.copy()
    for p in range(M * n):
        T += P @ np.linalg.matrix_power(S, p % M + 1) @ lift_selector(G[p % n], M)
        P = sys.A @ P
    return T


ORACLE_RATES = {1: (1, 1), 2: (1, 2), 3: (1, 3), 6: (2, 3), 12: (3, 4)}


@pytest.mark.parametrize("M", sorted(ORACLE_RATES))
def test_block_roll_aggregates_match_dense_oracle(plant, M, request):
    cs = cyclic_reformulate(plant, build_masks(ORACLE_RATES[M]))
    rng = np.random.default_rng(M)
    P = rng.normal(size=(M * 3, M * 3)) + 3 * np.eye(M * 3)
    Pi = np.linalg.inv(P)
    dense = identified_model(Pi @ cs.A @ P, Pi @ cs.B, cs.C @ P, cs.D, M)
    systems = [as_identified(cs, M), dense]
    if M in (3, 6):
        run = request.getfixturevalue("mixed_rate_run" if M == 3 else "dual_rate_run")
        systems.append(run[1].source)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    for sys in systems:
        close(build_X_check(sys, M), dense_X_check(sys, M))
        close(build_Y_check(sys, M), dense_reach_sum(sys, M))
        assert np.array_equal(build_transform(sys)[0], build_Y_check(sys, M))


def test_aggregates_full_rank_and_structured(plant):
    spec = build_masks((2, 3))
    cs = cyclic_reformulate(plant, spec)
    X = build_X_check(cs, 6)
    Y = build_Y_check(cs, 6)
    assert rank_with_tol(X) == 18
    assert rank_with_tol(Y) == 18
    assert is_cyclic_matrix(X @ cs.B, 6, tol=0.0).passed
    assert is_block_diagonal(cs.C @ Y, 6, tol=0.0).passed


def test_aggregates_degenerate_ranks(plant):
    spec = build_masks((2, 3))
    blind = make_state_space(plant.A, plant.B, np.zeros((2, 3)), plant.D)
    cs = cyclic_reformulate(blind, spec)
    assert rank_with_tol(build_X_check(cs, 6)) == 0
    dead = make_state_space(plant.A, np.zeros((3, 1)), plant.C, plant.D)
    cs2 = cyclic_reformulate(dead, spec)
    assert rank_with_tol(build_Y_check(cs2, 6)) == 0


def test_transform_of_the_true_cycled_system_is_regular_and_restores_cyclic_form(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    idm = as_identified(cs, 3)
    T, attempt = build_transform(idm)
    assert attempt["regular"]
    rep = verify_cyclic_form(apply_transform(idm, T), 3, tol=1e-10)
    assert rep.passed, rep.max_offpattern


def test_transform_at_period_one_is_the_controllability_matrix():
    ss = make_state_space([[0.6, 0.1], [0.0, 0.3]], [[1.0], [1.0]],
                          [[1.0, 0.0]], [[0.0]])
    cs = cyclic_reformulate(ss, build_masks((1,)))
    idm = as_identified(cs, 1)
    Ta = build_transform(idm)[0]
    # M = 1 collapses to sum_i A^i B G_i, the controllability matrix here
    expect = np.column_stack([ss.B.ravel(), (ss.A @ ss.B).ravel()])
    assert np.abs(Ta - expect).max() <= 1e-14


def test_apply_transform_identity_leaves_model(plant):
    spec = build_masks((1, 3))
    idm = as_identified(cyclic_reformulate(plant, spec), 3)
    tr = apply_transform(idm, np.eye(9))
    assert np.abs(tr.A - idm.A).max() <= 1e-12
    assert np.abs(tr.B - idm.B).max() <= 1e-12


def test_apply_transform_preserves_markov(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    idm = as_identified(cs, 3)
    T = build_transform(idm)[0]
    tr = apply_transform(idm, T)
    H0 = markov(idm, 19)
    H1 = markov(tr, 19)
    assert max(np.abs(a - b).max() for a, b in zip(H0, H1)) <= 1e-9


def test_apply_transform_rejects_singular(plant):
    spec = build_masks((1, 3))
    idm = as_identified(cyclic_reformulate(plant, spec), 3)
    T = np.eye(9)
    T[0, 0] = 0.0
    with pytest.raises(SingularMatrixError):
        apply_transform(idm, T)


def test_true_system_transform_is_exact(corpus):
    # bypassing identification entirely: the transform built from the true
    # cycled matrices returns cyclic structure at 1e-10
    for case in corpus[:8]:
        cs, M = case["cycled"], case["spec"].M
        idm = as_identified(cs, M)
        T, attempt = build_transform(idm)
        assert attempt["regular"]
        rep = verify_cyclic_form(apply_transform(idm, T), M, tol=1e-10)
        assert rep.passed


def test_verify_cyclic_form_dense_fails(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    rng = np.random.default_rng(2)
    P = rng.normal(size=(9, 9)) + 3 * np.eye(9)
    Pi = np.linalg.inv(P)
    rep = verify_cyclic_form(make_state_space(Pi @ cs.A @ P, Pi @ cs.B, cs.C @ P, cs.D),
                             3, tol=1e-6)
    assert not rep.reports["A_cyclic"].passed


def test_extract_components_reads_blocks(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    form = verify_cyclic_form(cs, 3, tol=0.0)
    cm = extract_components(cs, 3, form)
    assert cm.structure is form  # kept as evidence, not measured again
    for i in range(3):
        assert np.array_equal(cm.A_phases[i], plant.A)
        assert np.array_equal(cm.B_phases[i], plant.B)
        assert np.array_equal(cm.C_phases[i], spec.masks[i] @ plant.C)
    assert np.array_equal(place_blocks(cm.A_phases, 1), cs.A)
    assert np.array_equal(place_blocks(cm.C_phases, 0), cs.C)


def test_choose_transform_rejects_dense(plant):
    # a dense perturbation of the cycled dynamics is cyclic in no basis: the
    # transform is regular, and the transformed model fails the one
    # cyclic-form check, so the one attempt raises with its record
    cs = cyclic_reformulate(plant, build_masks((1, 3)))
    dense = identified_model(cs.A + 0.01, cs.B, cs.C, cs.D, 3)
    with pytest.raises(StructureViolationError) as err:
        choose_transform(dense, 1e-6)
    message = str(err.value)
    assert message.count("'convention'") == 1
    assert "{'convention': 'general', 'rank': 9, 'regular': True, 'cond': " in message
    assert "'applied': True, 'structure_passed': False, 'max_offpattern': " in message


def test_model_transfer_check_true_components(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    cm = extract_checked(cs, 3, 0.0)
    passed, dists = model_transfer_check(cm, plant, spec, 1e-10)
    assert passed and dists.shape == (2, 1)


@pytest.mark.parametrize("offsets", [(0, 1), (1, 0)])
def test_recovered_plant_reads_each_output_where_it_is_sampled(plant, offsets):
    # phase 0 does not sample one output, so its C row there is zero; the
    # recovered plant reads that row from the first phase that samples it
    spec = build_masks((2, 3), offsets)
    cs = cyclic_reformulate(plant, spec)
    cm = extract_checked(cs, 6, 0.0)
    blind = offsets.index(1)
    assert not cm.C_phases[0][blind].any()
    rec = cm.recovered_plant(spec)
    for name in ("A", "B", "C", "D"):
        assert np.array_equal(getattr(rec, name), getattr(plant, name)), name
    passed, dists = model_transfer_check(cm, plant, spec, 1e-12)
    assert passed and dists.max() == 0.0


def test_model_transfer_check_detects_perturbed_reference(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    cm = extract_checked(cs, 3, 0.0)
    A2 = plant.A.copy()
    A2[0, 2] += 0.05
    other = make_state_space(A2, plant.B, plant.C, plant.D)
    passed, dists = model_transfer_check(cm, other, spec, 1e-6)
    assert not passed and dists.max() >= 0.01


def test_phase_freedom_structure_only_for_heterogeneous_blocks(plant):
    # distinct regular blocks keep the cyclic shape but scramble per-phase
    # equality; equal blocks preserve everything including transfer functions
    spec = build_masks((2, 3))
    cs = cyclic_reformulate(plant, spec)
    idm = as_identified(cs, 6)
    T = build_transform(idm)[0]
    rng = np.random.default_rng(40)

    hetero = np.zeros((18, 18))
    for i in range(6):
        hetero[3 * i:3 * i + 3, 3 * i:3 * i + 3] = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    tr = apply_transform(idm, T @ hetero)
    rep = verify_cyclic_form(tr, 6, tol=1e-9)
    assert rep.passed
    cm = extract_checked(tr, 6, 1e-9)
    devA, _ = cm.component_spread()
    assert devA > 1e-3  # phases genuinely differ now

    block = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    equal = lift_selector(block, 6)
    cm = extract_checked(apply_transform(idm, T @ equal), 6, 1e-9)
    devA, devB = cm.component_spread()
    assert devA <= 1e-9 and devB <= 1e-9
    passed, _ = model_transfer_check(cm, plant, spec, 1e-8)
    assert passed


def test_transform_restores_cyclic_form_on_identified_mixed_rate(mixed_rate_run):
    _, model, _ = mixed_rate_run
    idm = model.source
    T, attempt = build_transform(idm)
    assert attempt["regular"]
    rep = verify_cyclic_form(apply_transform(idm, T), 3, tol=1e-6)
    assert rep.passed, rep.max_offpattern


def test_aggregate_diagnostics_on_identified_model(dual_rate_run):
    from cycsid.transform import aggregate_diagnostics

    _, model, _ = dual_rate_run
    diag = aggregate_diagnostics(model.source, model.T, tol=1e-6)
    assert diag["selector_aggregate_blockdiag"].passed
    assert diag["selector_aggregate_rank"] == 18
    assert diag["aggregate_dynamics_cyclic"].passed


def test_reference_component_values_are_similar(plant):
    # frozen phase-0 components from an independent run in another state
    # basis; they must describe the same input/output behavior as the plant
    A_m0 = np.array([[1.0129, -2.0947, 2.3008],
                     [0.8062, -0.5788, 1.3884],
                     [-0.5685, 1.8355, -0.8341]])
    B_m0 = np.array([[-0.5783], [-0.7672], [0.8871]])
    C_m0 = np.array([[1.8058, 2.3016, 4.2947],
                     [0.6785, 2.1105, 2.3801]])
    displayed = make_state_space(A_m0, B_m0, C_m0, np.zeros((2, 1)))
    ref = transfer_functions(plant)
    got = transfer_functions(displayed)
    for i in range(2):
        assert tf_distance(ref[i][0], got[i][0]) <= 2e-3  # 4-decimal display rounding
