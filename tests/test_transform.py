import numpy as np
import pytest

from cycsid import (
    RankConditionError,
    SingularMatrixError,
    StructureViolationError,
    apply_transform,
    build_masks,
    build_transform,
    build_X_check,
    build_Y_check,
    cyclic_reformulate,
    default_selector_F,
    default_selector_G,
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
from cycsid.cyclic import is_block_diagonal, is_cyclic_matrix
from cycsid.pipeline import choose_transform
from cycsid.subspace import IdentifiedModel
from cycsid.transform import SelectorF, SelectorG

from conftest import extract_checked


def as_identified(cs):
    """Wrap a true cycled system as an identification result."""
    order = cs.M * cs.n
    return IdentifiedModel(A=cs.A, B=cs.B, C=cs.C, D=cs.D, order=order,
                           n=cs.n, m=cs.m, l=cs.l, M=cs.M,
                           x0=np.zeros(order), singular_values=np.zeros(0))


def test_default_selector_F_single_output():
    F = default_selector_F(3, 1)
    assert np.array_equal(np.hstack(F.blocks), np.eye(3))


def test_default_selector_F_two_outputs():
    F = default_selector_F(3, 2)
    stacked_first_cols = np.column_stack([b[:, 0] for b in F.blocks])
    assert np.array_equal(stacked_first_cols, np.eye(3))
    assert rank_with_tol(np.hstack(F.blocks)) == 3


def test_default_selector_G_single_input():
    G = default_selector_G(3, 1)
    assert np.array_equal(np.vstack(G.blocks), np.eye(3))


def test_default_selector_G_two_inputs():
    G = default_selector_G(2, 2)
    assert rank_with_tol(np.vstack(G.blocks)) == 2


def test_selectors_reject_rank_deficiency():
    with pytest.raises(RankConditionError):
        SelectorF(blocks=(np.zeros((2, 1)), np.zeros((2, 1))))
    with pytest.raises(RankConditionError):
        SelectorG(blocks=(np.ones((1, 2)), np.ones((1, 2))))


def test_lift_selector():
    block = np.arange(6.0).reshape(3, 2)
    lifted = lift_selector(block, 3)
    assert lifted.shape == (9, 6)
    assert is_block_diagonal(lifted, 3, 2, 3, tol=0.0).passed
    assert np.array_equal(lift_selector(block, 1), block)


def dense_X_check(sys, F):
    """sum_{i<n, j<M} lift(F_i) S_l^j C A^(Mi+j), with the shift and the
    lifted selector as dense matrices."""
    n, l, M = sys.n, sys.l, sys.M
    S = shift_matrix(l, M)
    X = np.zeros((M * n, M * n))
    P = sys.C.copy()
    for p in range(M * n):
        i, j = divmod(p, M)
        X += lift_selector(F.blocks[i], M) @ np.linalg.matrix_power(S, j) @ P
        P = P @ sys.A
    return X


def dense_reach_sum(sys, G, convention):
    """sum_{p<Mn} A^p B S_m^(p%M + 1) lift(G_k), k = p mod n ("general") or
    p // M ("example"), with dense shift and lifted-selector matrices."""
    n, m, M = sys.n, sys.m, sys.M
    S = shift_matrix(m, M)
    T = np.zeros((M * n, M * n))
    P = sys.B.copy()
    for p in range(M * n):
        i, j = divmod(p, M)
        k = p % n if convention == "general" else i
        T += P @ np.linalg.matrix_power(S, j % M + 1) @ lift_selector(G.blocks[k], M)
        P = sys.A @ P
    return T


ORACLE_RATES = {1: (1, 1), 2: (1, 2), 3: (1, 3), 6: (2, 3), 12: (3, 4)}


@pytest.mark.parametrize("M", sorted(ORACLE_RATES))
def test_block_roll_aggregates_match_dense_oracle(plant, M, request):
    cs = cyclic_reformulate(plant, build_masks(ORACLE_RATES[M]))
    rng = np.random.default_rng(M)
    P = rng.normal(size=(M * 3, M * 3)) + 3 * np.eye(M * 3)
    Pi = np.linalg.inv(P)
    dense = IdentifiedModel(A=Pi @ cs.A @ P, B=Pi @ cs.B, C=cs.C @ P, D=cs.D, order=M * 3,
                            n=3, m=1, l=2, M=M, x0=np.zeros(M * 3),
                            singular_values=np.zeros(0))
    systems = [as_identified(cs), dense]
    if M in (3, 6):
        run = request.getfixturevalue("mixed_rate_run" if M == 3 else "dual_rate_run")
        systems.append(run[1].source)
    selectors = [(default_selector_F(3, 2), default_selector_G(3, 1)),
                 (SelectorF(tuple(rng.normal(size=(3, 2)) for _ in range(3))),
                  SelectorG(tuple(rng.normal(size=(1, 3)) for _ in range(3))))]

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    for sys in systems:
        for F, G in selectors:
            close(build_X_check(sys, F), dense_X_check(sys, F))
            close(build_Y_check(sys, G), dense_reach_sum(sys, G, "general"))
            for conv in ("general", "example"):
                close(build_transform(sys, G, 3, 1, M, conv).matrix,
                      dense_reach_sum(sys, G, conv))


def test_aggregates_full_rank_and_structured(plant):
    spec = build_masks((2, 3))
    cs = cyclic_reformulate(plant, spec)
    X = build_X_check(cs, default_selector_F(3, 2))
    Y = build_Y_check(cs, default_selector_G(3, 1))
    assert rank_with_tol(X) == 18
    assert rank_with_tol(Y) == 18
    assert is_cyclic_matrix(X @ cs.B, 3, 1, 6, tol=0.0).passed
    assert is_block_diagonal(cs.C @ Y, 2, 3, 6, tol=0.0).passed


def test_aggregates_degenerate_ranks(plant):
    spec = build_masks((2, 3))
    blind = make_state_space(plant.A, plant.B, np.zeros((2, 3)), plant.D)
    cs = cyclic_reformulate(blind, spec)
    assert rank_with_tol(build_X_check(cs, default_selector_F(3, 2))) == 0
    dead = make_state_space(plant.A, np.zeros((3, 1)), plant.C, plant.D)
    cs2 = cyclic_reformulate(dead, spec)
    assert rank_with_tol(build_Y_check(cs2, default_selector_G(3, 1))) == 0


def test_transform_regular_both_conventions_true_system(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    idm = as_identified(cs)
    G = default_selector_G(3, 1)
    for conv in ("general", "example"):
        tres = build_transform(idm, G, 3, 1, 3, conv)
        assert tres.regular, conv
        Am, Bm, Cm, Dm = apply_transform(idm, tres.matrix)
        rep = verify_cyclic_form(Am, Bm, Cm, Dm, 3, 1, 2, 3, tol=1e-10)
        assert rep.passed, (conv, rep.max_offpattern)


def test_transform_period_one_conventions_coincide():
    ss = make_state_space([[0.6, 0.1], [0.0, 0.3]], [[1.0], [1.0]],
                          [[1.0, 0.0]], [[0.0]])
    cs = cyclic_reformulate(ss, build_masks((1,)))
    idm = as_identified(cs)
    G = default_selector_G(2, 1)
    Ta = build_transform(idm, G, 2, 1, 1, "general").matrix
    Tb = build_transform(idm, G, 2, 1, 1, "example").matrix
    assert np.array_equal(Ta, Tb)
    # M = 1 collapses to sum_i A^i B G_i, the controllability matrix here
    expect = np.column_stack([ss.B.ravel(), (ss.A @ ss.B).ravel()])
    assert np.abs(Ta - expect).max() <= 1e-14


def test_apply_transform_identity_leaves_model(plant):
    spec = build_masks((1, 3))
    idm = as_identified(cyclic_reformulate(plant, spec))
    Am, Bm, Cm, Dm = apply_transform(idm, np.eye(9))
    assert np.abs(Am - idm.A).max() <= 1e-12
    assert np.abs(Bm - idm.B).max() <= 1e-12


def test_apply_transform_preserves_markov(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    idm = as_identified(cs)
    T = build_transform(idm, default_selector_G(3, 1), 3, 1, 3).matrix
    Am, Bm, Cm, Dm = apply_transform(idm, T)
    tr = IdentifiedModel(A=Am, B=Bm, C=Cm, D=Dm, order=9, n=3, m=1, l=2, M=3,
                         x0=np.zeros(9), singular_values=np.zeros(0))
    H0 = markov(idm, 19)
    H1 = markov(tr, 19)
    assert max(np.abs(a - b).max() for a, b in zip(H0, H1)) <= 1e-9


def test_apply_transform_rejects_singular(plant):
    spec = build_masks((1, 3))
    idm = as_identified(cyclic_reformulate(plant, spec))
    T = np.eye(9)
    T[0, 0] = 0.0
    with pytest.raises(SingularMatrixError):
        apply_transform(idm, T)


def test_true_system_transform_is_exact(corpus):
    # bypassing identification entirely: the transform built from the true
    # cycled matrices returns cyclic structure at 1e-10
    for case in corpus[:8]:
        cs = case["cycled"]
        idm = as_identified(cs)
        G = default_selector_G(cs.n, cs.m)
        tres = build_transform(idm, G, cs.n, cs.m, cs.M, "general")
        assert tres.regular
        Am, Bm, Cm, Dm = apply_transform(idm, tres.matrix)
        rep = verify_cyclic_form(Am, Bm, Cm, Dm, cs.n, cs.m, cs.l, cs.M, tol=1e-10)
        assert rep.passed


def test_verify_cyclic_form_dense_fails(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    rng = np.random.default_rng(2)
    P = rng.normal(size=(9, 9)) + 3 * np.eye(9)
    Pi = np.linalg.inv(P)
    rep = verify_cyclic_form(Pi @ cs.A @ P, Pi @ cs.B, cs.C @ P, cs.D,
                             3, 1, 2, 3, tol=1e-6)
    assert not rep.reports["A_cyclic"].passed


def test_extract_components_reads_blocks(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    form = verify_cyclic_form(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3, tol=0.0)
    cm = extract_components(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3, form)
    assert cm.structure is form  # kept as evidence, not measured again
    for i in range(3):
        assert np.array_equal(cm.A_phases[i], plant.A)
        assert np.array_equal(cm.B_phases[i], plant.B)
        assert np.array_equal(cm.C_phases[i], spec.masks[i] @ plant.C)
    asm = cm.assemble()
    assert np.array_equal(asm[0], cs.A)
    assert np.array_equal(asm[2], cs.C)


def test_choose_transform_rejects_dense(plant):
    # a dense perturbation of the cycled dynamics is cyclic in no basis: each
    # convention's transform is regular, and each transformed model fails the
    # one cyclic-form check, so the search raises
    cs = cyclic_reformulate(plant, build_masks((1, 3)))
    dense = IdentifiedModel(A=cs.A + 0.01, B=cs.B, C=cs.C, D=cs.D, order=9, n=3, m=1, l=2,
                            M=3, x0=np.zeros(9), singular_values=np.zeros(0))
    with pytest.raises(StructureViolationError) as err:
        choose_transform(dense, 3, 1, 2, 3, 1e-6)
    for conv in ("general", "example"):
        assert (f"'convention': '{conv}', 'rank': 9, 'regular': True, 'applied': True, "
                "'structure_passed': False") in str(err.value)


def test_model_transfer_check_true_components(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    cm = extract_checked(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3, 0.0)
    passed, dists = model_transfer_check(cm, plant, spec, 1e-10)
    assert passed and dists.shape == (2, 1)


@pytest.mark.parametrize("offsets", [(0, 1), (1, 0)])
def test_recovered_plant_reads_each_output_where_it_is_sampled(plant, offsets):
    # phase 0 does not sample one output, so its C row there is zero; the
    # recovered plant reads that row from the first phase that samples it
    spec = build_masks((2, 3), offsets)
    cs = cyclic_reformulate(plant, spec)
    cm = extract_checked(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 6, 0.0)
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
    cm = extract_checked(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3, 0.0)
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
    idm = as_identified(cs)
    G = default_selector_G(3, 1)
    T = build_transform(idm, G, 3, 1, 6, "general").matrix
    rng = np.random.default_rng(40)

    hetero = np.zeros((18, 18))
    for i in range(6):
        hetero[3 * i:3 * i + 3, 3 * i:3 * i + 3] = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    Am, Bm, Cm, Dm = apply_transform(idm, T @ hetero)
    rep = verify_cyclic_form(Am, Bm, Cm, Dm, 3, 1, 2, 6, tol=1e-9)
    assert rep.passed
    cm = extract_checked(Am, Bm, Cm, Dm, 3, 1, 2, 6, 1e-9)
    devA, _ = cm.component_spread()
    assert devA > 1e-3  # phases genuinely differ now

    block = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    equal = lift_selector(block, 6)
    Am, Bm, Cm, Dm = apply_transform(idm, T @ equal)
    cm = extract_checked(Am, Bm, Cm, Dm, 3, 1, 2, 6, 1e-9)
    devA, devB = cm.component_spread()
    assert devA <= 1e-9 and devB <= 1e-9
    passed, _ = model_transfer_check(cm, plant, spec, 1e-8)
    assert passed


def test_both_conventions_validate_on_identified_mixed_rate(mixed_rate_run):
    _, model, _ = mixed_rate_run
    idm = model.source
    G = default_selector_G(3, 1)
    for conv in ("general", "example"):
        tres = build_transform(idm, G, 3, 1, 3, conv)
        assert tres.regular, conv
        Am, Bm, Cm, Dm = apply_transform(idm, tres.matrix)
        rep = verify_cyclic_form(Am, Bm, Cm, Dm, 3, 1, 2, 3, tol=1e-6)
        assert rep.passed, (conv, rep.max_offpattern)


def test_identified_transform_example_convention_rank(dual_rate_run):
    # the outer-index convention must also be regular on the identified model
    _, model, _ = dual_rate_run
    tres = build_transform(model.source, default_selector_G(3, 1), 3, 1, 6, "example")
    assert tres.rank == 18
    assert rank_with_tol(tres.matrix, 1e-10) == 18


def test_aggregate_diagnostics_on_identified_model(dual_rate_run):
    from cycsid.transform import aggregate_diagnostics

    _, model, _ = dual_rate_run
    diag = aggregate_diagnostics(model.source, model.T,
                                 default_selector_F(3, 2), tol=1e-6)
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
