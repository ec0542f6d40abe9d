import numpy as np
import pytest

from cycsid import (
    CycledSignal,
    DimensionMismatchError,
    InvalidRateError,
    StateSpace,
    build_masks,
    cycle_signal,
    cycled_ranks,
    cyclic_reformulate,
    is_block_diagonal,
    is_cyclic_matrix,
    make_state_space,
    markov,
    shift_matrix,
    simulate,
    simulate_multirate,
    verify_markov_structure,
)


def uncycle_signal(samples, M):
    """Block k mod M of cycled sample k; asserts that no other block carries mass."""
    N = samples.shape[0]
    blocks = samples.reshape(N, M, -1)
    k = np.arange(N)
    stray = np.ones((N, M), dtype=bool)
    stray[k, k % M] = False
    assert np.abs(blocks[stray]).max(initial=0.0) <= 1e-12
    return blocks[k, k % M]


def cycled_initial_state(x0, M):
    """Mn-vector with x0 in block 0 and zeros elsewhere."""
    return np.concatenate([x0, np.zeros((M - 1) * len(x0))])


def test_shift_matrix_q1_M3():
    assert np.array_equal(shift_matrix(1, 3),
                          [[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_shift_matrix_period_one_is_identity():
    assert np.array_equal(shift_matrix(2, 1), np.eye(2))


def test_shift_matrix_has_period_M():
    for q, M in [(1, 3), (2, 4), (3, 6)]:
        S = shift_matrix(q, M)
        assert np.array_equal(np.linalg.matrix_power(S, M), np.eye(q * M))
    for q, M in [(0, 3), (2, 0)]:
        with pytest.raises(ValueError, match="^q and M must be positive$"):
            shift_matrix(q, M)


def test_shift_inverse_is_cyclic():
    S = shift_matrix(2, 4)
    rep = is_cyclic_matrix(S.T, 4, tol=0.0)
    assert rep.passed and rep.max_offpattern == 0.0


def test_cycle_signal_block_placement():
    c = cycle_signal(np.array([[5.0]]), 3)
    assert np.array_equal(c.samples[0], [5, 0, 0])
    c2 = cycle_signal(np.array([[0.0], [0], [0], [0], [7.0]]), 3)
    assert np.array_equal(c2.samples[4], [0, 7, 0])


def test_cycle_signal_period_one_identity():
    raw = np.arange(6.0).reshape(3, 2)
    c = cycle_signal(raw, 1)
    assert np.array_equal(c.samples, raw)
    assert np.array_equal(uncycle_signal(c.samples, c.M), raw)
    with pytest.raises(ValueError, match="^M must be positive$"):
        cycle_signal(raw, 0)


def test_cycle_uncycle_roundtrip():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(20, 2))
    c = cycle_signal(raw, 6)
    assert np.array_equal(uncycle_signal(c.samples, c.M), raw)


def test_cycled_signal_width_must_be_a_multiple_of_its_period():
    # the channels per phase block are the width over M
    assert cycle_signal(np.ones((4, 2)), 3).samples.shape == (4, 6)
    with pytest.raises(DimensionMismatchError, match="period 3 cannot be 4 channels wide"):
        CycledSignal(samples=np.zeros((5, 4)), M=3)


def test_cyclic_reformulate_mixed_rates(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    assert cs.A.shape == (9, 9) and cs.B.shape == (9, 3)
    assert cs.C.shape == (6, 9) and np.array_equal(cs.D, np.zeros((6, 3)))
    # cyclic block placement: A at (1,0), (2,1), (0,2)
    for i in range(3):
        r = (i + 1) % 3
        assert np.array_equal(cs.A[3 * r:3 * r + 3, 3 * i:3 * i + 3], plant.A)
        assert np.array_equal(cs.B[3 * r:3 * r + 3, i:i + 1], plant.B)
        assert np.array_equal(cs.C[2 * i:2 * i + 2, 3 * i:3 * i + 3],
                              spec.masks[i] @ plant.C)
    assert is_cyclic_matrix(cs.A, 3, tol=0.0).passed
    assert is_block_diagonal(cs.C, 3, tol=0.0).passed


def test_cyclic_reformulate_is_a_state_space_of_the_cycled_sizes(plant):
    cs = cyclic_reformulate(plant, build_masks((2, 3)))
    assert isinstance(cs, StateSpace)
    assert (cs.n, cs.m, cs.l) == (18, 6, 12)


def test_cyclic_reformulate_rejects_another_output_count(plant):
    with pytest.raises(InvalidRateError, match="^1 rates for a plant with 2 outputs$"):
        cyclic_reformulate(plant, build_masks((2,)))


def test_cyclic_reformulate_period_one_collapse(plant):
    spec = build_masks((1, 1))
    cs = cyclic_reformulate(plant, spec)
    assert np.array_equal(cs.A, plant.A)
    assert np.array_equal(cs.B, plant.B)
    assert np.array_equal(cs.C, plant.C)
    assert np.array_equal(cs.D, plant.D)


def test_cyclic_reformulate_zero_row_blocks(plant):
    spec = build_masks((2, 3))
    cs = cyclic_reformulate(plant, spec)
    for k in (1, 5):  # fully masked phases
        assert np.all(cs.C[2 * k:2 * k + 2] == 0)


def test_cycled_state_tracks_flat_state(plant):
    rng = np.random.default_rng(8)
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    u = rng.uniform(-1, 1, (20, 1))
    x0 = rng.normal(size=3)
    flat = simulate(plant, u, x0)
    uc = cycle_signal(u, 3)
    cyc = simulate(cs, uc.samples, cycled_initial_state(x0, 3))
    for k in range(20):
        p = k % 3
        assert np.abs(cyc.x[k, 3 * p:3 * p + 3] - flat.x[k]).max() <= 1e-12
        off = np.delete(cyc.x[k].reshape(3, 3), p, axis=0)
        assert np.all(off == 0)


def test_cycled_flat_output_equivalence(corpus):
    rng = np.random.default_rng(9)
    for case in corpus[:8]:
        ss, spec, cs = case["plant"], case["spec"], case["cycled"]
        u = rng.uniform(-1, 1, (20, ss.m))
        flat = simulate_multirate(ss, spec, u)
        cyc = simulate(cs, cycle_signal(u, spec.M).samples,
                       cycled_initial_state(np.zeros(ss.n), spec.M))
        back = uncycle_signal(cyc.y, spec.M)
        assert np.abs(back - flat.y).max() <= 1e-12


def test_is_block_diagonal_accepts_blockdiag():
    rng = np.random.default_rng(10)
    blocks = [rng.normal(size=(2, 3)) for _ in range(4)]
    mat = np.zeros((8, 12))
    for i, b in enumerate(blocks):
        mat[2 * i:2 * i + 2, 3 * i:3 * i + 3] = b
    rep = is_block_diagonal(mat, 4, tol=0.0)
    assert rep.passed and rep.max_offpattern == 0.0


def test_is_block_diagonal_rejects_shift():
    rep = is_block_diagonal(shift_matrix(1, 3), 3, tol=1e-9)
    assert not rep.passed and rep.max_offpattern == 1.0


def test_is_cyclic_rejects_identity():
    assert not is_cyclic_matrix(np.eye(6), 3, tol=1e-9).passed


def test_structure_checks_reject_bad_shape():
    with pytest.raises(DimensionMismatchError):
        is_block_diagonal(np.eye(5), 3)
    with pytest.raises(DimensionMismatchError):
        is_cyclic_matrix(np.eye(5), 3)
    # the block sizes are the shape over M, so a 6 x 4 matrix at M = 3 has none
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected 3 x 3 blocks, got shape \(6, 4\)$"):
        is_block_diagonal(np.zeros((6, 4)), 3)
    # an empty matrix has no entry off the pattern
    rep = is_cyclic_matrix(np.zeros((0, 0)), 3, tol=0.0)
    assert rep.passed and rep.max_offpattern == 0.0


def test_shift_adjusted_first_markov_is_block_diagonal(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    H1 = markov(cs, 2)[1]
    rep = is_block_diagonal(H1 @ shift_matrix(1, 3), 3, tol=0.0)
    assert rep.passed


def test_verify_markov_structure_exact_on_true_system(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    H = markov(cs, 10)
    rep = verify_markov_structure(H, 3, tol=0.0, maxdepth=8)
    assert rep.passed and rep.max_offpattern == 0.0


def test_verify_markov_structure_flags_injected_defect(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    H = [h.copy() for h in markov(cs, 10)]
    H[2][3, 0] += 0.1  # off-diagonal-block position for the (0, 2) check
    rep = verify_markov_structure(H, 3, tol=1e-9, maxdepth=8)
    assert not rep.passed
    assert [lag for lag, _ in rep.failing()] == [2]
    assert rep.reports[2].max_offpattern == rep.max_offpattern == pytest.approx(0.1)


def test_verify_markov_structure_needs_every_lag_up_to_maxdepth(plant):
    H = markov(cyclic_reformulate(plant, build_masks((1, 3))), 3)
    with pytest.raises(DimensionMismatchError, match="^need 4 Markov matrices, got 3$"):
        verify_markov_structure(H, 3, 1e-12, maxdepth=3)


def test_markov_exchange_forms_agree_up_to_phase_rotation(corpus):
    # Left- and right-shifted forms are both block diagonal; left's block c
    # equals right's block (c+i) mod M, and they coincide outright when the
    # masks cannot distinguish phases (all rates 1) or i is a period multiple.
    for case in corpus[:6]:
        cs, M = case["cycled"], case["spec"].M
        l, m = cs.l // M, cs.m // M
        Sl = shift_matrix(l, M)
        Sm = shift_matrix(m, M)
        uniform_masks = all(r == 1 for r in case["rates"])
        H = markov(cs, 10)
        for i in range(1, 9):
            lhs = np.linalg.matrix_power(Sl, i % M) @ H[i]
            rhs = H[i] @ np.linalg.matrix_power(Sm, i % M)
            assert is_block_diagonal(lhs, M, tol=0.0).passed
            assert is_block_diagonal(rhs, M, tol=0.0).passed
            for c in range(M):
                p = (c + i) % M
                lb = lhs[l * c:l * c + l, m * c:m * c + m]
                rb = rhs[l * p:l * p + l, m * p:m * p + m]
                assert np.abs(lb - rb).max() <= 1e-12
            if uniform_masks or i % M == 0:
                assert np.abs(lhs - rhs).max() <= 1e-12


def test_blockdiag_conjugation_shifts_blocks():
    rng = np.random.default_rng(12)
    M, q = 4, 2
    blocks = [rng.normal(size=(q, q)) for _ in range(M)]
    E = np.zeros((M * q, M * q))
    for i, b in enumerate(blocks):
        E[q * i:q * i + q, q * i:q * i + q] = b
    S = shift_matrix(q, M)
    conj = S.T @ E @ S  # S^-1 E S
    rep = is_block_diagonal(conj, M, tol=0.0)
    assert rep.passed
    for i in range(M):
        assert np.array_equal(conj[q * i:q * i + q, q * i:q * i + q],
                              blocks[(i - 1) % M])


def test_cycled_ranks(plant):
    spec = build_masks((1, 3))
    assert cycled_ranks(cyclic_reformulate(plant, spec)) == (9, 9)


def test_cycled_ranks_zero_input(plant):
    ss = make_state_space(plant.A, np.zeros((3, 1)), plant.C, plant.D)
    spec = build_masks((1, 3))
    rc, _ = cycled_ranks(cyclic_reformulate(ss, spec))
    assert rc == 0


def _shift_adjusted_oracle(H, l, m, M, tol, maxdepth):
    """The check by definition: dense shift products, block by block."""
    Sl, Sm = shift_matrix(l, M), shift_matrix(m, M)

    def offpattern(mat, keep):
        return max((np.abs(mat[a * l:(a + 1) * l, b * m:(b + 1) * m]).max()
                    for a in range(M) for b in range(M) if not keep(a, b)), default=0.0)

    out = {}
    for i in range(maxdepth + 1):
        for j in range(maxdepth + 1 - i):
            left = np.linalg.matrix_power(Sl, i) @ H[i + j]
            out[(i, j, "diagonal")] = offpattern(left @ np.linalg.matrix_power(Sm, j),
                                                 lambda a, b: a == b)
            if j >= 1:
                out[(i, j, "cyclic")] = offpattern(left @ np.linalg.matrix_power(Sm, j - 1),
                                                   lambda a, b: a == (b + 1) % M)
    return out


@pytest.mark.parametrize("M", [1, 3, 4, 6])
def test_verify_markov_structure_matches_shift_matrix_oracle(M):
    rng = np.random.default_rng(M)
    l, m, depth = 2, 1, 7
    H = []
    for s in range(depth + 1):
        h = rng.normal(size=(M * l, M * m))
        for a in range(M):
            for b in range(M):
                if (a - b - s) % M:
                    h[a * l:(a + 1) * l, b * m:(b + 1) * m] = 0.0
        H.append(h)
    for s, size in ((2, 1e-3), (5, 0.2), (7, 1e-8)):
        if M > 1:
            a = int(rng.integers(M))
            H[s][((a + 1) * l) % (M * l), ((a - s) % M) * m] += size  # block (a+1, a-s)

    tol = 1e-6
    rep = verify_markov_structure(H, M, tol=tol, maxdepth=depth)
    want = _shift_adjusted_oracle(H, l, m, M, tol, depth)
    assert sorted(rep.reports) == list(range(depth + 1))
    for (i, j, name), v in want.items():
        assert rep.reports[i + j].max_offpattern == v, (i, j, name)
    assert rep.max_offpattern == max(want.values())
    assert rep.passed == (max(want.values()) <= tol)
    assert {lag for lag, _ in rep.failing()} == {i + j for (i, j, _), v in want.items() if v > tol}
    if M > 1:
        assert {lag for lag, _ in rep.failing()} == {2, 5}
