import tracemalloc

import numpy as np
import pytest

from cycsid import (
    DimensionMismatchError,
    ExcitationDeficientError,
    InsufficientDataError,
    build_block_hankel,
    build_masks,
    cycle_signal,
    cyclic_reformulate,
    make_state_space,
    markov,
    markov_match,
    simulate,
    simulate_multirate,
    subspace_identify,
)


def test_hankel_scalar():
    H = build_block_hankel([1.0, 2.0, 3.0, 4.0], rows=2, cols=2)
    assert np.array_equal(H, [[1, 2], [2, 3]])


def test_hankel_start_offset():
    H = build_block_hankel([1.0, 2.0, 3.0, 4.0], rows=2, cols=2, start=1)
    assert np.array_equal(H, [[2, 3], [3, 4]])


def test_hankel_rejects_short_signal():
    with pytest.raises(InsufficientDataError):
        build_block_hankel([1.0, 2.0, 3.0], rows=2, cols=3)


def test_hankel_constant_signal():
    H = build_block_hankel(np.full(10, 7.0), rows=3, cols=4)
    assert np.all(H == 7.0)


def test_identify_scalar_single_rate():
    ss = make_state_space([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    rng = np.random.default_rng(17)
    u = rng.uniform(-1, 1, (500, 1))
    log = simulate(ss, u)
    idm = subspace_identify(u, log.y, order=1)
    H_true = markov(ss, 11)
    H_id = markov(idm, 11)
    passed, worst, _ = markov_match(H_true, H_id, 10, 1e-8)
    assert passed, worst
    assert idm.order_exposed


def test_identify_mixed_rates_matches_display(plant):
    spec = build_masks((1, 3))
    rng = np.random.default_rng(99)
    u = rng.uniform(-1, 1, (3000, 1))
    log = simulate_multirate(plant, spec, u)
    idm = subspace_identify(cycle_signal(log.u, 3), cycle_signal(log.y, 3),
                            order=9)
    S1 = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
    got = (idm.C @ idm.B) @ S1
    want = np.array([
        [1.0, 0, 0], [0.1, 0, 0],
        [0, 1.0, 0], [0, 0, 0],
        [0, 0, 1.0], [0, 0, 0],
    ])
    assert np.abs(got - want).max() <= 1e-3


def test_identify_block_rows_invariance(plant):
    # realization basis changes with the hankel depth; markov parameters do not
    spec = build_masks((2, 3))
    rng = np.random.default_rng(31)
    u = rng.uniform(-1, 1, (3000, 1))
    log = simulate_multirate(plant, spec, u)
    uc, yc = cycle_signal(log.u, 6), cycle_signal(log.y, 6)
    a = subspace_identify(uc, yc, order=18, block_rows=19)
    b = subspace_identify(uc, yc, order=18, block_rows=23)
    Ha, Hb = markov(a, 13), markov(b, 13)
    assert max(np.linalg.norm(x - y) for x, y in zip(Ha, Hb)) <= 1e-6


def test_identify_insufficient_data(plant):
    spec = build_masks((2, 3))
    u = np.random.default_rng(1).uniform(-1, 1, (50, 1))
    log = simulate_multirate(plant, spec, u)
    with pytest.raises(InsufficientDataError):
        subspace_identify(cycle_signal(log.u, 6), cycle_signal(log.y, 6),
                          order=18)


def test_identify_flat_input_not_exciting(plant):
    spec = build_masks((1, 3))
    u = np.ones((2000, 1))
    log = simulate_multirate(plant, spec, u)
    with pytest.raises(ExcitationDeficientError):
        subspace_identify(cycle_signal(log.u, 3), cycle_signal(log.y, 3),
                          order=9)


def test_identify_overstated_order_is_flagged():
    ss = make_state_space([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    rng = np.random.default_rng(23)
    u = rng.uniform(-1, 1, (800, 1))
    log = simulate(ss, u)
    idm = subspace_identify(u, log.y, order=3, block_rows=8)
    assert not idm.order_exposed
    assert idm.order_gap > 0.1


def test_identify_deterministic(plant):
    spec = build_masks((1, 3))
    rng = np.random.default_rng(7)
    u = rng.uniform(-1, 1, (1500, 1))
    log = simulate_multirate(plant, spec, u)
    uc, yc = cycle_signal(log.u, 3), cycle_signal(log.y, 3)
    a = subspace_identify(uc, yc, order=9)
    b = subspace_identify(uc, yc, order=9)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C) and np.array_equal(a.D, b.D)


def test_identify_frees_factorization_before_fit(plant):
    # the B/D/x0 regressor is the largest array a run holds; the Hankel
    # blocks, LQ and SVD factors must be gone before it is built
    spec = build_masks((2, 3))
    u = np.random.default_rng(5).uniform(-1, 1, (3000, 1))
    log = simulate_multirate(plant, spec, u)
    uc, yc = cycle_signal(log.u, spec.M), cycle_signal(log.y, spec.M)
    order = plant.n * spec.M
    N, mm = uc.samples.shape
    ll = yc.samples.shape[1]
    regressor_bytes = 8 * N * ll * (order + order * mm + ll * mm)
    tracemalloc.start()
    try:
        subspace_identify(uc, yc, order=order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * regressor_bytes, peak / regressor_bytes


def test_identify_rejects_mismatched_lengths(plant):
    with pytest.raises(DimensionMismatchError):
        subspace_identify(np.ones((100, 1)), np.ones((90, 2)), order=2)


def test_markov_match_identical(plant):
    H = markov(plant, 8)
    passed, worst, idx = markov_match(H, H, 7, 1e-12)
    assert passed and worst == 0.0 and idx == 0


def test_markov_match_injected_defect(plant):
    spec = build_masks((1, 3))
    cs = cyclic_reformulate(plant, spec)
    H = markov(cs, 8)
    H_bad = [h.copy() for h in H]
    H_bad[3][0, 0] += 0.5
    passed, worst, idx = markov_match(H, H_bad, 7, 1e-6)
    assert not passed and worst >= 0.5 and idx == 3


def test_markov_match_requires_depth(plant):
    H = markov(plant, 4)
    with pytest.raises(DimensionMismatchError):
        markov_match(H, H, 10, 1e-6)
