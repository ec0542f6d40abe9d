import re

import numpy as np
import pytest

from cycsid import (
    DimensionMismatchError,
    SignalLog,
    TransferFunction,
    ctrb,
    make_state_space,
    markov,
    obsv,
    simulate,
    tf_distance,
    transfer_functions,
)
from cycsid.statespace import powers


@pytest.fixture
def scalar_lag():
    return make_state_space([[0.5]], [[1.0]], [[1.0]], [[0.0]])


def test_make_state_space_dims(plant):
    assert (plant.n, plant.m, plant.l) == (3, 1, 2)


def test_make_state_space_rejects_mismatch():
    with pytest.raises(DimensionMismatchError, match="B"):
        make_state_space(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatchError, match="C"):
        make_state_space(np.eye(2), np.ones((2, 1)), np.ones((1, 3)), np.zeros((1, 1)))

    with pytest.raises(DimensionMismatchError,
                       match=r"^D must be 1x1 to match C and B, got \(2, 1\)$"):
        make_state_space(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 1)))


@pytest.mark.parametrize("u, y, obs, message", [
    pytest.param(np.ones((4, 1)), np.ones((3, 2)), None,
                 "u and y must share a positive sample count, got 4 and 3", id="counts"),
    pytest.param(np.ones((0, 1)), np.ones((0, 2)), None,
                 "u and y must share a positive sample count, got 0 and 0", id="empty"),
    pytest.param(np.ones((4, 1)), np.array([[1.0, np.nan]] * 4), None,
                 "signals contain non-finite entries", id="y-nan"),
    pytest.param(np.full((4, 1), np.inf), np.ones((4, 2)), None,
                 "signals contain non-finite entries", id="u-inf"),
    pytest.param(np.ones((4, 1)), np.ones((4, 2)), np.ones((4, 1)),
                 "obs mask must match y shape", id="obs-shape"),
])
def test_signal_log_refuses_inconsistent_records(u, y, obs, message):
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        SignalLog(u=u, y=y, obs=obs)


@pytest.mark.parametrize("u, message", [
    pytest.param(np.ones((4, 2)), "input must be (N, 1), got (4, 2)", id="width"),
    pytest.param(np.ones((0, 1)), "input must be nonempty", id="empty"),
])
def test_simulate_rejects_a_malformed_input(plant, u, message):
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        simulate(plant, u)


def test_make_state_space_scalar(scalar_lag):
    assert (scalar_lag.n, scalar_lag.m, scalar_lag.l) == (1, 1, 1)


def test_simulate_scalar_impulse(scalar_lag):
    u = np.zeros((5, 1))
    u[0, 0] = 1.0
    log = simulate(scalar_lag, u)
    # hand recursion: y = 0, 1, 0.5, 0.25, 0.125
    assert np.allclose(log.y.ravel(), [0, 1, 0.5, 0.25, 0.125], atol=0)


def test_simulate_zero_everything(plant):
    log = simulate(plant, np.zeros((10, 1)))
    assert np.all(log.y == 0)


def test_simulate_impulse_first_step_is_cb(plant):
    u = np.zeros((3, 1))
    u[0, 0] = 1.0
    log = simulate(plant, u)
    # C B by hand from the benchmark matrices
    assert np.allclose(log.y[1], [1.0, 0.1], atol=1e-15)


def test_simulate_rejects_bad_x0(plant):
    with pytest.raises(DimensionMismatchError):
        simulate(plant, np.ones((4, 1)), x0=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_rejects_non_finite_input(plant, bad):
    # refused before the overflow guard could blame the plant for it
    u = np.ones((4, 1))
    u[2, 0] = bad
    with pytest.raises(DimensionMismatchError, match="input contains non-finite entries"):
        simulate(plant, u)


def _power_loop(A, X, count, right):
    # the reference: a C-ordered copy of X, then one product per term
    terms, P = [], X.copy()
    for _ in range(count):
        terms.append(P)
        P = P @ A if right else A @ P
    return terms


@pytest.mark.parametrize("right", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_powers_equal_the_loop_bit_for_bit(right, order, count):
    rng = np.random.default_rng(count)
    A = rng.normal(size=(6, 6))
    X = np.array(rng.normal(size=(2, 6) if right else (6, 2)), order=order)
    got = powers(A, X, count, right=right)
    want = _power_loop(A, X, count, right)
    assert len(got) == count
    for g, w in zip(got, want):
        assert g.flags.c_contiguous and np.array_equal(g, w)
    if count:
        assert got[0] is not X  # a copy, so a caller may not alter X through it


def test_markov_zero_feedthrough(plant):
    H = markov(plant, 3)
    assert np.array_equal(H[0], np.zeros((2, 1)))
    with pytest.raises(ValueError, match="^count must be at least 1$"):
        markov(plant, 0)


def test_markov_geometric(scalar_lag):
    H = markov(scalar_lag, 6)
    expect = [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
    assert np.allclose([h[0, 0] for h in H], expect, atol=0)


def test_markov_equals_impulse_response(plant, corpus):
    systems = [plant] + [c["plant"] for c in corpus[:5]]
    for ss in systems:
        count = 20
        H = markov(ss, count)
        for j in range(ss.m):
            u = np.zeros((count, ss.m))
            u[0, j] = 1.0
            log = simulate(ss, u)
            for i in range(count):
                assert np.abs(H[i][:, j] - log.y[i]).max() <= 1e-12


def test_ctrb_obsv_full_rank(plant):
    assert np.linalg.matrix_rank(ctrb(plant)) == 3
    assert np.linalg.matrix_rank(obsv(plant)) == 3


def test_ctrb_zero_input_matrix():
    ss = make_state_space([[0.5]], [[0.0]], [[1.0]], [[0.0]])
    assert np.linalg.matrix_rank(ctrb(ss)) == 0


def test_transfer_functions_benchmark_plant(plant):
    tfs = transfer_functions(plant)
    assert np.allclose(tfs[0][0].num, [1.0, 0.9, 0.0], atol=1e-13)
    assert np.allclose(tfs[0][0].den, [1.0, 0.4, -0.5, -0.8], atol=1e-13)
    assert np.allclose(tfs[1][0].num, [0.1, 0.34, 0.77], atol=1e-13)
    assert np.allclose(tfs[1][0].den, [1.0, 0.4, -0.5, -0.8], atol=1e-13)


def test_transfer_functions_scalar(scalar_lag):
    tf = transfer_functions(scalar_lag)[0][0]
    assert np.allclose(tf.num, [1.0], atol=0)
    assert np.allclose(tf.den, [1.0, -0.5], atol=0)


def test_transfer_functions_similarity_invariant():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        A *= 0.8 / np.abs(np.linalg.eigvals(A)).max()
        ss = make_state_space(A, rng.normal(size=(n, 1)),
                              rng.normal(size=(2, n)), np.zeros((2, 1)))
        P = rng.normal(size=(n, n)) + 2 * np.eye(n)
        Pi = np.linalg.inv(P)
        ss2 = make_state_space(Pi @ A @ P, Pi @ ss.B, ss.C @ P, ss.D)
        t1 = transfer_functions(ss)
        t2 = transfer_functions(ss2)
        for i in range(2):
            assert tf_distance(t1[i][0], t2[i][0]) <= 1e-8
        H1 = markov(ss, 10)
        H2 = markov(ss2, 10)
        assert max(np.abs(a - b).max() for a, b in zip(H1, H2)) <= 1e-10


def test_tf_distance_identical(plant):
    tf = transfer_functions(plant)[0][0]
    assert tf_distance(tf, tf) == 0.0


def test_tf_distance_reported_residual():
    clean = TransferFunction(num=[1.0, 0.9, 0.0], den=[1.0, 0.4, -0.5, -0.8])
    noisy = TransferFunction(num=[1.0, 0.9, 1.29e-15], den=[1.0, 0.4, -0.5, -0.8])
    assert tf_distance(clean, noisy) <= 2e-15


def test_tf_distance_single_coefficient():
    p = TransferFunction(num=[1.0], den=[1.0, -0.5])
    q = TransferFunction(num=[1.0], den=[1.0, -0.6])
    assert tf_distance(p, q) == pytest.approx(0.1)


@pytest.mark.parametrize("num, den, message", [
    ([1.0], [0.0, 1.0], "denominator must have a nonzero leading coefficient"),
    ([1.0], [], "denominator must have a nonzero leading coefficient"),
    ([1.0, 0.0, 1.0], [1.0, 0.5], "numerator degree exceeds denominator degree"),
])
def test_transfer_function_refuses_a_malformed_ratio(num, den, message):
    with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
        TransferFunction(num=num, den=den)


def test_tf_distance_aligns_degrees():
    p = TransferFunction(num=[1.0], den=[1.0, 0.0])
    q = TransferFunction(num=[1.0, 0.0], den=[1.0, 0.0])
    # num [1] pads to [0, 1]: distance 1 against [1, 0]
    assert tf_distance(p, q) == pytest.approx(1.0)
