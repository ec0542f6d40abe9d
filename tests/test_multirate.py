import numpy as np
import pytest

from cycsid import (
    ExperimentConfig,
    InvalidRateError,
    RankDeficientAError,
    build_masks,
    check_observability_assumption,
    cyclic_reformulate,
    make_state_space,
    simulate,
    simulate_multirate,
)
from cycsid.numerics import rank_with_tol

from oracles import masks


def test_masks_rates_1_3():
    spec = build_masks((1, 3))
    assert spec.M == 3
    assert np.array_equal(np.diag(masks(spec)[0]), [1, 1])
    assert np.array_equal(np.diag(masks(spec)[1]), [1, 0])
    assert np.array_equal(np.diag(masks(spec)[2]), [1, 0])


def test_masks_rates_2_3():
    spec = build_masks((2, 3))
    assert spec.M == 6
    expect = [(1, 1), (0, 0), (1, 0), (0, 1), (1, 0), (0, 0)]
    for k, d in enumerate(expect):
        assert np.array_equal(np.diag(masks(spec)[k]), d), f"phase {k}"


def test_masks_single_rate():
    spec = build_masks((1,))
    assert spec.M == 1
    assert np.array_equal(masks(spec)[0], np.eye(1))


def test_masks_reject_zero_rate():
    with pytest.raises(InvalidRateError):
        build_masks((2, 0))
    with pytest.raises(InvalidRateError):
        build_masks(())


def test_masks_observation_count_per_period():
    for rates in [(1, 3), (2, 3), (2, 2), (3,), (1, 2)]:
        spec = build_masks(rates)
        counts = sum(np.diag(V) for V in masks(spec))
        for i, r in enumerate(rates):
            assert counts[i] == spec.M // r


def test_masks_offsets():
    spec = build_masks((2,), offsets=(1,))
    assert np.diag(masks(spec)[0])[0] == 0
    assert np.diag(masks(spec)[1])[0] == 1


def test_sampled_table_gives_the_masks_and_the_pattern_with_offsets():
    rates, offsets = (2, 3, 4), (1, 2, 0)
    spec = build_masks(rates, offsets)
    assert spec.sampled.shape == (spec.M, spec.l) == (12, 3)
    for k in range(spec.M):
        want = [float((k - o) % r == 0) for r, o in zip(rates, offsets)]
        assert spec.sampled[k].tolist() == want, f"phase {k}"
        assert np.array_equal(masks(spec)[k], np.diag(want))
    assert np.array_equal(spec.pattern(29), spec.sampled[np.arange(29) % 12])
    # specs compare by rates and offsets only
    assert spec == build_masks(rates, offsets) != build_masks(rates)


def test_masks_equal_rates_share_pattern():
    one = build_masks((3,))
    two = build_masks((3, 3))
    assert one.M == two.M
    for k in range(one.M):
        d = np.diag(masks(two)[k])
        assert d[0] == d[1] == np.diag(masks(one)[k])[0]


def test_simulate_multirate_all_ones_equals_plain(plant):
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, (30, 1))
    spec = build_masks((1, 1))
    full = simulate(plant, u)
    masked = simulate_multirate(plant, spec, u)
    assert np.array_equal(full.y, masked.y)


def test_simulate_multirate_rejects_another_output_count(plant):
    with pytest.raises(InvalidRateError, match="^3 rates for a plant with 2 outputs$"):
        simulate_multirate(plant, build_masks((1, 2, 3)), np.ones((6, 1)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda plant, spec: ExperimentConfig(plant=plant, rates=spec.rates),
                 id="ExperimentConfig"),
    pytest.param(cyclic_reformulate, id="cyclic_reformulate"),
    pytest.param(lambda plant, spec: simulate_multirate(plant, spec, np.ones((6, 1))),
                 id="simulate_multirate"),
    pytest.param(check_observability_assumption, id="check_observability_assumption"),
])
@pytest.mark.parametrize("rates", [(2,), (1, 2, 3)])
def test_every_caller_refuses_a_spec_of_another_output_count(plant, call, rates):
    # one check, MultirateSpec.check_outputs, with one type and one message;
    # the type is a ValueError too, as the config constructor promises
    with pytest.raises(InvalidRateError,
                       match=f"^{len(rates)} rates for a plant with 2 outputs$") as err:
        call(plant, build_masks(rates))
    assert isinstance(err.value, ValueError)


def test_simulate_multirate_phase1_blanked(plant):
    u = np.zeros((4, 1))
    u[0, 0] = 1.0
    spec = build_masks((2, 3))
    log = simulate_multirate(plant, spec, u)
    assert np.array_equal(log.y[1], [0.0, 0.0])  # V_1 masks everything


def test_simulate_multirate_pattern(plant):
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, (30, 1))
    spec = build_masks((1, 3))
    log = simulate_multirate(plant, spec, u)
    for k in range(30):
        if k % 3 != 0:
            assert log.y[k, 1] == 0.0
    assert np.count_nonzero(log.y[:, 1]) > 0


def test_simulate_multirate_observed_equals_masked_exact(plant):
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, (24, 1))
    spec = build_masks((2, 3))
    full = simulate(plant, u)
    masked = simulate_multirate(plant, spec, u)
    for k in range(24):
        assert np.array_equal(masked.y[k], masks(spec)[k % spec.M] @ full.y[k])


def test_observability_assumption_benchmark(plant):
    spec = build_masks((2, 3))
    phases = check_observability_assumption(plant, spec)
    assert 0 in phases


def test_observability_assumption_blind_sensor(plant):
    blind = make_state_space(plant.A, plant.B, np.zeros((2, 3)), plant.D)
    assert check_observability_assumption(blind, build_masks((2, 3))) == set()


def test_observability_assumption_single_rate(plant):
    assert check_observability_assumption(plant, build_masks((1, 1))) == {0}


def observable_phases_oracle(ss, spec):
    """Per-phase rank of [V_j C; V_j C A^M; ...; V_j C A^(M(n-1))]."""
    AM = np.linalg.matrix_power(ss.A, spec.M)
    good = set()
    for j, V in enumerate(masks(spec)):
        rows = [V @ ss.C]
        for _ in range(ss.n - 1):
            rows.append(rows[-1] @ AM)
        if rank_with_tol(np.vstack(rows)) == ss.n:
            good.add(j)
    return good


def test_observability_assumption_matches_per_phase_oracle(plant, corpus):
    # phase 1 of rates (1, 2) sees only output 0, whose row alone cannot tell
    # the +-0.9 modes apart under A^2 = diag(0.81, 0.81, 0.25): a blind phase
    # with a nonzero row, next to an observable phase 0
    paired = make_state_space(np.diag([0.9, -0.9, 0.5]), [[1.0], [1.0], [1.0]],
                              [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], [[0.0], [0.0]])
    assert check_observability_assumption(paired, build_masks((1, 2))) == {0}
    cases = [(paired, build_masks((1, 2))), (paired, build_masks((2, 1), (1, 0)))]
    cases += [(plant, build_masks(rates, offsets)) for rates, offsets in
              [((2, 3), None), ((3, 4), (1, 2)), ((4, 2), (3, 1)), ((1, 5), None)]]
    cases += [(case["plant"], spec) for case in corpus
              for spec in (case["spec"], build_masks([r + 1 for r in case["rates"]]))]
    for ss, spec in cases:
        assert check_observability_assumption(ss, spec) == observable_phases_oracle(ss, spec)


def test_observability_assumption_requires_regular_A():
    ss = make_state_space([[1.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]],
                          [[1.0, 1.0]], [[0.0]])
    with pytest.raises(RankDeficientAError):
        check_observability_assumption(ss, build_masks((2,)))
