import math
import tracemalloc

import numpy as np
import pytest

from cycsid import (
    DimensionMismatchError,
    DivergentModelError,
    ExcitationDeficientError,
    ExperimentConfig,
    InsufficientDataError,
    RankConditionError,
    build_block_hankel,
    build_masks,
    cycle_signal,
    cyclic_reformulate,
    kernels,
    make_state_space,
    markov,
    markov_match,
    run_identification,
    simulate,
    simulate_multirate,
    subspace_identify,
)
from cycsid.cyclic import place_blocks, read_blocks
from cycsid.subspace import (
    _observability_estimate,
    default_block_rows,
    full_block_rows,
    pattern_cover,
    sampled_rows,
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


def test_hankel_writes_into_out():
    out = np.full((4, 2), np.nan)
    H = build_block_hankel([1.0, 2.0, 3.0, 4.0, 5.0], rows=2, cols=2, start=1, out=out[1:3])
    assert np.array_equal(out[1:3], [[2, 3], [3, 4]]) and np.isnan(out[[0, 3]]).all()
    assert H.base is out


def _cycled_data(plant, rates, N, seed, noise=0.0):
    # the per-step oracle, not the chunked simulation: the depth-edge tests
    # below were chosen on these exact inputs, and some of their outcomes
    # turn on the last bits of the data
    spec = build_masks(rates)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, (N, plant.m))
    _, y = kernels.trajectory(plant.A, plant.B, plant.C, plant.D, u, np.zeros(plant.n))
    obs = spec.pattern(N)
    y = y * obs + noise * rng.uniform(-1, 1, y.shape) * obs
    return cycle_signal(u, spec.M), cycle_signal(y, spec.M)


def _pattern_rows(rates):
    spec = build_masks(rates)
    return sampled_rows(cycle_signal(spec.pattern(spec.M), spec.M).samples, spec.M)


def test_pattern_cover_counts_sampled_rows():
    seen = _pattern_rows((2, 3))
    assert seen.tolist() == [2, 0, 1, 1, 1, 0]
    # windows of 2 block rows starting at phases 1 and 4 sample one row
    assert [pattern_cover(seen, h) for h in (0, 1, 2, 6, 7, 8)] == [0, 0, 1, 5, 5, 6]
    assert sampled_rows(np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 3.0]]), 1).tolist() == [2]


def test_default_depth_follows_the_pattern():
    assert [default_block_rows(3 * math.lcm(*r), _pattern_rows(r))
            for r in ((2, 3), (3, 4), (4, 5))] == [9, 13, 16]
    # never deeper than max(ceil(2 order / rows), 2n + 2, order + 1), which it
    # equals wherever 2n sampled rows per window take order block rows
    rate_grid = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (1, 3),
                 (3, 4), (4, 5)]
    for n in (1, 2, 3):
        for rates in rate_grid:
            M, seen = math.lcm(*rates), _pattern_rows(rates)
            order = M * n
            before = max(math.ceil(2 * order / (M * len(rates))), 2 * n + 2, order + 1)
            assert full_block_rows(order, M) == before
            i = default_block_rows(order, seen)
            assert i <= before
            if all(pattern_cover(seen, h) < 2 * n for h in range(1, order)):
                assert i == before, (n, rates)


def test_identify_refuses_depth_the_pattern_cannot_support(plant):
    # at (1,3) phases 1 and 2 sample one output row each, so block_rows=3
    # leaves two sampled rows in a 2-block-row window, fewer than n = 3: the
    # shifted observability matrix cannot reach rank 9, however clean the data.
    # Every plant-free check passed on the wrong model this depth gave before.
    uc, yc = _cycled_data(plant, (1, 3), 3000, 99)
    with pytest.raises(RankConditionError, match="use block_rows >= 4"):
        subspace_identify(uc, yc, order=9, block_rows=3)


@pytest.mark.parametrize("block_rows", [None, 3, 10])
def test_identify_refuses_a_record_without_output_samples(plant, block_rows):
    # every sampled output is exactly 0: a data error before any depth logic,
    # whichever depth is asked for
    uc, _ = _cycled_data(plant, (1, 3), 3000, 99)
    yc = cycle_signal(np.zeros((3000, plant.l)), 3)
    with pytest.raises(InsufficientDataError, match="no output sample .* is nonzero"):
        subspace_identify(uc, yc, order=9, block_rows=block_rows)


@pytest.fixture(scope="module")
def blind_sensor():
    # meets the observability assumption at rates (1,6), but the first sensor
    # sees only the first mode however often it samples: five block rows that
    # miss phase 0 hold five sampled rows of rank 1, so the pattern depth 6
    # passes the row count and fails the data check
    return make_state_space(np.diag([0.9, 0.5]), [[1.0], [1.0]], np.eye(2), np.zeros((2, 1)))


def test_explicit_depth_that_fails_the_data_check_raises(blind_sensor):
    uc, yc = _cycled_data(blind_sensor, (1, 6), 3000, 4)
    with pytest.raises(RankConditionError, match="use block_rows=13"):
        subspace_identify(uc, yc, order=12, block_rows=6)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_regressor_overflow_is_a_typed_error(blind_sensor, seed, capfd):
    # both sensors at every step, and order 6 forced on this 2-state plant at
    # block_rows=4: the order is not exposed, and the shift fit returns an
    # unstable A whose powers overflow the B/D/x0 regressor.  (At rates (1,6)
    # and block_rows=3 the phase-split fit now gives a stable A, radius 0.9,
    # reported as unexposed; see the next test.)
    uc, yc = _cycled_data(blind_sensor, (1, 1), 3000, seed)
    with pytest.raises(DivergentModelError, match="overflows the B/D/x0 regressor over 3000 samples"):
        subspace_identify(uc, yc, order=6, block_rows=4)
    assert capfd.readouterr().err == ""  # no LAPACK complaint about inf input


def test_unexposed_depth_ends_typed_or_unexposed_on_simulated_data(blind_sensor, capfd):
    # through the chunked simulation the same depth may give a stable A
    # instead: each seed ends in the typed error with nothing on stderr, or
    # in a model that reports its order as unexposed (warnings are errors here)
    spec = build_masks((1, 6))
    for seed in range(16):
        u = np.random.default_rng(seed).uniform(-1, 1, (3000, 1))
        log = simulate_multirate(blind_sensor, spec, u)
        uc, yc = cycle_signal(log.u, spec.M), cycle_signal(log.y, spec.M)
        try:
            idm = subspace_identify(uc, yc, order=12, block_rows=3)
        except DivergentModelError:
            assert capfd.readouterr().err == "", seed
        else:
            assert not idm.order_exposed, seed
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_fallback_is_the_full_depth_result(blind_sensor, noise):
    # the default depth 6 fails the data check, and the rerun at
    # max(2n + 2, order + 1) = 13 is that depth's result to the bit
    uc, yc = _cycled_data(blind_sensor, (1, 6), 3000, 8, noise)
    fell_back = subspace_identify(uc, yc, order=12)
    full = subspace_identify(uc, yc, order=12, block_rows=13)
    assert (fell_back.block_rows, fell_back.pattern_block_rows) == (13, 6)
    for name in ("A", "B", "C", "D", "x0", "phase_rank_margins", "phase_gaps"):
        assert np.array_equal(getattr(fell_back, name), getattr(full, name)), name


def test_short_record_identifies_at_pattern_depth(plant):
    # 1000 samples are too few for the 37 block rows of max(2n + 2, order + 1)
    _, report = run_identification(ExperimentConfig(plant=plant, rates=(3, 4), N=1000))
    assert report.block_rows["used"] == report.block_rows["pattern"] == 13
    assert report.failures() == []
    assert max(max(row) for row in report.tf_distances) <= 1e-6


def test_lq_operand_built_in_place_matches_stacked_hankels(plant):
    # the operand is [Uf; Up; Yp; Yf] over the sampled output rows, then the
    # rows of the never-sampled outputs, all zero.  With those rows last the
    # LQ factor splits into phase groups: row (b, channel) of a Hankel block
    # is nonzero only on columns (phase - start - b) mod M, and entries
    # between groups are round-off.  Each phase's singular values are those
    # of the projection with the off-group entries dropped
    uc, yc = _cycled_data(plant, (2, 3), 600, 12, noise=1e-3)
    u, y, i, order, M = uc.samples, yc.samples, 9, 18, 6
    j = u.shape[0] - 2 * i + 1
    live = np.flatnonzero(y.any(axis=0))
    mm, ll, lv = u.shape[1], y.shape[1], live.size
    U, Y = build_block_hankel(u, 2 * i, j), build_block_hankel(y[:, live], 2 * i, j)
    stack = np.vstack([U[i * mm:], U[:i * mm], Y[:i * lv], Y[i * lv:],
                       np.zeros((2 * i * (ll - lv), j))])
    L = np.linalg.qr(stack.T, mode="r").T

    def phases(channels, per_phase, start):
        return ((channels // per_phase)[None, :] - start - np.arange(i)[:, None]).ravel() % M
    uch = np.arange(mm)
    group = np.concatenate([phases(uch, 1, i), phases(uch, 1, 0), phases(live, 2, 0),
                            phases(live, 2, i)])
    nz = group.size
    apart = group[:, None] != group[None, :]
    assert np.abs(L[:nz, :nz][apart]).max() <= 1e-13 * np.abs(L).max()
    assert not L[nz:].any()

    r_uf, r_past = i * mm, 2 * i * mm + i * lv
    proj = L[r_past:nz, r_uf:r_past]
    proj = np.where(group[r_past:nz, None] == group[None, r_uf:r_past], proj, 0.0)
    Gam, svs = _observability_estimate(u, y, i, order, M)
    dense = np.linalg.svd(proj, compute_uv=False)
    mine = np.sort(np.concatenate(svs))[::-1]
    assert np.abs(mine - dense[:mine.size]).max() <= 1e-12 * dense[0]
    assert not dense[mine.size:].any()
    # Gam row (b, channel) lives in state block (phase - b) mod M only; rows
    # of never-sampled outputs are exact zeros
    blocks = np.abs(Gam).reshape(i, M, 2, M, 3).max(axis=(2, 4))
    b, phase = np.indices((i, M))
    assert not blocks[(np.arange(M) != ((phase - b) % M)[..., None])].any()
    dead = np.setdiff1d(np.arange(ll), live)
    assert not Gam.reshape(i, ll, order)[:, dead].any()


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


@pytest.mark.parametrize("noise", [0.0, 1e-2])
@pytest.mark.parametrize("rates", [(1, 1), (1, 3), (2, 3)], ids=["M1", "M3", "M6"])
def test_bdx0_fit_is_the_dense_fit_on_the_pattern(plant, rates, noise):
    # x0, B and D are fitted on the cyclic pattern: on it they are the dense
    # regressor's least squares, which has the same solution there because
    # the rows the data fill touch no other column; off it they are exact zeros
    uc, yc = _cycled_data(plant, rates, 800, 4, noise)
    idm = subspace_identify(uc, yc, order=plant.n * uc.M)
    M, n = idm.M, idm.n
    want, *_ = np.linalg.lstsq(kernels._io_regressor_dense(idm.A, idm.C, uc.samples),
                               yc.samples.reshape(-1), rcond=None)
    got = np.concatenate([idm.x0, idm.B.ravel(order="F"), idm.D.ravel(order="F")])
    on = np.concatenate([np.arange(M * n) < n,
                         place_blocks(np.ones((M, n, idm.m)), 1).ravel(order="F") > 0,
                         place_blocks(np.ones((M, idm.l, idm.m)), 0).ravel(order="F") > 0])
    assert np.linalg.norm(got[on] - want[on]) <= 1e-12 * np.linalg.norm(want[on])
    assert not got[~on].any()
    assert np.array_equal(idm.B, place_blocks(read_blocks(idm.B, M, 1), 1))
    assert np.array_equal(idm.D, place_blocks(read_blocks(idm.D, M, 0), 0))


@pytest.mark.parametrize("noise", [0.0, 1e-2])
@pytest.mark.parametrize("rates", [(1, 3), (2, 3)], ids=["M3", "M6"])
def test_never_sampled_outputs_have_exactly_zero_d(plant, rates, noise):
    # an output (q, c) that no sensor samples at phase q has no regressor
    # row, so its D entries leave the fit and are exact zeros
    uc, yc = _cycled_data(plant, rates, 800, 4, noise)
    idm = subspace_identify(uc, yc, order=plant.n * uc.M)
    never = build_masks(rates).pattern(uc.M) == 0
    assert never.any() and not read_blocks(idm.D, uc.M, 0)[never].any()


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
