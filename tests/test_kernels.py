import itertools
import mmap
import os
import tracemalloc

import numpy as np
import pytest

from cycsid import (
    DivergentPlantError,
    benchmark_plant,
    build_masks,
    cycle_signal,
    cyclic_reformulate,
    kernels,
    make_state_space,
    simulate,
    simulate_multirate,
    subspace_identify,
)
from cycsid.cyclic import read_blocks

from oracles import io_regressor_dense, trajectory


@pytest.fixture
def workload():
    rng = np.random.default_rng(14)
    n, m, l, N = 6, 2, 3, 200
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(l, n))
    D = rng.normal(size=(l, m))
    u = rng.uniform(-1, 1, size=(N, m))
    x0 = rng.normal(size=n)
    return A, B, C, D, u, x0


def test_trajectory_matches_hand_recursion():
    # the oracle is the recursion itself, product by product
    for N, m in itertools.product([1, 2, 65, 200], [1, 3]):
        rng = np.random.default_rng(100 * N + m)
        n, l = 5, 2
        A = rng.normal(size=(n, n))
        A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        B, C, D = rng.normal(size=(n, m)), rng.normal(size=(l, n)), rng.normal(size=(l, m))
        u = rng.uniform(-1, 1, size=(N, m))
        x0 = rng.normal(size=n)
        want_x, want_y = np.empty((N, n)), np.empty((N, l))
        xk = x0
        for k in range(N):
            want_x[k] = xk
            want_y[k] = C @ xk + D @ u[k]
            xk = A @ xk + B @ u[k]
        x, y = trajectory(A, B, C, D, u, x0)
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y), (N, m)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("m", [1, 3])
def test_scan_trajectory_matches_the_per_step_oracle(n, m):
    # the scan sums the forced response in another order than the recursion,
    # so the two agree to round-off, not to the bit, also across block edges
    K = kernels._BLOCK
    for N in (1, 2, K - 1, K, K + 1, 2 * K + 1, 5000):
        rng = np.random.default_rng(1000 * N + 10 * m + n)
        l = 2
        A = rng.normal(size=(n, n))
        A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        B, C, D = rng.normal(size=(n, m)), rng.normal(size=(l, n)), rng.normal(size=(l, m))
        u = rng.uniform(-1, 1, size=(N, m))
        x0 = rng.normal(size=n)
        want_x, want_y = trajectory(A, B, C, D, u, x0)
        x, y = kernels.scan_trajectory(A, B, C, D, u, x0)
        assert x.shape == want_x.shape and y.shape == want_y.shape, N
        assert np.abs(x - want_x).max() <= 1e-13 * np.abs(want_x).max(), N
        assert np.abs(y - want_y).max() <= 1e-13 * np.abs(want_y).max(), N


def test_scan_trajectory_of_zero_input_and_state_is_exactly_zero(workload):
    A, B, C, D, u, _ = workload
    x, y = kernels.scan_trajectory(A, B, C, D, np.zeros_like(u), np.zeros(A.shape[0]))
    assert not x.any() and not y.any()


def test_scan_trajectory_allocates_only_block_sized_temporaries():
    # beyond x and y only the powers and one block's products live (28 kB
    # here, whatever N); the bound of 262 kB is under a third of the
    # smallest N-sized array, the 800 kB of u
    rng = np.random.default_rng(6)
    n, m, l, N = 3, 1, 2, 100000
    A = 0.5 * np.eye(n) + 0.1 * rng.normal(size=(n, n))
    B, C, D = rng.normal(size=(n, m)), rng.normal(size=(l, n)), rng.normal(size=(l, m))
    u = rng.uniform(-1, 1, size=(N, m))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x, y = kernels.scan_trajectory(A, B, C, D, u, np.zeros(n))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + y.nbytes + 262144


@pytest.mark.parametrize("a, finite, diverges", [(2.0, 1000, 1100), (5.0, 400, 500)])
def test_simulate_overflows_where_the_per_step_recursion_does(a, finite, diverges):
    # x(k) = (a^k - 1) / (a - 1) under u = 1: the scan's powers and partial sums
    # stay below the final state, so it overflows exactly when the recursion does
    plant = make_state_space([[a]], [[1.0]], [[1.0]], [[0.0]])
    log = simulate(plant, np.ones(finite))
    x, _ = kernels.scan_trajectory(plant.A, plant.B, plant.C, plant.D,
                                   np.ones((finite, 1)), np.zeros(1))
    want_x, _ = trajectory(plant.A, plant.B, plant.C, plant.D, np.ones((finite, 1)), np.zeros(1))
    assert np.isfinite(x).all() and np.isfinite(log.y).all()
    assert np.abs(x - want_x).max() <= 1e-13 * np.abs(want_x).max()
    with pytest.raises(DivergentPlantError, match=f"N = {diverges} samples"):
        simulate(plant, np.ones(diverges))


def test_io_regressor_layout(workload):
    A, B, C, D, u, x0 = workload
    n = A.shape[0]
    m = u.shape[1]
    l = C.shape[0]
    Phi = kernels.io_regressor(A[None], C[None], u)
    # reconstruct the response from theta = [x0, vec B, vec D] and compare
    theta = np.concatenate([x0, B.ravel(order="F"), D.ravel(order="F")])
    _, y = trajectory(A, B, C, D, u, x0)
    assert np.abs(Phi @ theta - y.reshape(-1)).max() <= 1e-10


def test_io_regressor_is_column_major(workload):
    # LAPACK solves on a column-major copy; the layout changes speed, not theta
    A, B, C, D, u, x0 = workload
    _, y = trajectory(A, B, C, D, u, x0)
    Phi = kernels.io_regressor(A[None], C[None], u)
    assert Phi.flags.f_contiguous
    theta, *_ = np.linalg.lstsq(Phi, y.reshape(-1), rcond=None)
    want, *_ = np.linalg.lstsq(np.ascontiguousarray(Phi), y.reshape(-1), rcond=None)
    assert np.array_equal(theta, want)


@pytest.mark.parametrize("N, m", [
    *(pytest.param(N, 2, id=str(N)) for N in (200, 192, 129, 59, 1)),
    # the B columns run by (pair, input, state), so their layout depends on m
    pytest.param(200, 3, id="m3-200"),
    pytest.param(65, 3, id="m3-65"),
])
def test_io_regressor_matches_dense_reference(workload, N, m):
    A, B, C, D, u, x0 = workload
    u = u[:N] if m == u.shape[1] else np.random.default_rng(3).uniform(-1, 1, size=(N, m))
    want = io_regressor_dense(A, C, u)
    got = kernels.io_regressor(A[None], C[None], u)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("a, diverges", [(1.5, 1749), (2.0, 1024), (3.0, 647), (5.0, 442),
                                         (10.0, 309)])
def test_io_regressor_overflows_where_the_per_sample_oracle_does(a, diverges):
    # Z(k) = (a^k - 1) / (a - 1) under u = 1, and the oracle forms A^N and
    # Z(N), one step past its last row: the scan stops at the same state, and
    # its powers and partial sums stay below it
    A, C = np.array([[a]]), np.array([[1.0]])
    with np.errstate(over="raise"):
        for f, AC in ((io_regressor_dense, (A, C)), (kernels.io_regressor, (A[None], C[None]))):
            with pytest.raises(FloatingPointError):
                f(*AC, np.ones((diverges, 1)))
        got = kernels.io_regressor(A[None], C[None], np.ones((diverges - 1, 1)))
        want = io_regressor_dense(A, C, np.ones((diverges - 1, 1)))
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("rates, N", [((1,), 2 * kernels._BLOCK + 1),
                                      ((1, 3), 3 * 2 * kernels._BLOCK + 2)])
def test_io_regressor_carries_the_state_across_blocks(monkeypatch, rates, N):
    # at these shapes a block is _BLOCK periods, so the record spans two whole
    # blocks and a last one of one period (at M = 3 a part period): each
    # block's scan starts from the state the one before ended on
    scans = []

    def scan(x, A):
        scans.append(len(x))
        return doubling_scan(x, A)

    doubling_scan = kernels._doubling_scan
    monkeypatch.setattr(kernels, "_doubling_scan", scan)
    rng = np.random.default_rng(N)
    n, m = 2, 1
    A = rng.normal(size=(n, n))
    A *= 0.99 / np.abs(np.linalg.eigvals(A)).max()
    plant = make_state_space(A, rng.normal(size=(n, m)), rng.normal(size=(len(rates), n)),
                             rng.normal(size=(len(rates), m)))
    spec = build_masks(rates)
    cs = cyclic_reformulate(plant, spec)
    u = cycle_signal(rng.uniform(-1, 1, size=(N, m)), spec.M).samples
    got = kernels.io_regressor(read_blocks(cs.A, spec.M, 1), read_blocks(cs.C, spec.M, 0), u)
    assert scans == [kernels._BLOCK + 1, kernels._BLOCK + 1, 2]
    want = io_regressor_dense(cs.A, cs.C, u)
    rows = kernels.regressor_rows(read_blocks(cs.C, spec.M, 0), N)
    cols = kernels.regressor_columns(spec.M, n, m, len(rates))
    assert np.abs(got[:rows.size, :cols.size] - want[rows][:, cols]).max() \
        <= 1e-13 * np.abs(want).max()


def _samples_first(C, y):
    """The cycled output y flattened in ``io_regressor``'s row order: its
    output samples, then zeros."""
    rows = kernels.regressor_rows(C, len(y))
    rhs = np.zeros(y.size)
    rhs[:rows.size] = y.reshape(-1)[rows]
    return rhs


@pytest.mark.parametrize("m, M", [(1, 3), (1, 6), (2, 3), (2, 6)])
def test_io_regressor_matches_dense_reference_on_cycled_inputs(m, M):
    # the pipeline feeds cycled inputs, mostly exact zeros, and a cycled model
    # whose masked output rows are zero; the top-left corner, one row per
    # output sample, is the dense regressor's pattern columns on its sampled
    # rows, its D columns exact zeros and exact copies of u, and the dense
    # regressor is zero off them; every other entry is zero
    rng = np.random.default_rng(10 * m + M)
    n, l = 3, 2
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    plant = make_state_space(A, rng.normal(size=(n, m)), rng.normal(size=(l, n)),
                             rng.normal(size=(l, m)))
    cs = cyclic_reformulate(plant, build_masks((1, M)))
    N = 135
    u = cycle_signal(rng.uniform(-1, 1, size=(N, m)), M).samples
    want = io_regressor_dense(cs.A, cs.C, u)
    got = kernels.io_regressor(read_blocks(cs.A, M, 1), read_blocks(cs.C, M, 0), u)
    cols = kernels.regressor_columns(M, n, m, l)
    nc, w = n + M * m * n, cols.size  # x0 and B columns, all leading columns
    rows = kernels.regressor_rows(read_blocks(cs.C, M, 0), N)
    S = rows.size
    assert got.shape == want.shape and got.shape[1] == M * n * (1 + M * m) + M * l * M * m
    lead = want[rows][:, cols]
    assert np.abs(got[:S, :nc] - lead[:, :nc]).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(got[:S, nc:w], lead[:, nc:])
    assert not np.delete(want[rows], cols, axis=1).any()
    assert not got[S:].any() and not got[:, w:].any()


@pytest.mark.parametrize("n, m, rates, N", [
    (3, 1, (2, 3), 197),
    (2, 2, (1, 4, 2), 135),
    (3, 2, (3, 4), 250),
    (2, 1, (1, 3), 5),
    (1, 2, (1,), 65),
])
def test_phase_regressor_matches_dense_reference(n, m, rates, N):
    # from the phase blocks of a cyclic A and a block-diagonal C, with some
    # outputs never sampled at some phases: the top-left corner is the dense
    # per-sample build's pattern columns on its output samples, including N
    # not a multiple of M; every other entry is zero
    rng = np.random.default_rng(100 * n + 10 * m + N)
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    plant = make_state_space(A, rng.normal(size=(n, m)), rng.normal(size=(len(rates), n)),
                             rng.normal(size=(len(rates), m)))
    spec = build_masks(rates)
    cs = cyclic_reformulate(plant, spec)
    u = cycle_signal(rng.uniform(-1, 1, size=(N, m)), spec.M).samples
    want = io_regressor_dense(cs.A, cs.C, u)
    got = kernels.io_regressor(read_blocks(cs.A, spec.M, 1), read_blocks(cs.C, spec.M, 0), u)
    rows = kernels.regressor_rows(read_blocks(cs.C, spec.M, 0), N)
    cols = kernels.regressor_columns(spec.M, n, m, len(rates))
    S, w = rows.size, cols.size
    assert got.shape == want.shape and got.flags.f_contiguous
    lead = want[rows][:, cols]
    assert np.abs(got[:S, :w] - lead).max() <= 1e-13 * np.abs(want).max()
    # what it leaves out of those rows is zero
    assert not lead[got[:S, :w] == 0].any() and not np.delete(want[rows], cols, axis=1).any()
    assert not got[S:].any() and not got[:, w:].any()


@pytest.mark.parametrize("n, m, rates, N", [
    (3, 1, (2, 3), 600),
    (2, 2, (1, 4, 2), 135),  # N mod M = 3: a part last period
    (2, 1, (3, 2), 1),
    (1, 2, (1,), 40),
])
def test_io_regressor_is_zero_outside_its_sample_corner(n, m, rates, N):
    # one row per output sample in time order, the nonzero entries of the
    # cycled sampling pattern; every one of them reads data, and outside the
    # top-left corner of those rows and the leading columns Phi is zero
    rng = np.random.default_rng(10 * n + N)
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    plant = make_state_space(A, rng.normal(size=(n, m)), rng.normal(size=(len(rates), n)),
                             rng.normal(size=(len(rates), m)))
    spec = build_masks(rates)
    cs = cyclic_reformulate(plant, spec)
    C = read_blocks(cs.C, spec.M, 0)
    rows = kernels.regressor_rows(C, N)
    assert np.array_equal(rows, np.flatnonzero(cycle_signal(spec.pattern(N), spec.M).samples))
    u = cycle_signal(rng.uniform(-1, 1, size=(N, m)), spec.M).samples
    Phi = kernels.io_regressor(read_blocks(cs.A, spec.M, 1), C, u)
    S, w = rows.size, kernels.regressor_columns(spec.M, n, m, len(rates)).size
    assert Phi[:S, :w].any(axis=1).all()
    rest = Phi.copy()
    rest[:S, :w] = 0
    assert not rest.any()


def test_io_regressor_allocates_no_regressor_sized_temporary():
    # blocks of periods are written in place: beyond Phi itself only
    # block-sized temporaries live, here under 5% of Phi's 57 MB at rates (2, 3)
    spec = build_masks((2, 3))
    cs = cyclic_reformulate(benchmark_plant(), spec)
    u = cycle_signal(np.random.default_rng(5).uniform(-1, 1, size=(3000, 1)), spec.M).samples
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        Phi = kernels.io_regressor(cs.A[None], cs.C[None], u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert Phi.shape == (3000 * 12, 18 + 18 * 6 + 12 * 6)
    assert peak <= 1.05 * Phi.nbytes


def _resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="no /proc/self/statm")
def test_io_regressor_maps_only_its_leading_block():
    # the filled columns lead the column-major Phi, so the pages of the zero
    # padding after them are never written and stay unmapped: across one call
    # the resident set grows by the 9.1 MiB leading block, not by the 54.4 MiB
    # array, plus 6 MiB for huge-page rounding and the block temporaries
    spec = build_masks((2, 3))
    cs = cyclic_reformulate(benchmark_plant(), spec)
    A, C = read_blocks(cs.A, spec.M, 1), read_blocks(cs.C, spec.M, 0)
    u = cycle_signal(np.random.default_rng(5).uniform(-1, 1, size=(3000, 1)), spec.M).samples
    kernels.io_regressor(A, C, u[:spec.M])  # lazy set-up outside the reading
    before = _resident_bytes()
    Phi = kernels.io_regressor(A, C, u)
    grown = _resident_bytes() - before
    lead = Phi.shape[0] * kernels.regressor_columns(spec.M, 3, 1, 2).size * 8
    assert Phi.shape == (3000 * 12, 198) and lead < Phi.nbytes / 5
    assert grown <= lead + 6 * 2 ** 20, (grown / 2 ** 20, lead / 2 ** 20)


@pytest.fixture(scope="module", params=[((1, 1), 0.0), ((1, 3), 0.0), ((2, 3), 0.0),
                                        ((1, 1), 1e-2), ((1, 3), 1e-2), ((2, 3), 1e-2)],
                ids=lambda p: f"rates{p[0][0]}{p[0][1]}-noise{p[1]:g}")
def identified(request, plant):
    """(A, C) identified from 3000 cycled samples, and those samples."""
    rates, noise = request.param
    spec = build_masks(rates)
    rng = np.random.default_rng(7)
    log = simulate_multirate(plant, spec, rng.uniform(-1, 1, (3000, 1)))
    u = cycle_signal(log.u, spec.M)
    y = cycle_signal(log.y + noise * rng.uniform(-1, 1, log.y.shape), spec.M)
    idm = subspace_identify(u, y, n=plant.n)
    return idm.A, idm.C, u.samples, y.samples


@pytest.mark.parametrize("N", [173, 40])
def test_bdx0_fit_matches_dense_lstsq(identified, N):
    # the identified matrices as one phase: every sample of the cycled output
    # is a sample of the one-phase regressor, whose rows put them first
    A, C, u, y = identified
    u, y = u[:N], y[:N]
    theta, *_ = np.linalg.lstsq(kernels.io_regressor(A[None], C[None], u),
                                _samples_first(C[None], y), rcond=None)
    want, *_ = np.linalg.lstsq(io_regressor_dense(A, C, u), y.reshape(-1),
                               rcond=None)
    assert np.linalg.norm(theta - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [173, 40])
def test_bdx0_fit_on_phase_blocks_matches_dense_lstsq(identified, N):
    # the identified A is cyclic and C block diagonal, so the regressor of
    # their phase blocks, fitted on the samples and its leading columns
    # scattered back to [x0, vec B, vec D], gives the dense fit
    A, C, u, y = identified
    u, y = u[:N], y[:N]
    M = u.shape[1]  # one input
    Phi = kernels.io_regressor(read_blocks(A, M, 1), read_blocks(C, M, 0), u)
    cols = kernels.regressor_columns(M, A.shape[0] // M, 1, C.shape[0] // M)
    assert not Phi[:, cols.size:].any()
    theta, *_ = np.linalg.lstsq(Phi, _samples_first(read_blocks(C, M, 0), y), rcond=None)
    got = np.zeros(Phi.shape[1])
    got[cols] = theta[:cols.size]
    want, *_ = np.linalg.lstsq(io_regressor_dense(A, C, u), y.reshape(-1),
                               rcond=None)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [173, 40])
def test_full_shape_fit_equals_the_corner_fit(identified, N):
    # the rows past the samples and the padding columns are zero, and so is
    # the right-hand side there: the full-shape least squares is the corner's
    A, C, u, y = identified
    u, y = u[:N], y[:N]
    M = u.shape[1]  # one input
    C = read_blocks(C, M, 0)
    Phi = kernels.io_regressor(read_blocks(A, M, 1), C, u)
    rhs = _samples_first(C, y)
    S = kernels.regressor_rows(C, N).size
    w = kernels.regressor_columns(M, A.shape[0] // M, 1, C.shape[1]).size
    theta, *_ = np.linalg.lstsq(Phi, rhs, rcond=None)
    want, *_ = np.linalg.lstsq(Phi[:S, :w], rhs[:S], rcond=None)
    assert np.linalg.norm(theta[:w] - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(theta[w:]) <= 1e-12 * np.linalg.norm(want)
