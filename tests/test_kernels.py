import itertools
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
    for N, m in itertools.product([1, 2, kernels._CHUNK + 1, 200], [1, 3]):
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
        x, y = kernels.trajectory(A, B, C, D, u, x0)
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
        want_x, want_y = kernels.trajectory(A, B, C, D, u, x0)
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
    chunk = 2 * kernels._CHUNK ** 2 * (n + m) * 8
    assert peak <= x.nbytes + y.nbytes + chunk


@pytest.mark.parametrize("a, finite, diverges", [(2.0, 1000, 1100), (5.0, 400, 500)])
def test_simulate_overflows_where_the_per_step_recursion_does(a, finite, diverges):
    # x(k) = (a^k - 1) / (a - 1) under u = 1: the scan's powers and partial sums
    # stay below the final state, so it overflows exactly when the recursion does
    plant = make_state_space([[a]], [[1.0]], [[1.0]], [[0.0]])
    log = simulate(plant, np.ones(finite))
    want_x, want_y = kernels.trajectory(plant.A, plant.B, plant.C, plant.D,
                                        np.ones((finite, 1)), np.zeros(1))
    assert np.isfinite(log.x).all() and np.isfinite(log.y).all()
    assert np.abs(log.x - want_x).max() <= 1e-13 * np.abs(want_x).max()
    with pytest.raises(DivergentPlantError, match=f"N = {diverges} samples"):
        simulate(plant, np.ones(diverges))


def test_io_regressor_layout(workload):
    A, B, C, D, u, x0 = workload
    n = A.shape[0]
    m = u.shape[1]
    l = C.shape[0]
    Phi = kernels.io_regressor(A, C, u)
    # reconstruct the response from theta = [x0, vec B, vec D] and compare
    theta = np.concatenate([x0, B.ravel(order="F"), D.ravel(order="F")])
    _, y = kernels.trajectory(A, B, C, D, u, x0)
    assert np.abs(Phi @ theta - y.reshape(-1)).max() <= 1e-10


def test_io_regressor_is_column_major(workload):
    # LAPACK solves on a column-major copy; the layout changes speed, not theta
    A, B, C, D, u, x0 = workload
    _, y = kernels.trajectory(A, B, C, D, u, x0)
    Phi = kernels.io_regressor(A, C, u)
    assert Phi.flags.f_contiguous
    theta, *_ = np.linalg.lstsq(Phi, y.reshape(-1), rcond=None)
    want, *_ = np.linalg.lstsq(np.ascontiguousarray(Phi), y.reshape(-1), rcond=None)
    assert np.array_equal(theta, want)


@pytest.mark.parametrize("N, m", [
    *(pytest.param(N, 2, id=str(N)) for N in (200, 3 * kernels._CHUNK,
                                               2 * kernels._CHUNK + 1, kernels._CHUNK - 5, 1)),
    # the Toeplitz gather interleaves the inputs, so its layout depends on m
    pytest.param(200, 3, id="m3-200"),
    pytest.param(kernels._CHUNK + 1, 3, id="m3-65"),
])
def test_io_regressor_matches_dense_reference(workload, N, m):
    A, B, C, D, u, x0 = workload
    u = u[:N] if m == u.shape[1] else np.random.default_rng(3).uniform(-1, 1, size=(N, m))
    want = kernels._io_regressor_dense(A, C, u)
    got = kernels.io_regressor(A, C, u)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("m, M", [(1, 3), (1, 6), (2, 3), (2, 6)])
def test_io_regressor_matches_dense_reference_on_cycled_inputs(m, M):
    # the pipeline feeds cycled inputs, mostly exact zeros, and a cycled model
    # whose masked output rows are zero; the D block holds exact zeros and
    # exact copies of u
    rng = np.random.default_rng(10 * m + M)
    n, l = 3, 2
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    plant = make_state_space(A, rng.normal(size=(n, m)), rng.normal(size=(l, n)),
                             rng.normal(size=(l, m)))
    cs = cyclic_reformulate(plant, build_masks((1, M)))
    N = 2 * kernels._CHUNK + 7
    u = cycle_signal(rng.uniform(-1, 1, size=(N, m)), M).samples
    want = kernels._io_regressor_dense(cs.A, cs.C, u)
    got = kernels.io_regressor(cs.A, cs.C, u)
    nb = M * n * (1 + M * m)  # x0 and B columns
    assert got.shape == want.shape and got.shape[1] == nb + M * l * M * m
    assert np.abs(got[:, :nb] - want[:, :nb]).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(got[:, nb:], want[:, nb:])


@pytest.mark.parametrize("n, m, rates, N", [
    (3, 1, (2, 3), 3 * kernels._CHUNK + 5),
    (2, 2, (1, 4, 2), 2 * kernels._CHUNK + 7),
    (3, 2, (3, 4), 250),
    (2, 1, (1, 3), 5),
    (1, 2, (1,), kernels._CHUNK + 1),
])
def test_phase_regressor_matches_dense_reference(n, m, rates, N):
    # from the phase blocks of a cyclic A and a block-diagonal C, with some
    # outputs never sampled at some phases: the same regressor as the dense
    # per-sample build, including N not a multiple of the chunk or of M
    rng = np.random.default_rng(100 * n + 10 * m + N)
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    plant = make_state_space(A, rng.normal(size=(n, m)), rng.normal(size=(len(rates), n)),
                             rng.normal(size=(len(rates), m)))
    spec = build_masks(rates)
    cs = cyclic_reformulate(plant, spec)
    u = cycle_signal(rng.uniform(-1, 1, size=(N, m)), spec.M).samples
    want = kernels._io_regressor_dense(cs.A, cs.C, u)
    got = kernels.io_regressor(read_blocks(cs.A, spec.M, 1), read_blocks(cs.C, spec.M, 0), u)
    assert got.shape == want.shape and got.flags.f_contiguous
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not want[got == 0].any()  # what it leaves out is zero


def test_io_regressor_allocates_no_regressor_sized_temporary():
    # chunks are written in place: beyond Phi itself only chunk-sized
    # temporaries live, here under 5% of Phi's 57 MB at rates (2, 3)
    spec = build_masks((2, 3))
    cs = cyclic_reformulate(benchmark_plant(), spec)
    u = cycle_signal(np.random.default_rng(5).uniform(-1, 1, size=(3000, 1)), spec.M).samples
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        Phi = kernels.io_regressor(cs.A, cs.C, u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert Phi.shape == (3000 * 12, 18 + 18 * 6 + 12 * 6)
    assert peak <= 1.05 * Phi.nbytes


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
    idm = subspace_identify(u, y, order=plant.n * spec.M)
    return idm.A, idm.C, u.samples, y.samples


@pytest.mark.parametrize("N", [2 * kernels._CHUNK + 45, kernels._CHUNK - 24])
def test_bdx0_fit_matches_dense_lstsq(identified, N):
    A, C, u, y = identified
    u, y = u[:N], y[:N]
    theta, *_ = np.linalg.lstsq(kernels.io_regressor(A, C, u), y.reshape(-1), rcond=None)
    want, *_ = np.linalg.lstsq(kernels._io_regressor_dense(A, C, u), y.reshape(-1),
                               rcond=None)
    assert np.linalg.norm(theta - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [2 * kernels._CHUNK + 45, kernels._CHUNK - 24])
def test_bdx0_fit_on_phase_blocks_matches_dense_lstsq(identified, N):
    # the identified A is cyclic and C block diagonal, so the regressor of
    # their phase blocks gives the dense fit
    A, C, u, y = identified
    u, y = u[:N], y[:N]
    M = u.shape[1]  # one input
    Phi = kernels.io_regressor(read_blocks(A, M, 1), read_blocks(C, M, 0), u)
    theta, *_ = np.linalg.lstsq(Phi, y.reshape(-1), rcond=None)
    want, *_ = np.linalg.lstsq(kernels._io_regressor_dense(A, C, u), y.reshape(-1),
                               rcond=None)
    assert np.linalg.norm(theta - want) <= 1e-12 * np.linalg.norm(want)
