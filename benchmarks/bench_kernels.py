"""Time the hot kernels.

Run directly:  python benchmarks/bench_kernels.py

* trajectory: the numba build against the pure-numpy twin (numpy only when
  numba is unavailable or CYCSID_DISABLE_NUMBA=1).
* B/D/x0 fit: the chunked regressor build against the dense per-sample
  reference, each followed by the same ``np.linalg.lstsq``.  The cycled
  paper plant at periods M = 1, 6, 12 with N = 3000 samples; prints the
  build and fit times and the largest relative difference in theta.
"""

import time

import numpy as np

from cycsid import benchmark_plant, build_masks, cycle_signal, cyclic_reformulate, kernels
from cycsid import simulate_multirate


def bench(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def lstsq(Phi, y):
    theta, *_ = np.linalg.lstsq(Phi, y.reshape(-1), rcond=None)
    return theta


def bench_trajectory():
    rng = np.random.default_rng(0)
    n, m, l, N = 18, 6, 12, 3000
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(l, n))
    D = np.zeros((l, m))
    u = rng.uniform(-1, 1, size=(N, m))
    x0 = np.zeros(n)
    args = (A, B, C, D, u, x0)

    print(f"trajectory: order {n}, {m} inputs, {l} outputs, {N} steps")
    t_np, ref = bench(kernels._trajectory_numpy, *args)
    if not kernels.HAS_NUMBA:
        print(f"  numpy {t_np * 1e3:8.2f} ms (numba unavailable or disabled)")
        return
    kernels._trajectory_jit(*args)  # trigger compilation outside the timed region
    t_jit, jit = bench(kernels._trajectory_jit, *args)
    diff = max(np.abs(a - b).max() for a, b in zip(ref, jit))
    print(f"  numpy {t_np * 1e3:8.2f} ms   numba {t_jit * 1e3:8.2f} ms"
          f"   speedup {t_np / t_jit:6.1f}x   agreement {diff:.3g}")


def bench_bdx0(N=3000):
    plant = benchmark_plant()
    print(f"B/D/x0 fit: cycled paper plant, N = {N}")
    print(f"  {'rates':8s} {'M':>3s} {'rows x cols':>14s} {'chunked':>11s} {'dense':>11s}"
          f" {'speedup':>8s} {'lstsq':>11s} {'max rel dtheta':>15s}")
    worst = 0.0
    for rates in ((1, 1), (2, 3), (3, 4)):
        spec = build_masks(rates)
        cs = cyclic_reformulate(plant, spec)
        log = simulate_multirate(plant, spec, np.random.default_rng(0).uniform(-1, 1, (N, 1)))
        args = (cs.A, cs.C, cycle_signal(log.u, spec.M).samples)
        y = cycle_signal(log.y, spec.M).samples
        repeat = 1 if spec.M >= 12 else 3
        t_new, Phi = bench(kernels.io_regressor, *args, repeat=repeat)
        t_ref, Phi_ref = bench(kernels._io_regressor_dense, *args, repeat=repeat)
        t_fit, theta = bench(lstsq, Phi, y, repeat=repeat)
        want = lstsq(Phi_ref, y)
        rel = np.linalg.norm(theta - want) / np.linalg.norm(want)
        worst = max(worst, rel)
        shape = f"{Phi.shape[0]}x{Phi.shape[1]}"
        print(f"  {str(rates):8s} {spec.M:3d} {shape:>14s} {t_new * 1e3:8.1f} ms"
              f" {t_ref * 1e3:8.1f} ms {t_ref / t_new:7.1f}x {t_fit * 1e3:8.1f} ms {rel:15.2e}")
    print(f"  largest relative theta difference: {worst:.2e}")


def main():
    bench_trajectory()
    bench_bdx0()


if __name__ == "__main__":
    main()
