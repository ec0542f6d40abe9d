import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from cycsid import (
    DimensionMismatchError,
    ExperimentConfig,
    InsufficientDataError,
    MemoryBudgetError,
    NonSquareError,
    SingularMatrixError,
    cycle_signal,
    invert,
    numerics,
    rank_with_tol,
    run_identification,
    subspace_identify,
)
from cycsid.numerics import MEMORY_BUDGET, as_signal, blas_threads, check_budget, number, numbers

from conftest import random_plant
from oracles import shift_matrix


def test_rank_identity():
    assert rank_with_tol(np.eye(3), 1e-10) == 3


def test_rank_zero_matrix():
    assert rank_with_tol(np.zeros((4, 2)), 1e-10) == 0
    # an empty or non-2-D operand, and a negative tolerance, are refused
    for bad in (np.zeros((0, 2)), np.zeros(3)):
        with pytest.raises(DimensionMismatchError, match="must be 2-D and nonempty"):
            rank_with_tol(bad)
    with pytest.raises(ValueError, match="^tol must be nonnegative$"):
        rank_with_tol(np.eye(2), -1.0)


def test_rank_counts_only_clear_directions():
    m = np.diag([1.0, 1e-3, 1e-12])
    assert rank_with_tol(m, 1e-9) == 2
    assert rank_with_tol(m, 1e-15) == 3


def test_rank_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.normal(size=(5, 4))
        m[:, 3] = m[:, 0] + m[:, 1]  # force rank 3
        r = rank_with_tol(m)
        pr = rng.permutation(5)
        pc = rng.permutation(4)
        assert rank_with_tol(m[pr][:, pc]) == r


def test_as_signal_makes_a_vector_one_column_and_keeps_a_record():
    column = as_signal([1, 2, 3])
    assert column.shape == (3, 1) and column.dtype == np.float64
    assert column[:, 0].tolist() == [1.0, 2.0, 3.0]
    record = np.arange(6).reshape(3, 2)
    got = as_signal(record)
    assert got.dtype == np.float64 and np.array_equal(got, record)


@pytest.mark.parametrize("shape", [(2, 2, 2), ()])
def test_as_signal_refuses_any_other_rank(shape):
    with pytest.raises(DimensionMismatchError,
                       match=rf"u must be \(N, q\), got shape {re.escape(str(shape))}"):
        as_signal(np.zeros(shape), "u")


def test_number_takes_numbers_and_refuses_text_and_booleans():
    assert [number(v) for v in (2, 0.5, np.float64(3.0), float("inf"))] == [2.0, 0.5, 3.0,
                                                                             float("inf")]
    assert all(type(number(v)) is float for v in (2, np.int64(2)))
    for value in ("1e-3", "2", True, False, None, [1.0]):
        with pytest.raises((ValueError, TypeError)):
            number(value)


def test_numbers_refuse_text_or_a_boolean_anywhere():
    out = numbers([[1, 0.5], [2, -3.0]])
    assert out.dtype == np.float64 and np.array_equal(out, [[1.0, 0.5], [2.0, -3.0]])
    assert numbers(np.eye(2)).dtype == np.float64
    for value in ([["0.5"]], [[0.5, True]], [1.0, "x"], "1", [[1.0], [2.0, 3.0]]):
        with pytest.raises(ValueError):
            numbers(value)


def test_check_budget_names_the_operand_its_shape_and_size():
    check_budget("operand", (MEMORY_BUDGET // 8,))  # exactly the budget fits
    with pytest.raises(MemoryBudgetError) as err:
        check_budget("operand", (360000, 4590))
    assert str(err.value) == ("the operand, shape (360000, 4590), would take 12.3 GiB, "
                              "over the 2 GiB memory budget")
    assert isinstance(err.value, ValueError)  # exit 2, as a config error


def test_invert_identity():
    assert np.allclose(invert(np.eye(4)), np.eye(4), atol=0)


def test_invert_shift_is_transpose():
    s = shift_matrix(1, 3)
    si = invert(s)
    assert np.abs(si - s.T).max() <= 1e-12
    assert np.abs(si - s @ s).max() <= 1e-12


def test_invert_zero_raises():
    with pytest.raises(SingularMatrixError):
        invert(np.zeros((2, 2)))
    with pytest.raises(NonSquareError, match=r"^inverse needs a square matrix, got \(2, 3\)$"):
        invert(np.ones((2, 3)))


def test_invert_roundtrip_well_conditioned():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        if np.linalg.cond(m) > 1e8:
            continue
        assert np.abs(m @ invert(m) - np.eye(6)).max() <= 1e-8


def test_rank_of_a_stack_cuts_at_the_largest_singular_value_of_all():
    # the blocks of a block-diagonal matrix, ranked at the whole matrix's cutoff
    blocks = np.array([np.diag([1.0, 1e-3]), np.diag([1e-8, 1e-12])])
    assert rank_with_tol(blocks, 1e-10).tolist() == [2, 1]
    assert rank_with_tol(blocks[1], 1e-10) == 2
    whole = np.zeros((4, 4))
    whole[:2, :2], whole[2:, 2:] = blocks
    assert rank_with_tol(blocks, 1e-10).sum() == rank_with_tol(whole, 1e-10)


@pytest.fixture
def openblas():
    """get_num_threads of the loaded OpenBLAS, its count set to 3 for the
    test (a count no default gives on a 2-core host) and restored after."""
    calls = numerics._find_openblas()
    if not calls:
        pytest.skip("no OpenBLAS is loaded")
    get, put = calls
    before = get()
    put(3)
    yield get
    put(before)


def small_config():
    """A corpus-sized run whose every factorization is below the threaded
    work: n = 3, rates (3, 3), N = 2000."""
    plant = random_plant(np.random.default_rng(5), 3, 2, with_d=True)
    return ExperimentConfig(plant=plant, rates=(3, 3), N=2000,
                            input={"kind": "uniform", "amplitude": 1.0, "seed": 7})


def test_blas_threads_caps_small_work_and_restores_the_count(openblas):
    with blas_threads():
        assert openblas() == 1
        with blas_threads(numerics._THREADED_WORK - 1):
            assert openblas() == 1
        assert openblas() == 1
    assert openblas() == 3


def test_nested_blas_threads_give_large_work_the_callers_count_and_restore_each_level(openblas):
    with blas_threads():
        with blas_threads(numerics._THREADED_WORK):
            assert openblas() == 3
            with blas_threads():
                assert openblas() == 1
            assert openblas() == 3
        assert openblas() == 1
    assert openblas() == 3
    with blas_threads(numerics._THREADED_WORK):  # outside any cap: the count as it is
        assert openblas() == 3
    assert openblas() == 3


def test_concurrent_blocks_leave_the_callers_count_when_the_last_one_ends(openblas):
    # the depth and the caller's count are shared by every Python thread; a
    # lost update would leave the count capped, or the depth off zero
    def enter_and_leave():
        for _ in range(2000):
            with blas_threads(), blas_threads(numerics._THREADED_WORK), blas_threads():
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert numerics._depth == 0
    assert openblas() == 3


def test_run_identification_restores_the_count_after_a_return(openblas):
    _, report = run_identification(small_config())
    assert report.failures() == []
    assert openblas() == 3


def test_the_count_is_restored_after_an_error_inside_the_cap(openblas):
    u = cycle_signal(np.random.default_rng(1).uniform(-1, 1, (400, 1)), 3)
    y = cycle_signal(np.zeros((400, 2)), 3)
    with pytest.raises(InsufficientDataError):
        subspace_identify(u, y, n=2)
    assert openblas() == 3
    with pytest.raises(ZeroDivisionError), blas_threads():
        1 / 0
    assert openblas() == 3


def test_without_openblas_the_cap_changes_nothing(monkeypatch):
    monkeypatch.setattr(numerics, "_openblas", ())
    with blas_threads():
        pass
    _, report = run_identification(small_config())
    assert report.failures() == []
    assert numerics._depth == 0


_REPORT_SCRIPT = """
import json, sys
import numpy as np
import cycsid
doc = json.loads(sys.argv[1])
cfg = cycsid.ExperimentConfig(plant=cycsid.make_state_space(*doc["plant"]), rates=doc["rates"],
                              N=doc["N"], input=doc["input"])
d = cycsid.run_identification(cfg)[1].to_dict()
del d["timings"]
print(json.dumps(d, sort_keys=True))
"""


def test_a_small_run_gives_the_same_bits_on_one_and_two_blas_threads():
    # every factorization of this run is below the threaded work, so it runs
    # on one thread whatever count the process starts with; without the cap
    # the report's last bits differed between the two counts
    cfg = small_config()
    doc = json.dumps({"plant": [X.tolist() for X in (cfg.plant.A, cfg.plant.B, cfg.plant.C,
                                                     cfg.plant.D)],
                      "rates": list(cfg.rates), "N": cfg.N, "input": cfg.input})
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    reports = [subprocess.run([sys.executable, "-c", _REPORT_SCRIPT, doc], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path,
                                   "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert json.loads(reports[0])["tf_passed"] is True
    assert reports[0] == reports[1]
