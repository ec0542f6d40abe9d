"""Dense linear-algebra services: validated matrices, values and signal
records, the memory budget every large array is sized against, tolerant
rank, inverse, and the BLAS thread count each factorization runs on.

OpenBLAS splits each LAPACK call over its threads, and waking them costs
more than it saves on the small factorizations an identification makes by
the dozen.  `blas_threads` caps the loaded OpenBLAS at one thread for a
block of such calls and gives the caller's own thread count back to the one
large factorization inside it whose rows * cols^2 reaches _THREADED_WORK.
The count is process-wide: while one Python thread is inside a block, every
other thread's BLAS calls run capped as well.  Without OpenBLAS the blocks
change nothing.
"""

import ctypes
import math
import reprlib
import threading
from contextlib import contextmanager

import numpy as np

from .errors import (
    DimensionMismatchError,
    MemoryBudgetError,
    NonSquareError,
    SingularMatrixError,
)

#: Relative singular-value cutoff separating signal from round-off.
DEFAULT_RANK_TOL = 1e-9

#: Bytes that one array of a run may take: the simulated record, the LQ
#: operand and the B/D/x0 regressor are each sized against it before they are
#: built.  It admits the largest benchmark or stress operand, the 1.98 GB
#: regressor of the paper plant at rates (4,5) with N = 3000, and refuses
#: the 12.3 GiB one at rates (5,6) with N = 6000.
MEMORY_BUDGET = 2**31

#: rows * cols^2 from which a QR-based factorization gains from OpenBLAS's
#: threads (OpenBLAS 0.3.31, 2 vCPUs): a (24000 x 114) least squares (3.1e8)
#: ran in 0.63 of its one-thread time on two threads, a (1983 x 324) LQ
#: (2.1e8) in 1.33 of it and a (1993 x 48) one in 1.5.  A rule on the row
#: count alone (one thread below about 8000 rows) would lose: the paper_m6 LQ
#: (2983 x 324, 3.1e8) took 29.9 ms on one thread and 29.4 on two, the
#: wide_m12 LQ (2975 x 936, 2.6e9) 135.8 ms on one and 105.4 on two (medians
#: of 9 alternating rounds), so it would cost wide_m12 about 30 ms a run
_THREADED_WORK = 2.5e8

#: (prefix, suffix) of OpenBLAS's thread-count functions, as numpy's wheels
#: and the system libraries name them
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                     ("openblas_", "64_"), ("openblas_", ""))

_openblas = None  # (get, set) of the loaded OpenBLAS's thread count, () when none
_lock = threading.Lock()
_depth = 0  # blas_threads blocks open in this process
_caller = None  # the thread count outside every block


def as_matrix(a, name="matrix"):
    """Validate and return a as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatchError(f"{name} must be 2-D and nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return m


def as_vector(v, length=None, name="vector"):
    """Validate and return v as a 1-D float64 array, optionally of fixed length."""
    x = np.asarray(v, dtype=np.float64).reshape(-1)
    if length is not None and x.shape[0] != length:
        raise DimensionMismatchError(f"{name} must have length {length}, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return x


def as_signal(a, name="signal"):
    """a as an (N, q) float64 record, a 1-D one as one column; any other
    rank is a DimensionMismatchError naming it."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be (N, q), got shape {arr.shape}")
    return arr


def convert(key, value, to, what):
    """to(value); a value that to refuses is a ValueError naming key and what it must be."""
    try:
        return to(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{key} must be {what}, got {reprlib.repr(value)}") from e


def integer(value):
    """value as an int; a string, a bool or a fractional number raises ValueError."""
    if isinstance(value, (str, bool)) or int(value) != value:
        raise ValueError(value)
    return int(value)


def number(value):
    """value as a float; a string or a bool raises ValueError."""
    if isinstance(value, (str, bool)):
        raise ValueError(value)
    return float(value)


def numbers(value):
    """value, a number or nested lists of them, as a float64 array; a string
    or a bool anywhere in it raises ValueError."""
    arr = np.array(value, dtype=object)
    if any(isinstance(v, (str, bool)) for v in arr.flat):
        raise ValueError(value)
    return arr.astype(np.float64)


def of_type(*types):
    """A conversion that passes a value of one of types through and refuses any other."""
    def check(value):
        if not isinstance(value, types):
            raise TypeError(value)
        return value
    return check


def optional(to):
    """The conversion to, with None passed through."""
    return lambda value: None if value is None else to(value)


def exactly(doc, name, keys, required):
    """doc as an object holding no key outside keys and every key of
    required; anything else is a ValueError that names the key.  name is
    the record's key, or the file's kind, "config" or "model", for the file
    itself, whose keys are named alone."""
    doc = convert(name, doc, of_type(dict), "an object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; expected {sorted(keys)}")
    absent = [k if name in ("config", "model") else f"{name}.{k}" for k in required if k not in doc]
    if absent:
        raise ValueError(f"missing required field '{absent[0]}'")
    return doc


def check_budget(name, shape):
    """Raise MemoryBudgetError, naming name, shape and size, when a float64
    array of shape would take more than MEMORY_BUDGET bytes."""
    size = 8 * math.prod(shape)
    if size > MEMORY_BUDGET:
        raise MemoryBudgetError(f"the {name}, shape {tuple(shape)}, would take "
                                f"{size / 2**30:.3g} GiB, over the "
                                f"{MEMORY_BUDGET / 2**30:g} GiB memory budget")


def rank_with_tol(m, tol=DEFAULT_RANK_TOL):
    """Number of singular values strictly above tol times the largest one.

    A stack of matrices, shape (k, r, c), gives an array of k ranks, all cut
    at tol times the largest singular value of the whole stack: the ranks of
    the diagonal blocks of a block-diagonal matrix at that matrix's cutoff.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    mats = np.asarray(m, dtype=np.float64)
    stacked = mats.ndim == 3
    if stacked:
        as_matrix(mats.reshape(-1, mats.shape[-1]))  # nonempty and finite
    else:
        mats = as_matrix(mats)[None]
    sv = np.linalg.svd(mats, compute_uv=False)
    ranks = np.count_nonzero(sv > tol * sv.max(initial=0.0), axis=1)
    return ranks if stacked else int(ranks[0])


def invert(m):
    """Inverse via factorized solve; raises SingularMatrixError when the rank
    at DEFAULT_RANK_TOL is below full."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"inverse needs a square matrix, got {m.shape}")
    if rank_with_tol(m) < m.shape[0]:
        raise SingularMatrixError(
            f"matrix of size {m.shape[0]} is numerically singular at tol {DEFAULT_RANK_TOL:g}"
        )
    return np.linalg.solve(m, np.eye(m.shape[0]))


def _find_openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS mapped into this
    process, or () when none is found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return ()
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return ()


@contextmanager
def blas_threads(work=0):
    """Run the block on one OpenBLAS thread, or on the caller's own count
    when work, the rows * cols^2 of the one factorization the block makes,
    reaches _THREADED_WORK; the caller's count is the one outside every
    open block.  The count the block found is set back when it ends, also
    when it raises.  Also a decorator: @blas_threads() caps a function.
    OpenBLAS is looked up once, on first use.
    """
    global _openblas, _depth, _caller
    if _openblas is None:
        _openblas = _find_openblas()
    if not _openblas:
        yield
        return
    get, put = _openblas
    with _lock:
        before = get()
        if _depth == 0:
            _caller = before
        _depth += 1
        put(_caller if work >= _THREADED_WORK else 1)
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            # the last block to end restores the count found outside them all
            put(before if _depth else _caller)
