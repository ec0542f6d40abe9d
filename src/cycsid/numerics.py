"""Dense linear-algebra services: validated matrices and values, tolerant rank, inverse."""

import reprlib

import numpy as np

from .errors import DimensionMismatchError, NonSquareError, SingularMatrixError

#: Relative singular-value cutoff separating signal from round-off.
DEFAULT_RANK_TOL = 1e-9


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


def invert(m, tol=DEFAULT_RANK_TOL):
    """Inverse via factorized solve; raises SingularMatrixError below full rank."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"inverse needs a square matrix, got {m.shape}")
    if rank_with_tol(m, tol) < m.shape[0]:
        raise SingularMatrixError(
            f"matrix of size {m.shape[0]} is numerically singular at tol {tol:g}"
        )
    return np.linalg.solve(m, np.eye(m.shape[0]))
