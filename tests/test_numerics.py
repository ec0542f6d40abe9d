import numpy as np
import pytest

from cycsid import SingularMatrixError, invert, rank_with_tol
from cycsid.cyclic import shift_matrix


def test_rank_identity():
    assert rank_with_tol(np.eye(3), 1e-10) == 3


def test_rank_zero_matrix():
    assert rank_with_tol(np.zeros((4, 2)), 1e-10) == 0


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
