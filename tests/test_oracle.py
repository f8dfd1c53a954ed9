"""Dense brute-force reference path and the skeleton-reconstruction identity."""

import subprocess
import sys

import numpy as np
import pytest

from ttinherit import (
    DomainError,
    IndexSet,
    RankZeroError,
    TTTensor,
    sample_without_replacement,
    to_dense,
    tt_incoherence,
)
from ttinherit.multiindex import derived_rng
from ttinherit.oracle import (
    cur_reconstruct_check,
    dense_alpha_it,
    dense_beta_i,
    dense_properties,
    dense_unfolding,
    mode_k_product,
)

from conftest import make_tt, rel_err

# ---------------------------------------------------------------- dense_unfolding


def test_dense_unfolding_of_a_matrix_is_itself():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(dense_unfolding(X, 1), X)


def test_dense_unfolding_refolds_to_identity():
    X = derived_rng(1, "fold").standard_normal((3, 4, 5))
    for i in (1, 2):
        M = dense_unfolding(X, i)
        assert np.array_equal(M.reshape(X.shape, order="F"), X)


def test_dense_unfolding_shapes_and_errors():
    X = np.ones((2, 3, 4))
    assert dense_unfolding(X, 1).shape == (2, 12)
    assert dense_unfolding(X, 2).shape == (6, 4)
    with pytest.raises(DomainError):
        dense_unfolding(X, 0)
    with pytest.raises(DomainError):
        dense_unfolding(X, 3)
    with pytest.raises(DomainError):
        dense_unfolding(np.ones(3), 1)


def test_dense_unfolding_matches_interface_product(hand_tt):
    X = to_dense(hand_tt)
    assert rel_err(dense_unfolding(X, 1), [[3.0, 4.0], [6.0, 8.0]]) == 0.0


# ---------------------------------------------------------------- mode_k_product


def test_mode_k_product_identity_is_noop():
    X = derived_rng(2, "modek").standard_normal((3, 4, 2))
    for k in (1, 2, 3):
        out = mode_k_product(X, np.eye(X.shape[k - 1]), k)
        assert np.allclose(out, X, rtol=1e-14)


def test_mode_k_product_row_selection_and_scaling():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = mode_k_product(X, np.array([[2.0, 0.0]]), 1)
    assert np.allclose(out, [[2.0, 4.0]])
    out = mode_k_product(X, np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    assert np.allclose(out, [[2.0, 1.0], [4.0, 3.0]])


def test_mode_k_product_commutes_with_unfolding():
    X = derived_rng(3, "modek").standard_normal((3, 4, 2))
    A = derived_rng(4, "modek").standard_normal((5, 3))
    got = dense_unfolding(mode_k_product(X, A, 1), 1)
    want = A @ dense_unfolding(X, 1)
    assert rel_err(got, want) <= 1e-12


def test_mode_k_product_rejects_mismatch():
    X = np.ones((3, 4))
    with pytest.raises(DomainError):
        mode_k_product(X, np.ones((2, 5)), 1)
    with pytest.raises(DomainError):
        mode_k_product(X, np.ones((2, 3)), 3)
    with pytest.raises(DomainError):
        mode_k_product(X, np.ones(3), 1)
    # the mode is a whole number: True is not mode 1, and 1.0 is refused
    # with a DomainError as every other bad mode is
    Y = np.ones((2, 3, 4))
    for k in (True, 1.5):
        with pytest.raises(DomainError, match="expected an integer"):
            mode_k_product(Y, np.eye(2), k)
    assert np.array_equal(mode_k_product(Y, np.eye(2), 1.0), Y)


# ---------------------------------------------------------------- cur_reconstruct_check


def test_cur_full_rows_reconstruct_exactly():
    t = make_tt("gaussian", (6, 5, 4), (2, 2), seed=31)
    report = cur_reconstruct_check(t, IndexSet.full(6))
    assert report.hypothesis_ok
    assert report.passed
    assert report.residual <= 1e-10
    assert report.J is not None and len(report.J) >= 2


def test_cur_random_valid_rows_reconstruct():
    t = make_tt("gaussian", (8, 8, 8, 8), (2, 3, 2), seed=32)
    rng = derived_rng(32, "rows")
    n_valid = 0
    for _ in range(5):
        I = sample_without_replacement(IndexSet.full(8), 4, rng)
        report = cur_reconstruct_check(t, I)
        if not report.hypothesis_ok:
            continue
        n_valid += 1
        assert report.passed, report.residual
        assert report.residual <= 1e-8
    assert n_valid >= 3  # generic draws keep rank almost surely


def test_cur_flags_rank_deficient_rows():
    # duplicate the first slice of mode 1, then keep only the duplicated pair:
    # those two rows of the first unfolding are identical, so they span rank 1 < 2
    base = make_tt("gaussian", (6, 5, 4), (2, 2), seed=33)
    c1 = base.cores[0].copy()
    c1[:, 1, :] = c1[:, 0, :]
    t = TTTensor([c1, *base.cores[1:]])
    report = cur_reconstruct_check(t, IndexSet([1, 2], 6))
    assert not report.hypothesis_ok
    assert not report.passed
    assert np.isnan(report.residual)
    assert report.J is None


def test_cur_of_a_zero_tensor_raises_rank_zero():
    t = TTTensor([np.zeros((1, 3, 2)), np.zeros((2, 3, 1))])
    with pytest.raises(RankZeroError):
        cur_reconstruct_check(t, IndexSet.full(3))


def test_cur_rejects_bad_index_sets():
    t = make_tt("gaussian", (6, 5, 4), (2, 2), seed=34)
    with pytest.raises(DomainError):
        cur_reconstruct_check(t, IndexSet([1], 7))
    with pytest.raises(DomainError):
        cur_reconstruct_check(t, IndexSet([], 6))


def test_cur_checks_the_index_set_before_building_anything():
    # at 100^4 the dense tensor would be over DENSE_CAP, so a check made after
    # building it would raise CapacityError; a refused call loads no scipy
    code = (
        "import sys\n"
        "from ttinherit import GeneratorSpec, IndexSet, Shape, generate\n"
        "from ttinherit.oracle import cur_reconstruct_check\n"
        "t = generate(GeneratorSpec('gaussian', Shape((100,) * 4), (2, 3, 2), seed=35))\n"
        "try:\n"
        "    cur_reconstruct_check(t, IndexSet([1, 2], 50))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["DomainError", "False"]


# ---------------------------------------------------------------- dense_properties


def test_dense_properties_all_ones_tensor():
    X = np.ones((3, 4, 2))
    for i in (1, 2):
        rep = dense_properties(X, i)
        assert rep.rank == 1
        assert np.isclose(rep.mu1, 1.0, rtol=1e-12)
        assert np.isclose(rep.mu2, 1.0, rtol=1e-12)
        assert np.isclose(rep.kappa, 1.0, rtol=1e-12)


def test_dense_properties_single_spike_tensor():
    X = np.zeros((3, 4, 2))
    X[0, 0, 0] = 7.0
    for i in (1, 2):
        m, n = dense_unfolding(X, i).shape
        rep = dense_properties(X, i)
        assert rep.rank == 1
        assert np.isclose(rep.mu1, m, rtol=1e-12)
        assert np.isclose(rep.mu2, n, rtol=1e-12)


def test_dense_properties_match_structured_reports():
    t = make_tt("gaussian", (6, 6, 6, 6), (2, 3, 2), seed=35)
    X = to_dense(t)
    for rep_struct in tt_incoherence(t):
        rep_dense = dense_properties(X, rep_struct.i)
        assert rep_struct.rank == rep_dense.rank
        assert abs(rep_struct.mu1 - rep_dense.mu1) <= 1e-8 * rep_dense.mu1
        assert abs(rep_struct.mu2 - rep_dense.mu2) <= 1e-8 * rep_dense.mu2
        assert abs(rep_struct.kappa - rep_dense.kappa) <= 1e-8 * rep_dense.kappa


# ---------------------------------------------------------------- dense sampling factors


def test_dense_factors_are_one_under_full_sampling():
    t = make_tt("gaussian", (5, 4, 3), (2, 2), seed=36)
    X = to_dense(t)
    assert np.isclose(dense_alpha_it(X, IndexSet.full(5), 1, 1), 1.0, atol=1e-12)
    assert np.isclose(dense_alpha_it(X, IndexSet.full(5), 1, 2), 1.0, atol=1e-12)
    assert np.isclose(dense_alpha_it(X, IndexSet.full(20), 2, 1), 1.0, atol=1e-12)
    assert np.isclose(dense_beta_i(X, IndexSet.full(12), 1), 1.0, atol=1e-12)
    assert np.isclose(dense_beta_i(X, IndexSet.full(3), 2), 1.0, atol=1e-12)
