"""Dense factorization kernels: compact SVD, rank, norms."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from ttinherit import (
    DomainError,
    NumericError,
    RankZeroError,
    SingularityError,
    ThinSVD,
    condition_number,
    numerical_rank,
    pinv_spectral_norm,
    thin_svd,
)
import ttinherit.linalg as linalg_mod
from ttinherit.linalg import blas_thread_budget, loaded_openblas, max_row_norm
from ttinherit.multiindex import derived_rng

# ---------------------------------------------------------------- numerical_rank


def test_numerical_rank_hand_values():
    assert numerical_rank(np.array([5.0, 3.0, 1e-14]), 1e-9) == 2
    assert numerical_rank(np.array([1.0]), 0.5) == 1
    assert numerical_rank(np.array([1.0, 0.5e-9]), 1e-9) == 1  # just below threshold
    assert numerical_rank(np.array([]), 1e-9) == 0


def test_numerical_rank_rejects_bad_spectra():
    with pytest.raises(DomainError):
        numerical_rank(np.array([1.0, 2.0]), 1e-9)  # increasing
    with pytest.raises(DomainError):
        numerical_rank(np.array([1.0, -0.5]), 1e-9)  # negative


@pytest.mark.parametrize(
    "sigma, error, message",
    [
        ([1.0, np.nan], NumericError, "singular values contain non-finite entries"),
        ([np.inf, 1.0], NumericError, "singular values contain non-finite entries"),
        ([1.0, -0.5], DomainError, "singular values must be non-negative"),
        # negative and increasing: the sign is checked first
        ([0.5, -1.0, 2.0], DomainError, "singular values must be non-negative"),
        ([1.0, 2.0], DomainError, "singular values must be non-increasing"),
        ([3.0, 1.0, 1.0, 2.0], DomainError, "singular values must be non-increasing"),
    ],
)
def test_numerical_rank_refuses_each_bad_spectrum_with_its_own_message(sigma, error, message):
    with pytest.raises(error) as info:
        numerical_rank(np.array(sigma), 1e-9)
    assert type(info.value) is error and str(info.value) == message


def test_numerical_rank_counts_ties_and_zeros():
    assert numerical_rank(np.array([1.0, 1.0, 0.0]), 1e-9) == 2
    assert numerical_rank(np.array([0.0, 0.0]), 1e-9) == 0
    assert numerical_rank([2.0, 1e-9, 1e-300], 0.0) == 3
    assert numerical_rank(np.array([2.0, 2e-9, 1e-9]), 1e-9) == 1  # at the cut is out
    assert type(numerical_rank(np.array([2.0, 1.0]), np.float64(0.5))) is int


@pytest.mark.parametrize("rank_tol", [np.nan, -1.0, 1.0])
def test_rank_tol_outside_zero_one_is_refused_at_both_entry_points(rank_tol):
    # a NaN tolerance compares False against every value, so it once counted
    # no singular value and let a zero column through as 1 / 0
    message = f"rank_tol must be in [0, 1), got {rank_tol}"
    with pytest.raises(DomainError) as info:
        numerical_rank([1.0, 0.5], rank_tol)
    assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        numerical_rank([], rank_tol)
    assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        pinv_spectral_norm(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), rank_tol)
    assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        thin_svd(np.eye(2), rank_tol)  # through truncated_svd
    assert str(info.value) == message


# ---------------------------------------------------------------- thin_svd


def test_thin_svd_diagonal():
    svd = thin_svd(np.diag([3.0, 1.0]))
    assert np.allclose(svd.sigma, [3.0, 1.0])
    assert np.allclose(np.abs(svd.W), np.eye(2), atol=1e-14)
    assert np.allclose(np.abs(svd.V), np.eye(2), atol=1e-14)
    assert svd.rank == 2 and svd.shape == (2, 2)


def test_thin_svd_truncates_rank_one():
    svd = thin_svd(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert svd.rank == 1
    assert np.allclose(svd.sigma, [5.0], atol=1e-12)


def test_thin_svd_two_by_two_spectrum():
    # singular values of [[1,1],[0,1]] are sqrt((3 +- sqrt(5)) / 2)
    svd = thin_svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    want = np.sqrt((3.0 + np.sqrt(5.0) * np.array([1.0, -1.0])) / 2.0)
    assert np.allclose(svd.sigma, want, rtol=1e-14)
    ratio = svd.sigma[0] / svd.sigma[1]
    assert np.isclose(ratio, np.sqrt((7.0 + 3.0 * np.sqrt(5.0)) / 2.0), rtol=1e-14)
    assert np.isclose(ratio, 2.6180, atol=5e-5)


def test_thin_svd_zero_matrix_raises():
    with pytest.raises(RankZeroError):
        thin_svd(np.zeros((3, 2)))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6))
def test_thin_svd_reconstructs(seed, m, n):
    M = derived_rng(seed, "svd").standard_normal((m, n))
    if not M.any():
        M[0, 0] = 1.0
    svd = thin_svd(M)
    # random real matrices are full rank almost surely
    assert svd.rank == min(m, n)
    assert np.abs(svd.reconstruct() - M).max() <= 1e-10 * svd.sigma[0]


def test_thin_svd_reconstructs_at_a_million_rows():
    M = derived_rng(3, "tall").standard_normal((1_000_000, 4))
    svd = thin_svd(M)
    assert svd.rank == 4
    assert np.abs(svd.W.T @ svd.W - np.eye(4)).max() <= 1e-12
    # spot-check reconstruction on a row sample instead of the full product
    rows = np.linspace(0, M.shape[0] - 1, 1000, dtype=int)
    rec = (svd.W[rows] * svd.sigma) @ svd.V.T
    assert np.abs(rec - M[rows]).max() <= 1e-10 * svd.sigma[0]


# ---------------------------------------------------------------- pinv_spectral_norm


def test_pinv_spectral_norm_hand_values():
    assert np.isclose(pinv_spectral_norm(np.eye(3)), 1.0, rtol=1e-14)
    M = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.isclose(pinv_spectral_norm(M), 1.0, rtol=1e-14)


def test_pinv_spectral_norm_rank_deficient_raises():
    with pytest.raises(SingularityError):
        pinv_spectral_norm(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularityError):
        pinv_spectral_norm(np.ones((1, 2)))  # fewer rows than columns


def test_pinv_spectral_norm_is_one_for_orthonormal_columns():
    for seed in range(5):
        M = derived_rng(seed, "orth").standard_normal((60, 4))
        Q, _ = np.linalg.qr(M)
        assert abs(pinv_spectral_norm(Q) - 1.0) <= 1e-12


def test_pinv_spectral_norm_is_inverse_smallest_singular_value():
    M = derived_rng(11, "pinv").standard_normal((30, 5))
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    assert np.isclose(pinv_spectral_norm(M), 1.0 / smin, rtol=1e-12)


def test_pinv_spectral_norm_agrees_with_scipy_svdvals():
    # scipy's LAPACK is an independent reference for numpy's singular values
    for seed, shape in enumerate([(8, 2), (12, 3), (30, 5), (5, 5), (200, 4)]):
        M = derived_rng(seed, "pinv-scipy").standard_normal(shape)
        want = 1.0 / scipy.linalg.svdvals(M)[-1]
        assert np.isclose(pinv_spectral_norm(M), want, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------- max_row_norm
# the row two-inf norm, max_i ||M[i, :]||_2


def test_row_two_inf_norm_hand_values():
    assert max_row_norm(np.eye(3)) == 1.0
    assert max_row_norm(np.array([[3.0, 4.0], [1.0, 0.0]])) == 5.0
    assert max_row_norm(np.zeros((2, 3))) == 0.0


def test_row_two_inf_norm_bounded_by_one_on_orthonormal_columns():
    for seed in range(5):
        Q, _ = np.linalg.qr(derived_rng(seed, "rowinf").standard_normal((50, 3)))
        assert max_row_norm(Q) <= 1.0 + 1e-12


@pytest.mark.parametrize("rows", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
@pytest.mark.parametrize("order", ["C", "F"])
def test_max_row_norm_reads_every_block_bit_for_bit(rows, order):
    # the largest row sits in the last block, which is partial except at 2^16
    assert linalg_mod.ROW_BLOCK == 1 << 16
    M = np.asarray(derived_rng(rows, "blocks").uniform(-1.0, 1.0, (rows, 3)), order=order)
    M[-1] = [1.5, -1.25, 1.0]
    want = np.sqrt(np.einsum("ij,ij->i", M, M).max())
    assert want == np.sqrt(M[-1] @ M[-1])
    assert max_row_norm(M) == want


# ---------------------------------------------------------------- condition_number


def test_condition_number_hand_values():
    assert np.isclose(condition_number(thin_svd(np.diag([3.0, 1.0]))), 3.0, rtol=1e-14)
    Q, _ = np.linalg.qr(derived_rng(0, "cond").standard_normal((4, 4)))
    assert np.isclose(condition_number(thin_svd(Q)), 1.0, atol=1e-12)
    svd = thin_svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.isclose(condition_number(svd), np.sqrt((7.0 + 3.0 * np.sqrt(5.0)) / 2.0), rtol=1e-13)


@given(st.integers(0, 2**32 - 1))
def test_condition_number_at_least_one(seed):
    M = derived_rng(seed, "cond-ge1").standard_normal((8, 4))
    assert condition_number(thin_svd(M)) >= 1.0


# ---------------------------------------------------------------- ThinSVD validation


def _valid_factors():
    W, _ = np.linalg.qr(derived_rng(5, "tsvd").standard_normal((6, 2)))
    V, _ = np.linalg.qr(derived_rng(6, "tsvd").standard_normal((4, 2)))
    return W, np.array([2.0, 1.0]), V


def test_thin_svd_container_validates_widths():
    W, s, V = _valid_factors()
    with pytest.raises(DomainError):
        ThinSVD(W, s[:1], V)


def test_thin_svd_container_validates_spectrum():
    W, s, V = _valid_factors()
    with pytest.raises(DomainError):
        ThinSVD(W, np.array([1.0, 2.0]), V)  # increasing
    with pytest.raises(DomainError):
        ThinSVD(W, np.array([1.0, 0.0]), V)  # not strictly positive
    with pytest.raises(RankZeroError):
        ThinSVD(W[:, :0], np.array([]), V[:, :0])


def test_thin_svd_container_validates_orthonormality():
    W, s, V = _valid_factors()
    with pytest.raises(DomainError):
        ThinSVD(W * 1.001, s, V)
    with pytest.raises(NumericError):
        ThinSVD(W, np.array([np.inf, 1.0]), V)


@pytest.mark.parametrize("factor", ["W", "V"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_thin_svd_refuses_a_non_finite_entry(factor, bad):
    # the Gram of the factor is the finiteness test; one bad entry anywhere
    # must still raise NumericError, not a deviation from orthonormality
    W, s, V = _valid_factors()
    F = W if factor == "W" else V
    F[F.shape[0] // 2, 1] = bad
    with pytest.raises(NumericError):
        ThinSVD(W, s, V)


@pytest.mark.parametrize("signs", ["same", "mixed"])
def test_thin_svd_refuses_a_finite_factor_whose_gram_overflows(signs):
    # entries ~1e200 are finite, but their squares are not.  With one sign
    # the Gram is +inf.  With column 2 negative in its lower half, OpenBLAS
    # sums the 4096 rows in blocks, and the blocks' +inf and -inf add to a
    # NaN off-diagonal: a deviation that compares False against any bound
    _, s, V = _valid_factors()
    W = np.full((4096, 2), 1e200)
    if signs == "mixed":
        W[2048:, 1] = -1e200
    with pytest.raises(DomainError, match="orthonormality"):
        ThinSVD(W, s, V)


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("zero last sigma", DomainError, "singular values must be strictly positive"),
        ("increasing sigma", DomainError, "singular values must be non-increasing"),
        ("NaN sigma", NumericError, "ThinSVD factors contain non-finite entries"),
        ("infinite last sigma", NumericError, "ThinSVD factors contain non-finite entries"),
        ("NaN in W", NumericError, "ThinSVD factors contain non-finite entries"),
        ("infinity in a rotation", NumericError, "ThinSVD factors contain non-finite entries"),
        ("W off by 2e-12", DomainError, "W columns deviate from orthonormality by 2.000e-12"),
        ("V off by 2e-12", DomainError, "V columns deviate from orthonormality by 2.000e-12"),
        ("Gram overflows to inf", DomainError, "W columns deviate from orthonormality by inf"),
        ("Gram overflows to NaN", DomainError, "W columns deviate from orthonormality by nan"),
    ],
)
def test_thin_svd_refuses_each_bad_input_with_its_own_message(case, error, message):
    W, s, V = _valid_factors()
    rotations = (None, None)
    if case == "zero last sigma":
        s = np.array([1.0, 0.0])
    elif case == "increasing sigma":
        s = np.array([1.0, 2.0])
    elif case == "NaN sigma":
        s = np.array([np.nan, 1.0])
    elif case == "infinite last sigma":  # also increasing: finiteness comes first
        s = np.array([1.0, np.inf])
    elif case == "NaN in W":
        W[2, 1] = np.nan
    elif case == "infinity in a rotation":
        QW, UW, s, V, UV = _rotated_factors()
        UV[1, 0] = np.inf
        W, rotations = QW, (UW, UV)
    elif case == "W off by 2e-12":
        W = W * (1 + 1e-12)
    elif case == "V off by 2e-12":
        V = V * (1 + 1e-12)
    else:  # finite entries whose squares overflow (see the test above)
        W = np.full((4096, 2), 1e200)
        if case.endswith("NaN"):
            W[2048:, 1] = -1e200
    with pytest.raises(error) as info:
        ThinSVD(W, s, V, rotations=rotations)
    assert type(info.value) is error and str(info.value) == message


def test_thin_svd_accepts_a_deviation_within_the_tolerance():
    W, s, V = _valid_factors()
    svd = ThinSVD(W * (1 + 4e-13), s, V * (1 - 4e-13))  # about 8e-13 off
    assert svd.rank == 2


def test_thin_svd_container_is_read_only():
    W, s, V = _valid_factors()
    svd = ThinSVD(np.ascontiguousarray(W), s, V)
    assert svd.W.flags.f_contiguous and svd.V.flags.f_contiguous  # stored column-major
    with pytest.raises(ValueError):
        svd.W[0, 0] = 9.0
    with pytest.raises(ValueError):
        svd.sigma[0] = 9.0


def test_thin_svd_leaves_the_callers_arrays_writeable():
    # a factor already column-major is stored without a copy; the read-only
    # flag must go on ThinSVD's own view of it, not on the caller's array
    A = np.random.default_rng(5).standard_normal((6, 3))
    W = np.asfortranarray(np.linalg.qr(A)[0])
    s = np.array([3.0, 2.0, 1.0])
    svd = ThinSVD(W, s, W.copy())
    assert np.shares_memory(svd.W, W)
    assert W.flags.writeable and s.flags.writeable
    assert not svd.W.flags.writeable and not svd.sigma.flags.writeable


def _rotated_factors():
    """Orthonormal bases of width 3 and 2 with orthogonal rotations to rank 2."""
    QW, _ = np.linalg.qr(derived_rng(7, "tsvd").standard_normal((9, 3)))
    QV, _ = np.linalg.qr(derived_rng(8, "tsvd").standard_normal((5, 2)))
    UW, _ = np.linalg.qr(derived_rng(9, "tsvd").standard_normal((3, 2)))
    UV, _ = np.linalg.qr(derived_rng(10, "tsvd").standard_normal((2, 2)))
    return QW, UW, np.array([2.0, 1.0]), QV, UV


def test_a_rotated_thin_svd_is_its_bases_times_the_rotations():
    QW, UW, s, QV, UV = _rotated_factors()
    svd = ThinSVD(QW, s, QV, rotations=(UW, UV))
    assert svd.shape == (9, 5) and svd.rank == 2
    assert np.array_equal(svd.W, (UW.T @ QW.T).T) and np.array_equal(svd.V, (UV.T @ QV.T).T)
    assert np.abs(svd.reconstruct() - (QW @ UW * s) @ (QV @ UV).T).max() <= 1e-14
    # a Gram the caller passes is the one checked
    ThinSVD(QW, s, QV, rotations=(UW, UV), grams=(np.eye(3), np.eye(2)))
    with pytest.raises(DomainError, match="orthonormality"):
        ThinSVD(QW, s, QV, rotations=(UW, UV), grams=(1.001 * np.eye(3), np.eye(2)))
    # so are the row norms it passes, read only when asked for, and only for
    # V, whose 2 x 2 rotation is orthogonal; W's 3 x 2 one is read rotated
    calls = []
    norms = (lambda: calls.append("W") or 7.0, lambda: calls.append("V") or 0.5)
    known = ThinSVD(QW, s, QV, rotations=(UW, UV), row_norms=norms)
    assert calls == []
    assert known.factor_max_row_norm("W") == max_row_norm(svd.W)
    assert known.factor_max_row_norm("V") == 0.5 and calls == ["V"]
    assert svd.factor_max_row_norm("V") == max_row_norm(QV)
    assert abs(max_row_norm(QV) - max_row_norm(svd.V)) <= 1e-15


def test_a_rotated_thin_svd_refuses_a_rotation_that_is_not_orthonormal():
    QW, UW, s, QV, UV = _rotated_factors()
    with pytest.raises(DomainError, match="W columns deviate"):
        ThinSVD(QW, s, QV, rotations=(UW * 1.001, UV))
    with pytest.raises(DomainError, match="V columns deviate"):
        ThinSVD(QW, s, QV, rotations=(UW, UV + 1e-9))
    with pytest.raises(DomainError):
        ThinSVD(QW, s, QV, rotations=(UW[:2], UV))  # rows do not match the basis
    with pytest.raises(DomainError):
        ThinSVD(QW, s, QV, rotations=(UW[:, :1], UV))  # width does not match the rank
    with pytest.raises(DomainError):
        ThinSVD(QW, s, QV, rotations=(UW, UV), grams=(np.eye(2), None))
    # 2 QV times UV / 2 is still V, but its rows are not those of the basis
    with pytest.raises(DomainError, match="V columns deviate"):
        ThinSVD(QW, s, 2.0 * QV, rotations=(UW, UV / 2.0))


@pytest.mark.parametrize("where", ["basis", "rotation", "gram"])
def test_a_rotated_thin_svd_refuses_a_non_finite_entry(where):
    QW, UW, s, QV, UV = _rotated_factors()
    grams = (None, None)
    if where == "basis":
        QW[4, 1] = np.nan
    elif where == "rotation":
        UV[1, 0] = np.inf
    else:  # a Gram carried from elsewhere overflowed while the basis is finite
        grams = (np.full((3, 3), np.inf), None)
    error = DomainError if where == "gram" else NumericError
    with pytest.raises(error):
        ThinSVD(QW, s, QV, rotations=(UW, UV), grams=grams)


def test_factor_rows_reads_either_side_and_refuses_another():
    QW, UW, s, QV, UV = _rotated_factors()
    svd = ThinSVD(QW, s, QV, rotations=(UW, UV))
    idx = np.array([0, 4, 8])
    assert svd.factor_rows("W", idx).tobytes() == svd.W[idx].tobytes()
    assert svd.factor_rows("V", idx[:2]).tobytes() == svd.V[idx[:2]].tobytes()
    assert svd.rotate("W", svd.basis("W")[idx]).tobytes() == svd.factor_rows("W", idx).tobytes()
    # the R of a QR of basis rows goes to a matrix with those rows' singular values
    R = np.linalg.qr(QW[idx], mode="r")
    got = np.linalg.svd(svd.rotate("W", R), compute_uv=False)
    assert np.abs(got - np.linalg.svd(svd.factor_rows("W", idx), compute_uv=False)).max() <= 1e-15
    assert thin_svd(np.eye(3)).rotate("V", R) is R  # no rotation: B itself
    with pytest.raises(DomainError):
        svd.factor_rows("U", idx)
    with pytest.raises(AttributeError):
        svd.sigma = s


# ---------------------------------------------------------------- BLAS threads


@pytest.fixture()
def openblas_libs():
    libs = loaded_openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    return libs


def test_loaded_openblas_finds_each_library_once(openblas_libs):
    libs = openblas_libs
    assert len({lib.path for lib in libs}) == len(libs)
    assert all("openblas" in lib.path.lower() and lib.get_threads() >= 1 for lib in libs)


@pytest.fixture()
def malloc_calls(monkeypatch):
    """The libc lookup patched to a glibc whose every malloc call is recorded."""
    calls = []
    fake = linalg_mod.GlibcMalloc(
        mallopt=lambda param, value: calls.append(("mallopt", param, value)) or 1,
        malloc_trim=lambda pad: calls.append(("malloc_trim", pad)) or 1,
    )
    monkeypatch.setattr(linalg_mod, "glibc_malloc", lambda: fake)
    return calls


HEAP_KEPT = [
    ("mallopt", linalg_mod.M_MMAP_THRESHOLD, 32 * 1024 * 1024),
    ("mallopt", linalg_mod.M_TRIM_THRESHOLD, linalg_mod.KEPT_TRIM_THRESHOLD),
]
HEAP_RESTORED = [
    ("mallopt", linalg_mod.M_MMAP_THRESHOLD, 128 * 1024),
    ("mallopt", linalg_mod.M_TRIM_THRESHOLD, 128 * 1024),
    ("malloc_trim", 0),
]


def test_blas_thread_budget_restores_counts_after_an_error(openblas_libs, malloc_calls):
    libs = openblas_libs
    before = [lib.get_threads() for lib in libs]
    with blas_thread_budget() as (_, heap_kept):
        assert heap_kept and malloc_calls == HEAP_KEPT
    assert malloc_calls == HEAP_KEPT + HEAP_RESTORED
    malloc_calls.clear()
    with pytest.raises(RuntimeError):
        with blas_thread_budget() as (found, heap_kept):
            assert [lib.get_threads() for lib in libs] == [1] * len(libs)
            assert [n for _, n in found] == before
            assert heap_kept and malloc_calls == HEAP_KEPT
            raise RuntimeError("inside the budget")
    assert [lib.get_threads() for lib in libs] == before
    assert malloc_calls == HEAP_KEPT + HEAP_RESTORED


def test_overlapping_budgets_restore_the_count_found_first(openblas_libs, malloc_calls):
    libs = openblas_libs
    before = [lib.get_threads() for lib in libs]
    first, second = blas_thread_budget(), blas_thread_budget()
    first.__enter__()
    entered = []
    th = threading.Thread(target=lambda: entered.append(second.__enter__()))
    th.start()
    th.join(timeout=30)
    assert not th.is_alive()
    try:
        first.__exit__(None, None, None)
        while_second_runs = [lib.get_threads() for lib in libs]
        malloc_while_second_runs = list(malloc_calls)
    finally:
        second.__exit__(None, None, None)
    assert while_second_runs == [1] * len(libs)
    assert [lib.get_threads() for lib in libs] == before
    assert entered[0][1] is True
    assert malloc_while_second_runs == HEAP_KEPT  # set once, by the first
    assert malloc_calls == HEAP_KEPT + HEAP_RESTORED


def test_budgets_entered_from_many_threads_restore_the_count(openblas_libs):
    libs = openblas_libs
    before = [lib.get_threads() for lib in libs]
    errors = []

    def enter_and_leave():
        try:
            for _ in range(50):
                with blas_thread_budget():
                    pass
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert linalg_mod._SAVED.users == 0
    assert [lib.get_threads() for lib in libs] == before


def test_a_dropped_budget_is_closed_on_a_thread_holding_the_lock(openblas_libs):
    libs = openblas_libs
    before = [lib.get_threads() for lib in libs]
    errors = []

    def drop_while_locked():
        try:
            dropped = blas_thread_budget()
            dropped.__enter__()
            with linalg_mod._SAVED.lock:
                del dropped  # closing it runs its exit here, under the lock
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    th = threading.Thread(target=drop_while_locked, daemon=True)
    th.start()
    th.join(timeout=30)
    assert not th.is_alive()
    assert errors == []
    assert linalg_mod._SAVED.users == 0
    assert [lib.get_threads() for lib in libs] == before
