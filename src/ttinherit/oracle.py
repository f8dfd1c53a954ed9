"""Dense brute-force reference path for small tensors.

Everything in this module materializes full arrays and uses plain dense
SVDs, so it is only for desk-scale inputs — it exists to falsify the
structured implementations in :mod:`ttinherit.tt` and
:mod:`ttinherit.properties`, not to be fast.  A dense tensor here is just a
float64 ``numpy.ndarray``; unfoldings use Fortran-order reshapes so the row
and column orderings agree with the package-wide linearization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericError, RankZeroError, SearchError
from .linalg import DEFAULT_RANK_TOL, numerical_rank, pinv_spectral_norm, thin_svd
from .multiindex import IndexSet, Shape, _integer, kron_extend
from .properties import UnfoldingReport, unfolding_report
from .tt import TTTensor, row_restrict, to_dense

__all__ = [
    "dense_unfolding",
    "mode_k_product",
    "CurReport",
    "cur_reconstruct_check",
    "dense_properties",
    "dense_alpha_it",
    "dense_beta_i",
]


def _require_dense(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise DomainError(f"dense tensor needs at least 2 modes, got ndim={x.ndim}")
    if min(x.shape) < 1:
        raise DomainError(f"empty mode in shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("dense tensor contains non-finite entries")
    return x


def dense_unfolding(x, i: int) -> np.ndarray:
    """Unfolding with modes 1..i as rows, i+1..d as columns, first index fastest."""
    x = _require_dense(x)
    d = x.ndim
    if not 1 <= i <= d - 1:
        raise DomainError(f"unfolding position must be in [1, {d - 1}], got {i}")
    rows = Shape(x.shape).prefix_size(i)
    return x.reshape(rows, -1, order="F")


def mode_k_product(x, M, k: int) -> np.ndarray:
    """Contract mode k of x with the columns of M: out(..., j, ...) = sum_s M[j,s] x(..., s, ...)."""
    x = _require_dense(x)
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DomainError(f"mode factor must be a matrix, got ndim={M.ndim}")
    k = _integer(k)
    if not 1 <= k <= x.ndim:
        raise DomainError(f"mode k must be in [1, {x.ndim}], got {k}")
    if M.shape[1] != x.shape[k - 1]:
        raise DomainError(
            f"mode factor has {M.shape[1]} columns but mode {k} has size {x.shape[k - 1]}"
        )
    # tensordot puts the contracted result's new axis first; move it back to k-1
    return np.moveaxis(np.tensordot(M, x, axes=(1, k - 1)), 0, k - 1)


@dataclass(frozen=True)
class CurReport:
    """Outcome of the skeleton-reconstruction identity check."""

    hypothesis_ok: bool
    J: IndexSet | None
    residual: float
    passed: bool


def cur_reconstruct_check(
    t: TTTensor, I: IndexSet, rank_tol: float = DEFAULT_RANK_TOL
) -> CurReport:
    """Check the skeleton identity: keeping rows I of the first unfolding and a
    greedily chosen column set J, the original tensor is recovered as
    (row subtensor) x_1 (C @ pinv(U)) with C the kept columns and U the
    intersection block.

    The hypothesis is that the kept rows span the full column space of
    unfolding 1; if they do not, the report flags it (residual NaN) instead
    of raising.  Column selection is greedy QR pivoting on the kept rows;
    exhausting the pivots without reaching full rank raises
    :class:`SearchError`, and a numerically zero unfolding 1 raises
    :class:`RankZeroError`.
    """
    X = to_dense(t)
    M1 = dense_unfolding(X, 1)
    if I.domain != t.shape[0]:
        raise DomainError(f"I domain {I.domain} != first mode size {t.shape[0]}")
    if len(I) == 0:
        raise DomainError("I must be nonempty")
    r1 = numerical_rank(scipy.linalg.svdvals(M1), rank_tol)
    if r1 == 0:
        raise RankZeroError("unfolding 1 is numerically zero")
    A = M1[I.zero_based(), :]
    s = scipy.linalg.svdvals(A)
    if numerical_rank(s, rank_tol) != r1:
        return CurReport(False, None, float("nan"), False)
    _, _, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    k = r1
    while True:
        cols = np.sort(piv[:k])
        rank_k = numerical_rank(scipy.linalg.svdvals(A[:, cols]), rank_tol)
        if rank_k == r1:
            break
        if k >= piv.size:
            raise SearchError("pivot search exhausted without reaching full rank")
        k += 1
    J = IndexSet(cols + 1, M1.shape[1])
    C = M1[:, J.zero_based()]
    U = A[:, J.zero_based()]
    R = row_restrict(t, 1, I)
    factor = C @ np.linalg.pinv(U, rcond=rank_tol)
    rec = mode_k_product(to_dense(R), factor, 1)
    residual = float(np.linalg.norm(X - rec) / np.linalg.norm(X))
    return CurReport(True, J, residual, residual <= 1e-8)


def dense_properties(x, i: int, rank_tol: float = DEFAULT_RANK_TOL) -> UnfoldingReport:
    """Brute-force rank/incoherence/conditioning of unfolding i of a dense tensor."""
    return unfolding_report(i, thin_svd(dense_unfolding(x, i), rank_tol))


def dense_alpha_it(x, I_i: IndexSet, i: int, t_off: int, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Dense counterpart of the row-sampling factor, for oracle comparisons.

    Builds the exact row set of unfolding k = i + t - 1 selected by I_i (all
    trailing mode combinations through mode k), takes the dense SVD's W, and
    evaluates the same formula as the structured path.
    """
    x = _require_dense(x)
    shp = Shape(x.shape)
    k = i + t_off - 1
    svd = thin_svd(dense_unfolding(x, k), rank_tol)
    rows = I_i
    for j in range(i + 1, k + 1):
        rows = kron_extend(rows, x.shape[j - 1])
    P_i = shp.prefix_size(i)
    return float(np.sqrt(len(I_i) / P_i) * pinv_spectral_norm(svd.W[rows.zero_based(), :], rank_tol))


def dense_beta_i(x, J_i: IndexSet, i: int, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Dense counterpart of the column-sampling factor."""
    x = _require_dense(x)
    shp = Shape(x.shape)
    svd = thin_svd(dense_unfolding(x, i), rank_tol)
    Q_i = shp.suffix_size(i)
    return float(np.sqrt(len(J_i) / Q_i) * pinv_spectral_norm(svd.V[J_i.zero_based(), :], rank_tol))
