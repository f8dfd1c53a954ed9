"""Dense brute-force reference path for small tensors.

Everything in this module materializes full arrays and uses plain dense
SVDs, so it is only for desk-scale inputs — it exists to falsify the
structured implementations in :mod:`ttinherit.tt` and
:mod:`ttinherit.properties`, not to be fast.  A dense tensor here is just a
float64 ``numpy.ndarray``; unfoldings use Fortran-order reshapes so the row
and column orderings agree with the package-wide linearization.  Dense
results are capped at :data:`DENSE_CAP` entries, read at call time, and
scipy is imported only inside :func:`cur_reconstruct_check`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, NumericError, RankZeroError, SearchError
from .linalg import DEFAULT_RANK_TOL, numerical_rank, pinv_spectral_norm, thin_svd, truncated_svd
from .multiindex import IndexSet, Shape, _integer, kron_extend
from .properties import UnfoldingReport, unfolding_report
from .tt import TTTensor, _check_block, left_interface, right_interface, row_restrict

__all__ = [
    "DENSE_CAP",
    "to_dense",
    "column_submatrix",
    "tt_svd_from_dense",
    "dense_unfolding",
    "mode_k_product",
    "CurReport",
    "cur_reconstruct_check",
    "dense_properties",
    "dense_alpha_it",
    "dense_beta_i",
]

DENSE_CAP = 10**7  # cap on every dense result here, in entries


def _require_dense(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise DomainError(f"dense tensor needs at least 2 modes, got ndim={x.ndim}")
    if min(x.shape) < 1:
        raise DomainError(f"empty mode in shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("dense tensor contains non-finite entries")
    return x


def to_dense(t: TTTensor) -> np.ndarray:
    """The full tensor, contracted by its own ``numpy.tensordot`` chain, not
    by the interface code it is compared with; refused when it, or any
    partial product, would hold more than :data:`DENSE_CAP` entries."""
    most = max(t.shape.prefix_size(k) * c.shape[2] for k, c in enumerate(t.cores, start=1))
    if most > DENSE_CAP:
        raise CapacityError(f"dense tensor would hold {most} entries (cap {DENSE_CAP})")
    X = t.cores[0][0]
    for core in t.cores[1:]:
        X = np.tensordot(X, core, axes=1)
    return X[..., 0]


def column_submatrix(t: TTTensor, i: int, rows: IndexSet, J: IndexSet) -> np.ndarray:
    """Dense |rows| x |J| submatrix of the i-th unfolding, T_<i>(rows, J).

    Built as L_i(rows, :) @ R_i(J, :).T; the full unfolding never exists.
    The *result* is dense, so its size is capped.
    """
    i = _check_block(t, i, rows, J)
    if len(rows) * len(J) > DENSE_CAP:
        raise CapacityError(f"submatrix would hold {len(rows) * len(J)} entries (cap {DENSE_CAP})")
    L = left_interface(t, i)[rows.zero_based(), :]
    R = right_interface(t, i)[J.zero_based(), :]
    return L @ R.T


def tt_svd_from_dense(dense, rank_tol: float = DEFAULT_RANK_TOL) -> TTTensor:
    """Build a TT from a dense array by sequential compact SVDs (TT-SVD,
    Oseledets, SIAM J. Sci. Comput. 33(5), 2011, Algorithm 1).

    The declared ranks of the result equal the numerical unfolding ranks of
    the input at ``rank_tol``; reconstruction matches the input to roundoff.
    """
    X = _require_dense(dense)
    if X.size > DENSE_CAP:
        raise CapacityError(f"dense tensor holds {X.size} entries (cap {DENSE_CAP})")
    cores = []
    r_prev = 1
    cur = X
    for k in range(X.ndim - 1):
        M = cur.reshape(r_prev * X.shape[k], -1, order="F")
        U, s, Vt = truncated_svd(M, rank_tol)
        cores.append(U.reshape(r_prev, X.shape[k], s.size, order="F"))
        cur = s[:, None] * Vt
        r_prev = s.size
    cores.append(cur.reshape(r_prev, X.shape[-1], 1, order="F"))
    return TTTensor(cores)


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
    :class:`RankZeroError`.  Its pivoted QR is the package's one use of
    scipy (the ``test`` extra), imported here so the package never loads it.
    """
    if I.domain != t.shape[0]:
        raise DomainError(f"I domain {I.domain} != first mode size {t.shape[0]}")
    if len(I) == 0:
        raise DomainError("I must be nonempty")
    import scipy.linalg

    X = to_dense(t)
    M1 = dense_unfolding(X, 1)
    r1 = numerical_rank(np.linalg.svd(M1, compute_uv=False), rank_tol)
    if r1 == 0:
        raise RankZeroError("unfolding 1 is numerically zero")
    A = M1[I.zero_based(), :]
    s = np.linalg.svd(A, compute_uv=False)
    if numerical_rank(s, rank_tol) != r1:
        return CurReport(False, None, float("nan"), False)
    _, _, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    k = r1
    while True:
        cols = np.sort(piv[:k])
        rank_k = numerical_rank(np.linalg.svd(A[:, cols], compute_uv=False), rank_tol)
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
