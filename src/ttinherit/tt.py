"""Tensor trains, interface matrices, and structured unfolding SVDs.

A tensor train (TT) stores a d-mode tensor as a chain of order-3 cores
``G_1, ..., G_d`` with ``G_k`` of shape ``(r_{k-1}, n_k, r_k)`` and boundary
ranks ``r_0 = r_d = 1``; an entry is the chained matrix product

    T[j_1, ..., j_d] = G_1[:, j_1, :] @ G_2[:, j_2, :] @ ... @ G_d[:, j_d, :].

The i-th unfolding T_<i> (first i modes as rows, rest as columns, first
index fastest on both sides) factors as ``L_i @ R_i.T`` where the "interface"
matrices L_i (prod(n_1..n_i) x r_i) and R_i (prod(n_{i+1}..n_d) x r_i) come
from contracting the chain up to / after position i.  Everything here that
looks like it touches an unfolding really touches only L_i and R_i, so a
100^4 tensor costs megabytes, not gigabytes.

Each tensor also carries its two orthogonal forms, built on first use by
one sweep of small per-core QRs each, as in TT-SVD and TT-rounding
(Oseledets, "Tensor-Train Decomposition", SIAM J. Sci. Comput. 33(5),
2011, section 3): a left-orthogonal TT ``A`` with small factors ``S_i`` so
that ``L_i = left_interface(A, i) @ S_i``, and a right-orthogonal TT ``B``
with ``R_i = right_interface(B, i) @ T_i``.  The interfaces of ``A`` and
``B`` have orthonormal columns, so the SVD of T_<i> needs only the SVD of
the r x r matrix ``S_i @ T_i.T``; no QR of a tall interface ever runs.
Its singular factors stay factored, ``W_i = left_interface(A, i) @ U`` and
``V_i = right_interface(B, i) @ V'`` with r x r rotations, and their
orthonormality is checked on Grams carried through the cores of ``A`` and
``B`` (O(d n r^3)), so making the SVD reads no interface row at all.

Each of ``A`` and ``B`` keeps one memo per side, a dict in which its
interfaces, their Grams and their largest row norms are kept, read-only,
when first built (keys ``("Q", k)``, ``("G", k)``, ``("norm", k)``), so
every check of a tensor reads each interface built once, each by one
step from the interface one mode shorter, and the memo lives and dies
with the form tensor.  A rotation that is square is orthogonal, so the
largest row norm of a singular factor is that of its interface.  Only
the first interface of each side, a boundary core, is read for it in a
pass; every later one is read as quadratic forms over the interface one
mode shorter (:func:`_interface_max_row_norm`), so no row of it is read.
A subtensor from :func:`row_restrict` shares ``B``'s trailing cores and
so also its right memo.  Tensors from the :class:`TTTensor` constructor
keep no memo.

Sampled rows of W_k that nested row sets induce, I_i extended by every
value of modes i+1..k, are never gathered: a sweep of small QRs from
``left_interface(A, i)[I_i]`` over the cores i+1..k of ``A`` gives a
matrix of at most r_k rows with their singular values (:func:`_row_sweep`),
and one sweep serves every k of a level.

Every factorization here is numpy's (``numpy.linalg.qr`` and, through
:mod:`ttinherit.linalg`, ``numpy.linalg.svd``).  Dense tensors and blocks
are left to the oracle, :mod:`ttinherit.oracle`, which falsifies this module.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapacityError, DomainError, NumericError, StructuralError
from .linalg import DEFAULT_RANK_TOL, ThinSVD, max_row_norm, truncated_svd
from .multiindex import IndexSet, Shape, _integer

__all__ = [
    "INTERFACE_ELEM_CAP",
    "TTTensor",
    "entry",
    "left_interface",
    "right_interface",
    "left_orthogonal_form",
    "right_orthogonal_form",
    "unfolding_svd",
    "submatrix_svd",
    "tt_rank_numerical",
    "row_restrict",
]

INTERFACE_ELEM_CAP = 1 << 27  # ~1 GiB of float64 per interface matrix

# elements in the largest temporary of a quadratic-form row-norm block: at
# most 128 KiB, so the blocks reuse heap memory instead of faulting in
# fresh pages (2^16 raised a serial 10^6, d = 6 trial from 979 to 1,112
# minor faults)
_QUADRATIC_BLOCK = 1 << 14


def _validate_cores(cores) -> tuple[Shape, tuple[int, ...]]:
    """Check the chain structure; return (shape, ranks)."""
    if len(cores) < 2:
        raise StructuralError("a tensor train needs at least 2 cores")
    for k, core in enumerate(cores, start=1):
        if core.ndim != 3:
            raise StructuralError(f"core {k} must be 3-d, got ndim={core.ndim}")
        if min(core.shape) < 1:
            raise StructuralError(f"core {k} has a zero dimension {core.shape}")
        if not np.all(np.isfinite(core)):
            raise NumericError(f"core {k} contains non-finite entries")
    if cores[0].shape[0] != 1:
        raise StructuralError(f"boundary rank r_0 must be 1, core 1 has left rank {cores[0].shape[0]}")
    if cores[-1].shape[2] != 1:
        raise StructuralError(
            f"boundary rank r_d must be 1, core {len(cores)} has right rank {cores[-1].shape[2]}"
        )
    for k in range(len(cores) - 1):
        if cores[k].shape[2] != cores[k + 1].shape[0]:
            raise StructuralError(
                f"rank mismatch at junction {k + 1}: core {k + 1} has right rank "
                f"{cores[k].shape[2]} but core {k + 2} has left rank {cores[k + 1].shape[0]}"
            )
    shape = Shape([c.shape[1] for c in cores])
    ranks = tuple(int(c.shape[2]) for c in cores[:-1])
    return shape, ranks


class TTTensor:
    """Immutable chain of TT cores.

    ``cores[k]`` has shape ``(r_k, n_{k+1}, r_{k+1})`` (0-based k); the
    constructor copies its inputs to read-only float64 arrays and validates
    the chain.  ``shape`` is the :class:`Shape` of mode sizes and ``ranks``
    the *declared* ranks (core widths); see
    :func:`tt_rank_numerical` for the numerical ones.  The orthogonal forms
    (:func:`left_orthogonal_form`, :func:`right_orthogonal_form`) are cached
    on the tensor once built, and their interfaces and Grams in the forms' memos.
    """

    __slots__ = ("cores", "shape", "ranks", "_forms", "_memo")

    def __init__(self, cores):
        cores = tuple(np.array(c, dtype=np.float64, order="C", copy=True) for c in cores)
        shape, ranks = _validate_cores(cores)
        self._set(cores, shape, ranks, None)

    def _set(self, cores, shape, ranks, memo) -> None:
        for c in cores:
            c.setflags(write=False)
        object.__setattr__(self, "cores", cores)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "_forms", [None, None])  # [(A, S), (B, T)]
        # None, or (left, right) dicts of a form tensor, keyed by what is
        # kept and by i on the left, d - i on the right (see _memoized)
        object.__setattr__(self, "_memo", memo)

    def __setattr__(self, name, value):
        raise AttributeError("TTTensor is immutable")

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def size(self) -> int:
        return self.shape.size

    def __repr__(self) -> str:
        return f"TTTensor(shape={self.shape}, ranks={self.ranks})"


def entry(t: TTTensor, multi) -> float:
    """Single tensor entry at a 1-based multi-index (chained 1x1 product)."""
    if len(multi) != t.d:
        raise DomainError(f"multi-index length {len(multi)} != d={t.d}")
    v = None
    for k, (j, core) in enumerate(zip(multi, t.cores), start=1):
        j = _integer(j)
        if not 1 <= j <= core.shape[1]:
            raise DomainError(f"index {j} out of range [1, {core.shape[1]}] at mode {k}")
        slab = core[:, j - 1, :]
        v = slab if v is None else v @ slab
    return float(v[0, 0])


def _check_position(t: TTTensor, i: int) -> int:
    """``i`` as an int (:func:`_integer`), refused unless it is an unfolding
    position of ``t``, 1 <= i <= d - 1."""
    i = _integer(i)
    if not 1 <= i <= t.d - 1:
        raise DomainError(f"unfolding position must be in [1, {t.d - 1}], got {i}")
    return i


def _check_index_set(t: TTTensor, i: int, S: IndexSet, rows: bool, name: str) -> None:
    """Refuse ``S``, an index set over the rows (``rows``) or the columns of
    the i-th unfolding, unless its domain is P_i = prod(n_1..n_i) (or
    Q_i = prod(n_{i+1}..n_d)) and it is not empty."""
    shp = t.shape
    N, modes = (shp.prefix_size(i), f"first {i}") if rows else (shp.suffix_size(i), "trailing")
    if S.domain != N:
        raise DomainError(f"{name} domain {S.domain} != prod of {modes} mode sizes {N}")
    if len(S) == 0:
        raise DomainError(f"{name} must be nonempty")


def _check_block(t: TTTensor, i: int, rows: IndexSet, J: IndexSet) -> int:
    """Domain checks for a block T_<i>(rows, J) of the i-th unfolding; returns i."""
    i = _check_position(t, i)
    _check_index_set(t, i, rows, True, "row set")
    _check_index_set(t, i, J, False, "column set")
    return i


def _check_capacity(cores, i: int, left: bool) -> None:
    """Refuse the i-th left (or right) interface of ``cores`` when any step
    of its chain, not just the last, would hold more than INTERFACE_ELEM_CAP.

    The count comes from the core shapes alone, so a cache hit is refused
    exactly when a build would be.
    """
    rows = (cores[0] if left else cores[-1]).shape[1]
    most = 0
    for core in cores[1:i] if left else cores[-2 : i - 1 : -1]:
        rows *= core.shape[1]
        elems = rows * core.shape[2 if left else 0]
        if elems > most:
            most = elems
    if most > INTERFACE_ELEM_CAP:
        raise CapacityError(f"interface matrix would hold {most} elements (cap {INTERFACE_ELEM_CAP})")


def _left_step(L: np.ndarray, core: np.ndarray) -> np.ndarray:
    """X[p + P*j, b] = sum_a L[p, a] * core[a, j, b], column-major: for L a
    left interface, or some of its rows up to an orthonormal factor on the
    left, those rows extended by the core's mode in the next interface.

    One GEMM: with the core laid out C-contiguous as M[b*n + j, a], the
    product M @ L.T is a C-ordered (r_out*n, P) array whose reshape to
    (r_out, n*P) and transpose is the F-ordered (P*n, r_out) result, with
    no copy.
    """
    r_in, n, r_out = core.shape
    M = np.ascontiguousarray(core.transpose(2, 1, 0)).reshape(r_out * n, r_in)
    return (M @ L.T).reshape(r_out, n * L.shape[0]).T


def _right_step(core: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Y[j + n*b, a] = sum_c core[a, j, c] * R[b, c], column-major."""
    return np.matmul(R, core.transpose(0, 2, 1)).reshape(core.shape[0], -1).T


def _memoized(t: TTTensor, side: int, key: tuple, build, *args):
    """``build(*args)``, kept in the memo of ``t`` on ``side`` (0 left,
    1 right) under ``key`` and built only on first use, when ``t`` has a
    memo (it is a form tensor); an array is kept read-only."""
    if t._memo is None:
        return build(*args)
    memo = t._memo[side]
    value = memo.get(key)
    if value is None:
        value = build(*args)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        memo[key] = value
    return value


def _interface(t: TTTensor, side: int, key: int) -> np.ndarray:
    """The interface of ``t`` over its first (``side`` 0) or last
    (``side`` 1) ``key`` cores, kept in a form tensor's memo under
    ``("Q", key)``: L_key, or R_{d-key}, unchecked.

    Key 1 is a view of the boundary core; every later key is one
    :func:`_left_step` or :func:`_right_step` from key - 1, read from the
    memo, so no prefix of the chain is contracted twice.
    """
    return _memoized(t, side, ("Q", key), _chain_step, t, side, key)


def _chain_step(t: TTTensor, side: int, key: int) -> np.ndarray:
    """Build :func:`_interface` ``(t, side, key)``, reading key - 1 from it."""
    if side == 0:
        if key == 1:
            return t.cores[0][0]  # (n_1, r_1)
        return _left_step(_interface(t, 0, key - 1), t.cores[key - 1])
    if key == 1:
        return t.cores[-1][:, :, 0].T  # (n_d, r_{d-1})
    return _right_step(t.cores[t.d - key], _interface(t, 1, key - 1))


def left_interface(t: TTTensor, i: int) -> np.ndarray:
    """L_i: rows are the first i modes linearized (first index fastest), cols r_i.

    On a tensor of :func:`left_orthogonal_form` the result is built once,
    cached and read-only.
    """
    i = _check_position(t, i)
    _check_capacity(t.cores, i, True)
    return _interface(t, 0, i)


def right_interface(t: TTTensor, i: int) -> np.ndarray:
    """R_i: rows are modes i+1..d linearized (index i+1 fastest), cols r_i.

    On a tensor of :func:`right_orthogonal_form` the result is built once,
    cached and read-only, keyed by the d - i trailing cores it contracts; a
    subtensor of :func:`row_restrict` shares those cores and that memo.
    """
    i = _check_position(t, i)
    _check_capacity(t.cores, i, False)
    return _interface(t, 1, t.d - i)


def _gram(t: TTTensor, side: int, key: int) -> np.ndarray:
    """``Q.T @ Q`` of the interface Q of the form tensor ``t`` on ``side``
    under ``key``, carried through the cores instead of read from Q.

    On the left, G_i = sum_j A_i[:, j, :].T @ G_{i-1} @ A_i[:, j, :] from
    G_0 = [[1]]; on the right, the mirror over the ``key`` trailing cores.
    Each step costs O(n r^3), not a pass over the interface's rows.
    """
    prev = _form_gram(t, side, key - 1) if key > 1 else np.ones((1, 1))
    if side == 0:
        core = t.cores[key - 1]
        r_in, n, r_out = core.shape
        # X[a, j, d] = sum_c prev[a, c] core[c, j, d]; G = sum_{a, j} core * X
        X = prev @ core.reshape(r_in, n * r_out)
        return core.reshape(r_in * n, r_out).T @ X.reshape(r_in * n, r_out)
    core = t.cores[t.d - key]
    r_out, n, r_in = core.shape
    # X[a, j, d] = sum_c core[a, j, c] prev[c, d]; G = sum_{j, d} X * core
    X = core.reshape(r_out * n, r_in) @ prev
    return X.reshape(r_out, n * r_in) @ core.reshape(r_out, n * r_in).T


def _form_gram(t: TTTensor, side: int, key: int) -> np.ndarray:
    """:func:`_gram`, kept in the form tensor's memo under ``("G", key)``."""
    return _memoized(t, side, ("G", key), _gram, t, side, key)


def _interface_max_row_norm(t: TTTensor, side: int, key: int) -> float:
    """Largest row norm of the interface ``("Q", key)`` of the form tensor
    ``t`` on ``side``, read without a pass over it past key 1.

    Key 1, a boundary core, is read by :func:`max_row_norm`.  Past it, row
    (p, j) of L_key is X[p] @ A[:, j, :] for X = L_{key-1} and A core key,
    so its squared norm is the quadratic form X[p] H_j X[p].T with
    H_j = A[:, j, :] @ A[:, j, :].T; on the right, row (j, b) of R_{d-key}
    is B[:, j, :] @ X[b].T for X the interface over key - 1 cores, and
    H_j = B[:, j, :].T @ B[:, j, :].  Each block of rows of X is one GEMM,
    its pairwise products X[p, a] X[p, c] against the (r^2, n) table of H
    entries, and no temporary of a block holds more than
    :data:`_QUADRATIC_BLOCK` elements.

    When X is taller than one block, only candidate rows are evaluated.
    Each H_j is positive semidefinite, so X[p] H_j X[p].T is at most
    lambda_max(H_j) |X[p]|^2 <= tr(H_j) |X[p]|^2: seeded with the forms of
    the row of largest |X[p]|, the maximum cannot come from a row whose
    |X[p]|^2 max_j tr(H_j) falls below it, and the factor 1 + 1e-12 keeps
    every row whose bound only roundoff puts below it.

    The sums run in another order than a pass over the interface, so the
    result may differ from its :func:`max_row_norm` by a few units in the
    last place (at most 1e-14 relative); the roundoff of a zero row may read
    slightly below zero, and only the maximum is read.
    """
    if key == 1:
        return max_row_norm(_interface(t, side, 1))
    X = _interface(t, side, key - 1)
    if side == 0:
        core = t.cores[key - 1]
        H = np.einsum("ajc,bjc->abj", core, core)
    else:
        core = t.cores[t.d - key]
        H = np.einsum("aje,ajc->ecj", core, core)
    r = X.shape[1]
    H = H.reshape(r * r, -1)
    step = max(1, _QUADRATIC_BLOCK // max(r * r, H.shape[1]))
    most = 0.0
    if X.shape[0] > step:
        squares = np.einsum("ij,ij->i", X, X)
        P = X[squares.argmax()]
        most = max(most, (np.outer(P, P).reshape(r * r) @ H).max())
        # rows a*(r+1) of H hold the diagonals H_j[a, a]
        X = X[squares * (H[:: r + 1].sum(axis=0).max() * (1 + 1e-12)) >= most]
    for start in range(0, X.shape[0], step):
        P = X[start : start + step]
        P = (P[:, :, None] * P[:, None, :]).reshape(-1, r * r)
        most = max(most, (P @ H).max())
    return float(np.sqrt(most))


def _form_tensor(cores, shares: TTTensor | None = None) -> TTTensor:
    """A TTTensor over cores this module built from a validated chain, with
    a memo whose right half is that of ``shares``, a form tensor with the
    same trailing cores, when given.

    Skips the constructor's copy and checks, which a sweep step would
    otherwise pay once per core.
    """
    t = object.__new__(TTTensor)
    t._set(
        tuple(cores),
        Shape([c.shape[1] for c in cores]),
        tuple(c.shape[2] for c in cores[:-1]),
        ({}, {} if shares is None else shares._memo[1]),
    )
    return t


def _qr(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economic QR of a block with few columns; ``X`` is left as it is.

    Q comes out column-major, the layout :class:`ThinSVD` stores: the
    first core of a left form is a Q, and its interface is then shared by
    the SVDs rather than copied.
    """
    Q, R = np.linalg.qr(X)
    return np.asfortranarray(Q), R


def _left_core(Q: np.ndarray, n: int) -> np.ndarray:
    """Core (r, n, q) whose left-rank-fastest unfolding is Q, rows a + r*j."""
    return Q.reshape(-1, n, Q.shape[1], order="F")


def _right_core(Q: np.ndarray, n: int) -> np.ndarray:
    """Core (q, n, r) whose mode-fastest unfolding is Q, rows j + n*b."""
    return Q.reshape(n, -1, Q.shape[1], order="F").transpose(2, 0, 1)


def left_orthogonal_form(t: TTTensor) -> tuple[TTTensor, tuple[np.ndarray, ...]]:
    """``(A, S)``: a left-orthogonal TT ``A`` of the same tensor and the
    ``r'_i x r_i`` factors ``S[i - 1]`` with
    ``left_interface(t, i) = left_interface(A, i) @ S[i - 1]``.

    One left-to-right sweep: each step QR-factors the current core with the
    previous factor multiplied in, ``S_{i-1} G_i`` in its left-rank-fastest
    unfolding, keeps Q as core i of ``A`` and passes R on.  The last core
    of ``A`` carries the tensor's scale.  Where a declared rank exceeds
    ``r'_{i-1} n_i``, the form's rank ``r'_i`` is the smaller number.
    Built once per tensor and cached on it.
    """
    form = t._forms[0]
    if form is None:
        cores, S = [], []
        X = t.cores[0][0]  # L_1
        for k in range(1, t.d):
            Q, R = _qr(X)
            cores.append(_left_core(Q, t.shape[k - 1]))
            S.append(R)
            X = _left_step(R, t.cores[k])
        cores.append(_left_core(X, t.shape[-1]))
        form = t._forms[0] = (_form_tensor(cores), tuple(S))
    return form


def _right_form(
    first: np.ndarray, tail: tuple, T: tuple, shares: TTTensor | None = None
) -> tuple[TTTensor, tuple]:
    """``(B, T)`` for a tensor whose first core is ``first``, given the
    orthonormal cores 2..d of ``B``, the factors ``T`` of its right sweep
    and, when ``tail`` comes from another form, that form, whose right
    memo ``B`` shares."""
    B = _form_tensor((_right_core(_right_step(first, T[0]), first.shape[1]),) + tail, shares)
    return B, T


def right_orthogonal_form(t: TTTensor) -> tuple[TTTensor, tuple[np.ndarray, ...]]:
    """``(B, T)``: a right-orthogonal TT ``B`` of the same tensor and the
    ``r''_i x r_i`` factors ``T[i - 1]`` with
    ``right_interface(t, i) = right_interface(B, i) @ T[i - 1]``.

    The mirror of :func:`left_orthogonal_form`, sweeping from the last core
    to the second; the first core of ``B`` carries the tensor's scale.
    :func:`row_restrict` hands its subtensor this sweep and ``B``'s right
    memo, since the two share their trailing cores.
    """
    form = t._forms[1]
    if form is None:
        tail, T = [], []
        Y = t.cores[-1][:, :, 0].T  # R_{d-1}
        for k in range(t.d - 1, 0, -1):
            Q, R = _qr(Y)
            tail.append(_right_core(Q, t.shape[k]))
            T.append(R)
            if k > 1:
                Y = _right_step(t.cores[k - 1], R)
        form = t._forms[1] = _right_form(t.cores[0], tuple(tail[::-1]), tuple(T[::-1]))
    return form


def _svd_between(
    QL: np.ndarray, M: np.ndarray, QR: np.ndarray, rank_tol: float, grams=(None, None), row_norms=(None, None)
) -> ThinSVD:
    """Compact SVD of ``QL @ M @ QR.T`` for QL, QR with orthonormal columns.

    Only the small core matrix ``M = U diag(s) Vt`` is decomposed densely.
    The factors stay as ``W = QL @ U`` and ``V = QR @ Vt.T``: QL and QR are
    held, not copied or multiplied.  ``grams`` and ``row_norms`` are as in
    :class:`~ttinherit.linalg.ThinSVD`, when known.
    """
    U, s, Vt = truncated_svd(M, rank_tol)
    return ThinSVD(QL, s, QR, rotations=(U, Vt.T), grams=grams, row_norms=row_norms)


def unfolding_svd(t: TTTensor, i: int, rank_tol: float = DEFAULT_RANK_TOL) -> ThinSVD:
    """Compact SVD of the i-th unfolding from the tensor's orthogonal forms.

    T_<i> = left_interface(A, i) @ (S_i @ T_i.T) @ right_interface(B, i).T
    with orthonormal outer factors, so only the r x r middle is decomposed.
    The singular factors are those cached interfaces times r x r rotations,
    and their orthonormality is checked on Grams carried through the form
    cores (:func:`_form_gram`), so making the SVD reads no interface row.
    Each interface's largest row norm, which is the factor's wherever the
    rotation is square, is made when first asked for and kept in the
    form's memo under ``("norm", key)``: by a pass over a boundary core,
    and as quadratic forms over the interface one mode shorter past it
    (:func:`_interface_max_row_norm`).
    """
    i = _check_position(t, i)
    A, S = left_orthogonal_form(t)
    B, T = right_orthogonal_form(t)
    QL = left_interface(A, i)
    QR = right_interface(B, i)
    grams = (_form_gram(A, 0, i), _form_gram(B, 1, t.d - i))
    norms = (
        functools.partial(_memoized, A, 0, ("norm", i), _interface_max_row_norm, A, 0, i),
        functools.partial(_memoized, B, 1, ("norm", t.d - i), _interface_max_row_norm, B, 1, t.d - i),
    )
    return _svd_between(QL, S[i - 1] @ T[i - 1].T, QR, rank_tol, grams, norms)


def tt_rank_numerical(t: TTTensor, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[int, ...]:
    """Numerical rank of every unfolding, i = 1..d-1."""
    return tuple(unfolding_svd(t, i, rank_tol).rank for i in range(1, t.d))


def row_restrict(t: TTTensor, i: int, I: IndexSet) -> TTTensor:
    """Subtensor keeping rows I of the i-th unfolding: shape (|I|, n_{i+1}, ..., n_d).

    The selected rows of L_i become the new first core; the trailing cores
    are shared unchanged, so the result is again a TT of d - i + 1 modes,
    and it inherits the parent's right sweep over them and the right memo
    of the parent's form.
    """
    i = _check_position(t, i)
    _check_index_set(t, i, I, True, "row set")
    A, S = left_orthogonal_form(t)
    B, T = right_orthogonal_form(t)
    G = left_interface(A, i)[I.zero_based(), :] @ S[i - 1]
    sub = TTTensor((G[None, :, :],) + t.cores[i:])
    sub._forms[1] = _right_form(sub.cores[0], B.cores[i:], T[i - 1 :], B)
    return sub


def _row_sweep(t: TTTensor, I: IndexSet, i: int, svds: dict[int, ThinSVD]) -> dict[int, np.ndarray]:
    """For each unfolding k >= i of ``svds``, a matrix of at most r'_k rows
    with the singular values of the rows of ``svds[k].W`` that level-i rows
    ``I`` induce in unfolding k (``I`` extended by every value of modes
    i+1..k), for ``svds[k]`` the :func:`unfolding_svd` of ``t`` at k:
    W = left_interface(A, k) @ U_k.

    Those rows are left_interface(A, i)[I] carried through cores i+1..k of
    the left form A; the sets are nested, as in TT-cross (Oseledets and
    Tyrtyshnikov, Linear Algebra Appl. 432, 2010).  A QR of
    left_interface(A, i)[I], then one QR of :func:`_left_step` per core,
    leaves after core k an R_k equal to the rows up to an orthonormal
    factor, and the result at k is ``R_k @ U_k``.  One walk up to the
    largest k serves every k, so each R_k is the same whichever others are
    asked for.  After the first QR, of the |I| sampled rows, no QR has
    more than r'_{j-1} n_j rows.  The caller makes sure that each SVD is
    the :func:`unfolding_svd` of ``t``, as ``properties._check_shared`` does.
    """
    A, _ = left_orthogonal_form(t)
    # L_k(A) is built, so L_i(A), a step of its chain, is within the cap
    L_i = _interface(A, 0, i)
    R = np.linalg.qr(L_i[I.zero_based()], mode="r")
    blocks = {}
    for k in range(i, max(svds) + 1):
        if k > i:
            R = np.linalg.qr(_left_step(R, A.cores[k - 1]), mode="r")
        if k in svds:
            blocks[k] = svds[k].rotate("W", R)
    return blocks


def submatrix_svd(
    t: TTTensor, i: int, rows: IndexSet, J: IndexSet, rank_tol: float = DEFAULT_RANK_TOL
) -> ThinSVD:
    """Compact SVD of the block T_<i>(rows, J) without materializing it.

    Identical result (up to roundoff) to ``thin_svd(oracle.column_submatrix(...))``
    but costs 2 thin QRs of the selected rows of the interface factors, read
    from the orthogonal forms, plus a width x width SVD, so it works at
    scales where the dense block would not fit in memory.  The block
    ``L @ R.T`` is never formed.  The factors are the two small Q factors
    times r x r rotations, checked on Grams computed from those Q factors.
    """
    i = _check_block(t, i, rows, J)
    A, S = left_orthogonal_form(t)
    B, T = right_orthogonal_form(t)
    QL, SL = _qr(left_interface(A, i)[rows.zero_based(), :] @ S[i - 1])
    QR, SR = _qr(right_interface(B, i)[J.zero_based(), :] @ T[i - 1])
    return _svd_between(QL, SL @ SR.T, QR, rank_tol)
