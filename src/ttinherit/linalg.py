"""Thin wrappers around LAPACK factorizations with explicit rank handling.

Everything here works on plain float64 ``numpy.ndarray`` matrices and calls
numpy's LAPACK only; scipy is not imported.  The wrappers add what the raw
factorizations do not give us: finite-input checks, a single
numerical-rank convention (singular values above ``rank_tol`` times the
largest), compact truncation, and typed errors for the zero-matrix /
rank-deficient cases that the rest of the package needs to tell apart.

Outside the dense oracle, singular values meet ``rank_tol`` only here:
:func:`truncated_svd` decides the rank of every compact SVD, and
:func:`pinv_spectral_norm` is the full-column-rank test of a sampled block,
the rank hypothesis of every inheritance bound.

:func:`blas_thread_budget` runs the OpenBLAS behind those factorizations
on one thread while a block runs, and with glibc keeps the memory the block
frees in the process heap.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError, RankZeroError, SingularityError

__all__ = [
    "DEFAULT_RANK_TOL",
    "ORTHONORMALITY_TOL",
    "ThinSVD",
    "truncated_svd",
    "thin_svd",
    "numerical_rank",
    "pinv_spectral_norm",
    "max_row_norm",
    "condition_number",
    "OpenBLAS",
    "loaded_openblas",
    "GlibcMalloc",
    "glibc_malloc",
    "blas_thread_budget",
]

DEFAULT_RANK_TOL = 1e-9

# max elementwise deviation of W^T W from the identity tolerated by ThinSVD;
# LAPACK factors of 1e6-row matrices stay below ~1e-14
ORTHONORMALITY_TOL = 1e-12

# rows per block of max_row_norm: 512 KiB of squared norms at most
ROW_BLOCK = 1 << 16


def _require_rank_tol(rank_tol) -> None:
    """Refuse a ``rank_tol`` outside ``[0, 1)``, NaN among them."""
    if not 0.0 <= rank_tol < 1.0:
        raise DomainError(f"rank_tol must be in [0, 1), got {rank_tol}")


def _non_increasing(s: list[float]) -> bool:
    """Whether the Python floats ``s`` are non-increasing."""
    return not any(map(operator.lt, s, s[1:]))


@functools.lru_cache(maxsize=32)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per size."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _require_matrix(M, name="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DomainError(f"{name} must be 2-d, got ndim={M.ndim}")
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise DomainError(f"{name} must be non-empty, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericError(f"{name} contains non-finite entries")
    return M


_SIDES = {"W": 0, "V": 1}


def _rotate(B: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``B @ U``, column-major, as ``(U.T @ B.T).T`` in one GEMM.

    Every row of a singular factor is made by this one product, whether the
    factor is multiplied out whole, read a few rows at a time or, for the
    largest row norm under a rotation that is not square, a block at a
    time, so a row has the same bits on every path.
    """
    return (U.T @ B.T).T


class ThinSVD:
    """Compact SVD ``M = W @ diag(sigma) @ V.T`` truncated to numerical rank.

    Each singular factor is held as an orthonormal basis and a small
    rotation, ``W = Q_W @ U_W`` and ``V = Q_V @ U_V``: ``Q`` is (m, q) and
    ``U`` is (q, r).  ``ThinSVD(W, sigma, V)`` takes the factors themselves
    (``U = I``); with ``rotations=(U_W, U_V)`` the first and third
    arguments are the bases.  The bases are never copied or multiplied out
    when the SVD is made, so a factor over 10^6 rows costs only its r x r
    rotation: :meth:`factor_rows` reads a few rows as ``Q[rows] @ U`` and
    :meth:`rotate` takes any other rows of ``Q``, or an R factor of them,
    through ``U``.  ``W`` and ``V`` are multiplied out on first read,
    column-major, and cached.

    ``sigma`` must be strictly positive and non-increasing, and both factors
    must have orthonormal columns: max |W^T W - I| <= :data:`ORTHONORMALITY_TOL`,
    evaluated as ``U^T G U`` with ``G = Q^T Q``; so must a basis given with
    a rotation, max |G - I| within the same tolerance.  A caller that knows
    ``G`` without a pass over ``Q`` passes it in ``grams=(G_W, G_V)`` and
    vouches for it; otherwise ``G`` is computed.  A non-finite entry in any
    input raises :class:`NumericError`.  Everything stored is read-only.
    ``sigma`` is read once into Python floats for its checks, and the
    identities the deviations are taken against come from a read-only cache
    keyed by size, so a small SVD costs what its small matrices cost.

    A square rotation is then orthogonal, so ``Q @ U`` has the row norms of
    ``Q``: :meth:`factor_max_row_norm` reads ``Q`` alone, unrotated.  A caller
    that caches that value per basis passes ``row_norms=(f_W, f_V)``,
    zero-argument callables returning the largest row norm of each basis
    (by :func:`max_row_norm` or within 1e-14 relative of it), called only
    when it is read; otherwise each read makes the pass.
    Where ``U`` has more rows than columns, ``Q @ U`` is read in blocks of
    :data:`ROW_BLOCK` rows instead.
    """

    __slots__ = ("sigma", "_bases", "_rotations", "_factors", "_row_norms")

    def __init__(self, W, sigma, V, rotations=(None, None), grams=(None, None), row_norms=(None, None)):
        sigma = np.asarray(sigma, dtype=np.float64).reshape(-1)
        s = sigma.tolist()  # read once; the checks below run on Python floats
        r = len(s)
        if r == 0:
            raise RankZeroError("ThinSVD cannot hold an empty spectrum")
        eye = _identity(r)
        bases, rots, devs = [], [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for name, Q, U, G in zip("WV", (W, V), rotations, grams):
                # views: the read-only flag set below must not reach the caller's arrays
                Q = np.asfortranarray(Q, dtype=np.float64).view()
                U = None if U is None else np.asarray(U, dtype=np.float64).view()
                G = None if G is None else np.asarray(G, dtype=np.float64)
                if Q.ndim != 2 or (U is not None and U.ndim != 2):
                    raise DomainError("ThinSVD factors must be 2-d")
                q = Q.shape[1]
                width = q if U is None else U.shape[1]
                if width != r:
                    raise DomainError(f"{name} has width {width}, which does not match rank {r}")
                if U is not None and U.shape[0] != q:
                    raise DomainError(f"{name} rotation has {U.shape[0]} rows for a basis of width {q}")
                if G is not None and G.shape != (q, q):
                    raise DomainError(f"{name} Gram has shape {G.shape} for a basis of width {q}")
                if G is None:
                    G = Q.T @ Q
                dev = np.abs((G if U is None else U.T @ G @ U) - eye).max()
                if U is not None:  # an orthonormal basis makes a square U orthogonal
                    dev = max(dev, np.abs(G - _identity(q)).max())
                devs.append(float(dev))
                bases.append(Q)
                rots.append(U)
        # a non-finite entry anywhere makes sigma or a deviation non-finite,
        # so the inputs themselves, Q among them, are scanned only then
        rotated = tuple(U for U in rots if U is not None)
        if not (all(map(math.isfinite, s)) and all(map(math.isfinite, devs))):
            if not all(np.isfinite(X).all() for X in (sigma, *rotated, *bases)):
                raise NumericError("ThinSVD factors contain non-finite entries")
        if s[-1] <= 0.0:
            raise DomainError("singular values must be strictly positive")
        if not _non_increasing(s):
            raise DomainError("singular values must be non-increasing")
        for name, dev in zip("WV", devs):
            if not dev <= ORTHONORMALITY_TOL:  # a NaN deviation (overflowed Gram) fails too
                raise DomainError(
                    f"{name} columns deviate from orthonormality by {dev:.3e}"
                )
        for arr in (sigma, *bases, *rotated):
            arr.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_bases", tuple(bases))
        object.__setattr__(self, "_rotations", tuple(rots))
        # a factor with U = I is its basis; a rotated one is built on first read
        object.__setattr__(self, "_factors", [Q if U is None else None for Q, U in zip(bases, rots)])
        norms = tuple(functools.partial(max_row_norm, Q) if f is None else f for Q, f in zip(bases, row_norms))
        object.__setattr__(self, "_row_norms", norms)

    def __setattr__(self, name, value):
        raise AttributeError("ThinSVD is immutable")

    def __repr__(self) -> str:
        return f"ThinSVD(shape={self.shape}, rank={self.rank})"

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._bases[0].shape[0], self._bases[1].shape[0])

    @property
    def W(self) -> np.ndarray:
        """The (m, r) left factor, multiplied out on first read."""
        return self._factor(0)

    @property
    def V(self) -> np.ndarray:
        """The (n, r) right factor, multiplied out on first read."""
        return self._factor(1)

    def _factor(self, side: int) -> np.ndarray:
        F = self._factors[side]
        if F is None:
            F = self._factors[side] = self._materialize(side)
        return F

    def _materialize(self, side: int) -> np.ndarray:
        """``Q @ U`` of one side as a read-only column-major array."""
        F = _rotate(self._bases[side], self._rotations[side])
        F.setflags(write=False)
        return F

    def _side(self, side: str) -> tuple[np.ndarray, np.ndarray | None]:
        if side not in _SIDES:
            raise DomainError(f"factor side must be 'W' or 'V', got {side!r}")
        k = _SIDES[side]
        return self._bases[k], self._rotations[k]

    def basis(self, side: str) -> np.ndarray:
        """The read-only basis ``Q`` of ``side`` ("W" or "V")."""
        return self._side(side)[0]

    def rotate(self, side: str, B: np.ndarray) -> np.ndarray:
        """``B @ U`` for the rotation ``U`` of ``side`` ("W" or "V"), ``B``
        itself where ``U = I``.

        With ``B = Q[rows]`` this is :meth:`factor_rows`.  With ``B`` the R
        of a QR of some rows of ``Q``, it has the singular values of those
        rows of the factor in at most q rows.
        """
        _, U = self._side(side)
        return B if U is None else _rotate(B, U)

    def factor_rows(self, side: str, rows) -> np.ndarray:
        """``W[rows]`` (``side`` "W") or ``V[rows]`` (``side`` "V"), 0-based
        ``rows``, read as ``Q[rows] @ U``, so no factor is multiplied out."""
        return self.rotate(side, self.basis(side)[rows])

    def factor_max_row_norm(self, side: str) -> float:
        """Largest Euclidean row norm of ``W`` or ``V``, with no temporary as
        tall as the factor: that of the basis ``Q`` where the rotation is
        square (or absent), else :func:`max_row_norm` of ``Q`` rotated by
        ``U``."""
        Q, U = self._side(side)
        if U is None or U.shape[0] == U.shape[1]:
            return self._row_norms[_SIDES[side]]()
        return max_row_norm(Q, U)

    def reconstruct(self) -> np.ndarray:
        """Dense ``W @ diag(sigma) @ V.T`` (for small matrices / tests)."""
        return (self.W * self.sigma) @ self.V.T


def numerical_rank(sigma, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rank_tol * sigma[0]``.

    ``sigma`` must be finite, non-negative and non-increasing, and
    ``rank_tol`` must lie in ``[0, 1)``.  An empty spectrum or a zero
    leading value has rank 0.  The spectrum is read once into Python floats,
    and every check and the count run on those, not on numpy reductions.
    """
    _require_rank_tol(rank_tol)
    s = np.asarray(sigma, dtype=np.float64).reshape(-1).tolist()
    if not all(map(math.isfinite, s)):
        raise NumericError("singular values contain non-finite entries")
    if s and min(s) < 0.0:
        raise DomainError("singular values must be non-negative")
    if not _non_increasing(s):
        raise DomainError("singular values must be non-increasing")
    if not s or s[0] == 0.0:
        return 0
    cut = float(rank_tol) * s[0]
    return sum(x > cut for x in s)


def truncated_svd(M: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL):
    """``(U, s, Vt)`` of ``M`` cut to its :func:`numerical_rank`; rank 0 raises.

    Singular values at or below ``rank_tol`` times the largest are dropped
    together with their vectors.  ``M`` must be a finite 2-d float array.
    """
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = numerical_rank(s, rank_tol)
    if r == 0:
        raise RankZeroError("matrix is numerically zero; no compact SVD exists")
    return U[:, :r], s[:r], Vt[:r]


def thin_svd(M, rank_tol: float = DEFAULT_RANK_TOL) -> ThinSVD:
    """Compact SVD truncated to numerical rank (:func:`truncated_svd`)."""
    U, s, Vt = truncated_svd(_require_matrix(M), rank_tol)
    return ThinSVD(U, s, Vt.T)


def pinv_spectral_norm(M, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Spectral norm of the pseudoinverse of a full-column-rank matrix.

    Computed as ``1 / sigma_min`` from singular values only (the
    pseudoinverse is never formed).  Raises :class:`SingularityError` if the
    matrix is not numerically full column rank: fewer rows than columns, or
    ``sigma_min <= rank_tol * sigma_max``, the rank convention of
    :func:`numerical_rank`.  This is the package's full-column-rank test.
    ``rank_tol`` must lie in ``[0, 1)``.
    """
    _require_rank_tol(rank_tol)
    M = _require_matrix(M)
    m, n = M.shape
    if m < n:
        raise SingularityError(f"matrix {m} x {n} cannot have full column rank")
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= rank_tol * s[0]:
        raise SingularityError(
            f"column rank deficient: sigma_min/sigma_max = "
            f"{0.0 if s[0] == 0.0 else s[-1] / s[0]:.3e} <= rank_tol {rank_tol:.1e}"
        )
    return float(1.0 / s[-1])


def max_row_norm(M: np.ndarray, U: np.ndarray | None = None) -> float:
    """Largest Euclidean row norm of ``M @ U`` (of ``M`` when ``U`` is None),
    for finite 2-d float64 arrays, unchecked.

    Reads :data:`ROW_BLOCK` rows of ``M`` at a time and rotates each block
    by ``U``, so no temporary as tall as ``M`` is made.  Each row's squared
    norm is the one a single ``einsum`` over all of ``M @ U`` gives, so the
    maximum is the same to the bit.
    """
    most = 0.0
    for start in range(0, M.shape[0], ROW_BLOCK):
        B = M[start : start + ROW_BLOCK]
        if U is not None:
            B = _rotate(B, U)
        most = max(most, np.einsum("ij,ij->i", B, B).max())
    return float(np.sqrt(most))


def condition_number(svd: ThinSVD) -> float:
    """Ratio of extreme retained singular values, ``sigma[0] / sigma[-1]``."""
    return float(svd.sigma[0] / svd.sigma[-1])


@dataclass(frozen=True)
class OpenBLAS:
    """One OpenBLAS library loaded in this process, with its thread-count calls."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def loaded_openblas() -> list[OpenBLAS]:
    """The OpenBLAS libraries bundled with numpy already mapped into this
    process, by path.

    Read from ``/proc/self/maps``; where that file does not exist (outside
    Linux) the list is empty.  Nothing new is loaded.  scipy's copy exports
    its thread calls without the ``64_`` suffix and is not listed: it is
    loaded only with the dense oracle, which no run calls.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            # address, perms, offset, device, inode, then the path if any
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        # openblas_set_num_threads_local is not used: in OpenBLAS 0.3.31 it
        # changes the count for the whole process, not for the calling thread
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get_fn = lib.scipy_openblas_get_num_threads64_
            set_fn = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or not numpy's build
            continue
        get_fn.argtypes, get_fn.restype = [], ctypes.c_int
        set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
        found.append(OpenBLAS(path, get_fn, set_fn))
    return found


# glibc's mallopt parameters (malloc.h) and their defaults
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
DEFAULT_MALLOC_THRESHOLD = 128 * 1024
# the largest mmap threshold 64-bit glibc takes: a 10**6-row interface of
# rank 2 (16 MB) is served from the heap, not from a fresh mapping
KEPT_MMAP_THRESHOLD = 32 * 1024 * 1024
# above what a trial frees at the top of a heap, so no free is trimmed
KEPT_TRIM_THRESHOLD = 1 << 30


@dataclass(frozen=True)
class GlibcMalloc:
    """glibc's malloc tuning calls in this process."""

    mallopt: Callable[[int, int], int]
    malloc_trim: Callable[[int], int]


def glibc_malloc() -> GlibcMalloc | None:
    """glibc's ``mallopt`` and ``malloc_trim`` as linked into this process.

    ``None`` where the C library has no ``mallopt`` (macOS, musl) or cannot
    be opened; nothing new is loaded.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return GlibcMalloc(mallopt, malloc_trim)


class _SavedSettings:
    """Process-wide settings saved by the first of the budgets that overlap in time.

    The settings are process-wide, so budgets entered from different threads
    share them: the first to enter saves and changes them and the last to
    leave restores them.  The lock is re-entrant because a budget that was
    entered and then dropped without being left is closed by the garbage
    collector, which may run on a thread that already holds the lock.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self.users = 0
        self.counts: list[tuple[OpenBLAS, int]] = []
        self.malloc: GlibcMalloc | None = None


_SAVED = _SavedSettings()


@contextmanager
def blas_thread_budget():
    """Run every loaded OpenBLAS on one thread and keep freed heap memory inside the block.

    On exit each library gets back the count it had on entry.  The count is
    process-wide, so it also holds for BLAS calls made outside the block's
    thread while the block runs; blocks that overlap in time on different
    threads share it, and the last one to end restores the count found by
    the first.  No OpenBLAS found means no count changes.

    The heap is process-wide too.  With glibc the first block raises
    malloc's mmap threshold to 32 MiB and its trim threshold to 1 GiB, so
    the 16 MB interfaces a trial frees stay in the heap for the next trial
    instead of going back to the OS and faulting in again as fresh pages.
    The last block to end sets both back to glibc's 128 KiB defaults and
    calls ``malloc_trim(0)``, which returns what was kept.  glibc's dynamic
    mmap threshold stays off after that, since no call turns it back on.
    Without glibc's ``mallopt`` (:func:`glibc_malloc` is ``None``) the heap
    is left alone.

    Yields ``([(library file name, threads before), ...], heap kept)``.
    """
    with _SAVED.lock:
        if _SAVED.users == 0:
            _SAVED.counts = [(lib, lib.get_threads()) for lib in loaded_openblas()]
            _SAVED.malloc = malloc = glibc_malloc()
            if malloc is not None:
                malloc.mallopt(M_MMAP_THRESHOLD, KEPT_MMAP_THRESHOLD)
                malloc.mallopt(M_TRIM_THRESHOLD, KEPT_TRIM_THRESHOLD)
        libs = _SAVED.counts
        heap_kept = _SAVED.malloc is not None
        for lib, _ in libs:
            lib.set_threads(1)
        _SAVED.users += 1
    try:
        yield [(os.path.basename(lib.path), before) for lib, before in libs], heap_kept
    finally:
        with _SAVED.lock:
            _SAVED.users -= 1
            if _SAVED.users == 0:
                for lib, before in libs:
                    lib.set_threads(before)
                if (malloc := _SAVED.malloc) is not None:
                    malloc.mallopt(M_MMAP_THRESHOLD, DEFAULT_MALLOC_THRESHOLD)
                    malloc.mallopt(M_TRIM_THRESHOLD, DEFAULT_MALLOC_THRESHOLD)
                    malloc.malloc_trim(0)
