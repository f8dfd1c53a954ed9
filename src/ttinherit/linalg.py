"""Thin wrappers around LAPACK factorizations with explicit rank handling.

Everything here works on plain float64 ``numpy.ndarray`` matrices.  The
wrappers add what the raw factorizations do not give us: finite-input
checks, a single numerical-rank convention (singular values above
``rank_tol`` times the largest), compact truncation, and typed errors for
the zero-matrix / rank-deficient cases that the rest of the package needs
to tell apart.

Outside the dense oracle, singular values meet ``rank_tol`` only here:
:func:`truncated_svd` decides the rank of every compact SVD, and
:func:`pinv_spectral_norm` is the full-column-rank test of a sampled block,
the rank hypothesis of every inheritance bound.

The thread count of the OpenBLAS libraries behind those factorizations is
set here too (:func:`blas_thread_budget`), so that a pool of trial threads
does not run on top of as many BLAS threads each.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

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
    "row_two_inf_norm",
    "condition_number",
    "OpenBLAS",
    "available_cpus",
    "loaded_openblas",
    "blas_thread_budget",
]

DEFAULT_RANK_TOL = 1e-9

# max elementwise deviation of W^T W from the identity tolerated by ThinSVD;
# LAPACK factors of 1e6-row matrices stay below ~1e-14
ORTHONORMALITY_TOL = 1e-12

# rows per block of max_row_norm: 512 KiB of squared norms at most
ROW_BLOCK = 1 << 16


def _require_matrix(M, name="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DomainError(f"{name} must be 2-d, got ndim={M.ndim}")
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise DomainError(f"{name} must be non-empty, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True, eq=False)
class ThinSVD:
    """Compact SVD ``M = W @ diag(sigma) @ V.T`` truncated to numerical rank.

    ``W`` is (m, r) and ``V`` is (n, r), both with orthonormal columns to
    within :data:`ORTHONORMALITY_TOL`; ``sigma`` is strictly positive and
    non-increasing.  Instances validate on construction.  ``W`` and ``V``
    are stored column-major (Fortran order), so each of the r columns of a
    tall factor is contiguous for the checks and row norms that read it.
    """

    W: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        # views: the read-only flag set below must not reach the caller's arrays
        W = np.asfortranarray(self.W, dtype=np.float64).view()
        V = np.asfortranarray(self.V, dtype=np.float64).view()
        sigma = np.asarray(self.sigma, dtype=np.float64).reshape(-1)
        if W.ndim != 2 or V.ndim != 2:
            raise DomainError("ThinSVD factors must be 2-d")
        r = sigma.size
        if r == 0:
            raise RankZeroError("ThinSVD cannot hold an empty spectrum")
        if W.shape[1] != r or V.shape[1] != r:
            raise DomainError(
                f"factor widths ({W.shape[1]}, {V.shape[1]}) do not match rank {r}"
            )
        # one pass over each tall factor: a non-finite entry makes its
        # column's Gram diagonal non-finite, so the factors themselves are
        # scanned only when a Gram (or sigma) is
        with np.errstate(over="ignore", invalid="ignore"):
            grams = (W.T @ W, V.T @ V)
        if not all(np.isfinite(X).all() for X in (sigma, *grams)):
            if not all(np.isfinite(X).all() for X in (W, V, sigma)):
                raise NumericError("ThinSVD factors contain non-finite entries")
        if sigma[-1] <= 0.0:
            raise DomainError("singular values must be strictly positive")
        if np.any(np.diff(sigma) > 0):
            raise DomainError("singular values must be non-increasing")
        for name, G in zip("WV", grams):
            dev = np.abs(G - np.eye(r)).max()
            if not dev <= ORTHONORMALITY_TOL:  # a NaN deviation (overflowed Gram) fails too
                raise DomainError(
                    f"{name} columns deviate from orthonormality by {dev:.3e}"
                )
        for arr in (W, sigma, V):
            arr.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "V", V)

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.W.shape[0], self.V.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Dense ``W @ diag(sigma) @ V.T`` (for small matrices / tests)."""
        return (self.W * self.sigma) @ self.V.T


def numerical_rank(sigma, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rank_tol * sigma[0]``.

    ``sigma`` must be non-negative and non-increasing.  An empty spectrum or
    a zero leading value has rank 0.
    """
    sigma = np.asarray(sigma, dtype=np.float64).reshape(-1)
    if sigma.size == 0:
        return 0
    if not np.all(np.isfinite(sigma)):
        raise NumericError("singular values contain non-finite entries")
    if np.any(sigma < 0):
        raise DomainError("singular values must be non-negative")
    if np.any(np.diff(sigma) > 0):
        raise DomainError("singular values must be non-increasing")
    if rank_tol < 0:
        raise DomainError(f"rank_tol must be >= 0, got {rank_tol}")
    s0 = sigma[0]
    if s0 == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rank_tol * s0))


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
    """
    M = _require_matrix(M)
    m, n = M.shape
    if m < n:
        raise SingularityError(f"matrix {m} x {n} cannot have full column rank")
    s = scipy.linalg.svdvals(M)
    if s[0] == 0.0 or s[-1] <= rank_tol * s[0]:
        raise SingularityError(
            f"column rank deficient: sigma_min/sigma_max = "
            f"{0.0 if s[0] == 0.0 else s[-1] / s[0]:.3e} <= rank_tol {rank_tol:.1e}"
        )
    return float(1.0 / s[-1])


def max_row_norm(M: np.ndarray) -> float:
    """Largest Euclidean row norm of a finite 2-d float64 array, unchecked.

    Reads :data:`ROW_BLOCK` rows at a time, so no temporary as tall as ``M``
    is made.  Each row's squared norm is the one a single ``einsum`` over
    all of ``M`` gives, so the maximum is the same to the bit.
    """
    most = 0.0
    for start in range(0, M.shape[0], ROW_BLOCK):
        B = M[start : start + ROW_BLOCK]
        most = max(most, np.einsum("ij,ij->i", B, B).max())
    return float(np.sqrt(most))


def row_two_inf_norm(M) -> float:
    """Largest Euclidean row norm, ``max_i ||M[i, :]||_2``."""
    return max_row_norm(_require_matrix(M))


def condition_number(svd: ThinSVD) -> float:
    """Ratio of extreme retained singular values, ``sigma[0] / sigma[-1]``."""
    return float(svd.sigma[0] / svd.sigma[-1])


# (get, set) thread-count entry points of the OpenBLAS that numpy bundles
# (64-bit integers) and of the one scipy bundles.
# openblas_set_num_threads_local is not used: in OpenBLAS 0.3.31 it changes
# the count for the whole process, not for the calling thread.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@dataclass(frozen=True)
class OpenBLAS:
    """One OpenBLAS library loaded in this process, with its thread-count calls."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def loaded_openblas() -> list[OpenBLAS]:
    """The OpenBLAS libraries already mapped into this process, by path.

    Read from ``/proc/self/maps``; where that file does not exist (outside
    Linux) the list is empty.  Nothing new is loaded.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            # address, perms, offset, device, inode, then the path if any
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_fn, set_fn = getattr(lib, get_name), getattr(lib, set_name)
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                found.append(OpenBLAS(path, get_fn, set_fn))
                break
    return found


class _SavedCounts:
    """Thread counts saved by the first of the budgets that overlap in time.

    The count is process-wide, so budgets entered from different threads
    share it: the first to enter saves it and the last to leave restores it.
    The lock is re-entrant because a budget that was entered and then
    dropped without being left is closed by the garbage collector, which may
    run on a thread that already holds the lock.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self.users = 0
        self.counts: list[tuple[OpenBLAS, int]] = []


_SAVED = _SavedCounts()


@contextmanager
def blas_thread_budget(workers: int):
    """Give each of ``workers`` threads its share of the CPUs in every OpenBLAS.

    Inside the block every loaded OpenBLAS runs ``max(1, min(current,
    cpus // workers))`` threads, where ``current`` is its count on entry
    (``OPENBLAS_NUM_THREADS`` when set) and ``cpus`` is
    :func:`available_cpus`; on exit it gets ``current`` back.  The count is
    process-wide, so it also holds for BLAS calls made outside the workers
    while the block runs; blocks that overlap in time on different threads
    set it in turn, and the last one to end restores the count found by the
    first.  Yields the plan: ``workers``, ``cpus``, and per library its file
    name, its threads before and its threads per worker.  No OpenBLAS found
    means nothing changes and the list is empty.
    """
    cpus = available_cpus()
    with _SAVED.lock:
        if _SAVED.users == 0:
            _SAVED.counts = [(lib, lib.get_threads()) for lib in loaded_openblas()]
        libs = _SAVED.counts
        plan = {
            "workers": workers,
            "cpus": cpus,
            "openblas": [
                {
                    "library": os.path.basename(lib.path),
                    "threads_before": before,
                    "threads_per_worker": max(1, min(before, cpus // workers)),
                }
                for lib, before in libs
            ],
        }
        for (lib, _), entry in zip(libs, plan["openblas"]):
            lib.set_threads(entry["threads_per_worker"])
        _SAVED.users += 1
    try:
        yield plan
    finally:
        with _SAVED.lock:
            _SAVED.users -= 1
            if _SAVED.users == 0:
                for lib, before in libs:
                    lib.set_threads(before)
