"""Multi-index bookkeeping: linearization, Kronecker-extended pools, sampling.

Conventions used throughout the package:

* all externally visible indices are 1-based;
* a multi-index ``(j_1, ..., j_d)`` over dims ``(n_1, ..., n_d)`` linearizes
  with the FIRST index varying fastest (column-major / Fortran order):

      linear = 1 + sum_k (j_k - 1) * n_1 * ... * n_{k-1}

  so ``np.reshape(..., order="F")`` on a dense array agrees with it;
* index sets are kept sorted ascending with distinct entries.

Randomness is handled through ``numpy.random.Generator`` objects derived from
a 64-bit master seed plus a list of tags (strings or non-negative ints), so
every sampling decision in an experiment has its own named, reproducible
stream.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, SamplingError

__all__ = [
    "Shape",
    "IndexSet",
    "linearize",
    "delinearize",
    "kron_extend",
    "sample_without_replacement",
    "derived_rng",
    "derived_seed",
]


def _integer(value, error: type[Exception] = DomainError) -> int:
    """``value`` as an int: an int, a numpy integer or an integral float.

    A bool, a fraction or a non-number raises ``error``, so no entry point
    truncates its input without a word.
    """
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise error(f"expected an integer, got {value!r}")
    return operator.index(value)


class Shape(tuple):
    """Mode sizes ``(n_1, ..., n_d)`` of a tensor, all >= 1.

    A tuple of ints, so it compares, hashes and prints as the plain tuple;
    every mode size passes :func:`_integer` on construction.
    """

    __slots__ = ()

    def __new__(cls, dims):
        shape = super().__new__(cls, map(_integer, dims))
        if len(shape) == 0:
            raise DomainError("shape must have at least one mode")
        if any(n < 1 for n in shape):
            raise DomainError(f"mode sizes must be >= 1, got {shape}")
        return shape

    @property
    def size(self) -> int:
        """Total number of entries (exact int, no overflow)."""
        return math.prod(self)

    def prefix_size(self, i: int) -> int:
        """Product of the first ``i`` mode sizes (``i = 0`` gives 1)."""
        i = _integer(i)
        if not 0 <= i <= len(self):
            raise DomainError(f"prefix length {i} out of range for d={len(self)}")
        return math.prod(self[:i])

    def suffix_size(self, i: int) -> int:
        """Product of mode sizes after position ``i`` (``i = d`` gives 1)."""
        i = _integer(i)
        if not 0 <= i <= len(self):
            raise DomainError(f"suffix start {i} out of range for d={len(self)}")
        return math.prod(self[i:])


def _domain(value) -> int:
    """``value`` as an index-set domain: an integer (:func:`_integer`) >= 1."""
    dom = _integer(value)
    if dom < 1:
        raise DomainError(f"index-set domain must be >= 1, got {dom}")
    return dom


@dataclass(frozen=True, eq=False)
class IndexSet:
    """A sorted set of distinct 1-based indices inside ``[1, domain]``.

    Stored as a read-only int64 array; may be empty.  Construction sorts the
    input and rejects duplicates, out-of-domain entries and entries that are
    not integers (:func:`_integer`); the entries of a sequence are checked
    before numpy would read ``[True, 2]`` as ``[1, 2]``.  Input that is
    already strictly increasing, as every builder in this module produces,
    skips the sort: one pass over it shows it sorted and distinct.
    """

    indices: np.ndarray
    domain: int

    def __post_init__(self):
        idx = self.indices
        if isinstance(idx, np.ndarray) and idx.dtype.kind in "iu":
            idx = idx.reshape(-1).astype(np.int64)  # a copy: the set owns its array
        else:  # a sequence, or an array of floats, bools, strings, ...
            entries = idx.reshape(-1).tolist() if isinstance(idx, np.ndarray) else idx
            idx = np.array([_integer(q) for q in entries], dtype=np.int64)
        dom = _domain(self.domain)
        increasing = bool(np.all(idx[1:] > idx[:-1]))
        if not increasing:
            idx.sort()
        if idx.size:
            if idx[0] < 1 or idx[-1] > dom:
                raise DomainError(
                    f"indices must lie in [1, {dom}], got range [{idx[0]}, {idx[-1]}]"
                )
            if not increasing and np.any(np.diff(idx) == 0):
                raise DomainError("indices must be distinct")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "domain", dom)

    @classmethod
    def full(cls, domain: int) -> "IndexSet":
        """The exhaustive set ``{1, ..., domain}``.

        Its array is built strictly increasing and in range, so the copy and
        the scans of the constructor are skipped.
        """
        domain = _domain(domain)
        idx = np.arange(1, domain + 1, dtype=np.int64)
        idx.setflags(write=False)
        full = object.__new__(cls)
        object.__setattr__(full, "indices", idx)
        object.__setattr__(full, "domain", domain)
        return full

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self) -> Iterator[int]:
        return (int(q) for q in self.indices)

    def __contains__(self, q) -> bool:
        """False for anything that is not an integer (:func:`_integer`)."""
        try:
            q = _integer(q)
        except DomainError:
            return False
        pos = int(np.searchsorted(self.indices, q))
        return pos < self.indices.size and int(self.indices[pos]) == q

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        if self.size <= 8:
            body = ", ".join(str(int(q)) for q in self.indices)
        else:
            head = ", ".join(str(int(q)) for q in self.indices[:4])
            body = f"{head}, ... ({self.size} total)"
        return f"IndexSet([{body}], domain={self.domain})"

    def zero_based(self) -> np.ndarray:
        """0-based copy for numpy fancy indexing."""
        return self.indices - 1

    def is_subset_of(self, other: "IndexSet") -> bool:
        if self.domain != other.domain:
            return False
        return bool(np.all(np.isin(self.indices, other.indices, assume_unique=True)))


def linearize(multi: Sequence[int], shape) -> int:
    """Map a 1-based multi-index to its 1-based linear index, first index fastest.

    >>> linearize((2, 3), (2, 3))
    6
    """
    shp = Shape(shape)
    if len(multi) != len(shp):
        raise DomainError(f"multi-index length {len(multi)} != number of modes {len(shp)}")
    linear = 0
    stride = 1
    for j, n in zip(multi, shp):
        j = _integer(j)
        if not 1 <= j <= n:
            raise DomainError(f"index {j} out of range [1, {n}]")
        linear += (j - 1) * stride
        stride *= n
    return linear + 1


def delinearize(linear: int, shape) -> tuple[int, ...]:
    """Inverse of :func:`linearize`.

    >>> delinearize(6, (2, 3))
    (2, 3)
    """
    shp = Shape(shape)
    lin = _integer(linear)
    if not 1 <= lin <= shp.size:
        raise DomainError(f"linear index {lin} out of range [1, {shp.size}]")
    rem = lin - 1
    multi = []
    for n in shp:
        rem, j = divmod(rem, n)
        multi.append(j + 1)
    return tuple(multi)


def kron_extend(prefix: IndexSet, n: int) -> IndexSet:
    """Extend a row-index set by a full extra mode of size ``n``.

    If ``prefix`` selects rows of a block with ``P = prefix.domain`` rows,
    the result selects, inside the ``P * n``-row refinement, every row whose
    leading part is in ``prefix`` and whose new mode index is anything in
    ``[1, n]``:  ``{ q + (j - 1) * P : q in prefix, j in [1, n] }``, sorted.
    """
    n = _integer(n)
    if n < 1:
        raise DomainError(f"mode size must be >= 1, got {n}")
    P = prefix.domain
    blocks = prefix.indices[None, :] + P * np.arange(n, dtype=np.int64)[:, None]
    # row j of `blocks` is already sorted and each row starts above the last,
    # so the C-order ravel is globally sorted
    return IndexSet(blocks.ravel(), P * n)


def sample_without_replacement(pool: IndexSet | int, m: int, rng: np.random.Generator) -> IndexSet:
    """Draw ``m`` distinct elements of ``pool`` uniformly, sorted ascending.

    ``pool`` is an :class:`IndexSet`, or a domain size N that stands for
    ``IndexSet.full(N)`` without building its N entries; the two draw the
    same sample from the same generator state.

    Uses a partial Fisher–Yates shuffle of the pool's positions with all
    offsets drawn up front from ``rng``, so a given generator state yields
    one fixed sample.  Only the positions a swap has displaced are recorded,
    so a draw costs O(m), not a copy of the pool.  ``m`` equal to the pool
    size returns the pool itself (and draws nothing).
    """
    full = not isinstance(pool, IndexSet)
    n = _domain(pool) if full else len(pool)
    domain = n if full else pool.domain
    m = _integer(m, SamplingError)
    if m < 0 or m > n:
        raise SamplingError(f"cannot sample {m} from pool of {n}")
    if m == n:
        return IndexSet.full(n) if full else pool
    if m == 0:
        return IndexSet(np.empty(0, dtype=np.int64), domain)
    offsets = rng.integers(0, n - np.arange(m))
    # step a swaps positions a and b >= a; position a is never touched again,
    # so only b's new content needs recording
    displaced: dict[int, int] = {}
    picked = np.empty(m, dtype=np.int64)
    for a in range(m):
        b = a + int(offsets[a])
        picked[a] = displaced.get(b, b)
        displaced[b] = displaced.get(a, a)
    picked.sort()
    return IndexSet(picked + 1 if full else pool.indices[picked], domain)


def _entropy_words(master_seed: int, tags: Iterable) -> list[int]:
    seed = _integer(master_seed)
    if seed < 0:
        raise DomainError(f"master seed must be non-negative, got {seed}")
    words = [seed]
    for tag in tags:
        if isinstance(tag, str):
            digest = hashlib.sha256(tag.encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
        else:
            word = _integer(tag)
            if word < 0:
                raise DomainError(f"integer tags must be non-negative, got {tag}")
            words.append(word)
    return words


def derived_rng(master_seed: int, *tags) -> np.random.Generator:
    """A fresh Generator for the stream named by ``(master_seed, *tags)``.

    String tags are hashed (sha256, first 8 bytes little-endian) into spawn
    words of a ``numpy.random.SeedSequence``; equal tags always give the same
    stream and different tags give statistically independent ones.
    """
    return np.random.default_rng(np.random.SeedSequence(_entropy_words(master_seed, tags)))


def derived_seed(master_seed: int, *tags) -> int:
    """A stable 64-bit sub-seed for the stream named by ``(master_seed, *tags)``."""
    seq = np.random.SeedSequence(_entropy_words(master_seed, tags))
    return int(seq.generate_state(1, np.uint64)[0])
