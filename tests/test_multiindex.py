"""Multi-index linearization, index sets, Kronecker extension, and sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttinherit import (
    DomainError,
    ExperimentConfig,
    IndexSet,
    SamplingError,
    TTTensor,
    delinearize,
    derived_rng,
    derived_seed,
    entry,
    kron_extend,
    linearize,
    sample_without_replacement,
)
from ttinherit.multiindex import Shape

# ---------------------------------------------------------------- Shape


def test_shape_sizes():
    s = Shape((2, 3, 4))
    assert len(s) == 3
    assert s.size == 24
    assert [s.prefix_size(i) for i in range(4)] == [1, 2, 6, 24]
    assert [s.suffix_size(i) for i in range(4)] == [24, 12, 4, 1]
    assert list(s) == [2, 3, 4]
    assert s[1] == 3


def test_shape_rejects_bad_dims():
    with pytest.raises(DomainError):
        Shape(())
    with pytest.raises(DomainError):
        Shape((2, 0, 3))
    with pytest.raises(DomainError):
        Shape((2, -1))
    for dims in ((True, 3), (2.5, 3), ("2", 3)):
        with pytest.raises(DomainError, match="expected an integer"):
            Shape(dims)
    assert Shape((2.0, np.int64(3))) == (2, 3)


# ---------------------------------------------------------------- IndexSet


def test_index_set_sorts_and_validates():
    # sorted input skips the sort, unsorted input is sorted; either way the
    # set holds its own read-only copy
    for given in ([5, 2, 9], [2, 5, 9], [9, 5, 2]):
        raw = np.array(given, dtype=np.int64)
        s = IndexSet(raw, 10)
        assert list(s) == [2, 5, 9]
        assert len(s) == 3
        assert 5 in s and 3 not in s
        assert np.array_equal(s.zero_based(), [1, 4, 8])
        assert not s.indices.flags.writeable
        raw[0] = 7
        assert list(s) == [2, 5, 9] and raw.flags.writeable


def test_index_set_rejects_duplicates_and_out_of_domain():
    cases = [
        ([1, 1, 2], 10, "distinct"),  # sorted, adjacent duplicates
        ([1, 2, 2, 3], 10, "distinct"),
        ([2, 1, 2], 10, "distinct"),  # unsorted duplicates
        ([0, 1], 10, r"lie in \[1, 10\]"),
        ([1, 11], 10, r"lie in \[1, 10\]"),
        # unsorted and out of domain: the domain error comes first
        ([11, 3, 3], 10, r"lie in \[1, 10\], got range \[3, 11\]"),
        ([5, 0, 2], 10, r"got range \[0, 5\]"),
        ([1], 0, "domain must be >= 1"),
    ]
    for given, domain, message in cases:
        with pytest.raises(DomainError, match=message):
            IndexSet(given, domain)


def test_index_set_full_subset_equality():
    full = IndexSet.full(6)
    assert list(full) == [1, 2, 3, 4, 5, 6]
    sub = IndexSet([2, 4], 6)
    assert sub.is_subset_of(full)
    assert not full.is_subset_of(sub)
    assert not sub.is_subset_of(IndexSet([2, 4], 7))  # different domain
    assert sub == IndexSet([4, 2], 6)
    assert sub != IndexSet([2, 4], 7)
    empty = IndexSet([], 6)
    assert len(empty) == 0 and empty.is_subset_of(sub)


def test_index_set_refuses_entries_and_domains_that_are_not_integers():
    for indices, domain in (
        ([1.5, 2.7], 3),
        (np.array([1.0, 2.5]), 3),
        ([True, False], 3),
        ([True, 2], 3),  # numpy would promote the bool to 1
        (np.array([True, False]), 3),
        (["1", "2"], 3),
        ([1, 2], 3.5),
        ([1, 2], True),
    ):
        with pytest.raises(DomainError, match="expected an integer"):
            IndexSet(indices, domain)
    for domain in (2.5, True):
        with pytest.raises(DomainError, match="expected an integer"):
            IndexSet.full(domain)
    I = IndexSet([1, 2], 3)
    for q in (2.5, True, "2", None):
        assert q not in I


def test_index_set_takes_integral_floats_and_integer_arrays():
    want = IndexSet(np.array([1, 3], dtype=np.int64), 3)
    for indices in ([1.0, 3.0], np.array([3.0, 1.0]), np.array([1, 3], dtype=np.int32), [np.int64(1), 3]):
        assert IndexSet(indices, 3.0) == want
    assert IndexSet([1, 3], np.int64(3)) == want
    assert IndexSet.full(np.int64(3)).domain == 3
    assert IndexSet.full(3.0) == IndexSet.full(3)
    assert 3.0 in want and np.int64(3) in want and 2 not in want


# ---------------------------------------------------------------- linearize / delinearize


def test_linearize_hand_values():
    assert linearize((1, 1), (2, 3)) == 1
    assert linearize((2, 1), (2, 3)) == 2
    assert linearize((1, 2), (2, 3)) == 3


def test_delinearize_hand_values():
    assert delinearize(1, (2, 3)) == (1, 1)
    assert delinearize(6, (2, 3)) == (2, 3)
    assert delinearize(3, (2, 3)) == (1, 2)


def test_linearize_rejects_out_of_range():
    with pytest.raises(DomainError):
        linearize((0, 1), (2, 3))
    with pytest.raises(DomainError):
        linearize((1, 4), (2, 3))
    with pytest.raises(DomainError):
        linearize((1, 1, 1), (2, 3))
    with pytest.raises(DomainError):
        delinearize(0, (2, 3))
    with pytest.raises(DomainError):
        delinearize(7, (2, 3))


@st.composite
def shape_and_multi(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    multi = tuple(draw(st.integers(1, n)) for n in dims)
    return tuple(dims), multi


@given(shape_and_multi())
def test_linearize_round_trip(case):
    dims, multi = case
    lin = linearize(multi, dims)
    assert 1 <= lin <= int(np.prod(dims))
    assert delinearize(lin, dims) == multi


@given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_linearize_is_a_bijection(dims):
    dims = tuple(dims)
    total = int(np.prod(dims))
    seen = {linearize(delinearize(x, dims), dims) for x in range(1, total + 1)}
    assert seen == set(range(1, total + 1))


def test_first_index_varies_fastest():
    # consecutive linear indices walk the first mode before the second
    assert [linearize((j, 1), (3, 2)) for j in (1, 2, 3)] == [1, 2, 3]
    assert [linearize((j, 2), (3, 2)) for j in (1, 2, 3)] == [4, 5, 6]


# ---------------------------------------------------------------- kron_extend


def test_kron_extend_hand_values():
    got = kron_extend(IndexSet([1], 1), 3)
    assert list(got) == [1, 2, 3] and got.domain == 3

    got = kron_extend(IndexSet([2, 5], 5), 2)
    assert list(got) == [2, 5, 7, 10] and got.domain == 10

    got = kron_extend(IndexSet.full(4), 3)
    assert got == IndexSet.full(12)


@given(
    st.sets(st.integers(1, 30), min_size=0, max_size=10),
    st.integers(1, 5),
)
def test_kron_extend_cardinality_and_order(prefix_elems, n):
    prefix = IndexSet(sorted(prefix_elems), 30)
    out = kron_extend(prefix, n)
    assert len(out) == len(prefix) * n
    assert out.domain == prefix.domain * n
    arr = out.indices
    assert np.all(np.diff(arr) > 0)  # sorted, distinct


def test_kron_extend_chain_reaches_full_set():
    dims = (3, 2, 4)
    cur = IndexSet([1], 1)
    for n in dims:
        cur = kron_extend(cur, n)
    assert cur == IndexSet.full(3 * 2 * 4)


def test_kron_extend_agrees_with_linearize():
    # element q + (j-1)*P of the extension is the linearization of
    # (delinearize(q), j) in the extended shape
    dims = (2, 3)
    P = 6
    prefix = IndexSet([2, 5], P)
    n = 4
    out = set(kron_extend(prefix, n))
    expect = {
        linearize((*delinearize(q, dims), j), (*dims, n))
        for q in prefix
        for j in range(1, n + 1)
    }
    assert out == expect


def test_kron_extend_rejects_bad_mode_size():
    with pytest.raises(DomainError):
        kron_extend(IndexSet([1], 2), 0)
    for n in (2.5, 2.9, True, "2"):
        with pytest.raises(DomainError, match="expected an integer"):
            kron_extend(IndexSet([1], 2), n)
    for n in (2.0, np.int64(2)):
        assert kron_extend(IndexSet([1], 2), n) == kron_extend(IndexSet([1], 2), 2)


# ---------------------------------------------------------------- sampling


def test_sample_exhaustive_returns_pool():
    pool = IndexSet.full(10)
    got = sample_without_replacement(pool, 10, derived_rng(0, "t"))
    assert got == pool


def test_sample_zero_is_empty():
    got = sample_without_replacement(IndexSet.full(10), 0, derived_rng(0, "t"))
    assert len(got) == 0 and got.domain == 10


def test_sample_deterministic_given_seed():
    pool = IndexSet.full(100)
    a = sample_without_replacement(pool, 5, derived_rng(7, "x"))
    b = sample_without_replacement(pool, 5, derived_rng(7, "x"))
    c = sample_without_replacement(pool, 5, derived_rng(8, "x"))
    assert a == b
    assert a != c  # overwhelmingly likely and fixed by the seeds above


def test_sample_too_many_raises():
    with pytest.raises(SamplingError):
        sample_without_replacement(IndexSet.full(3), 4, derived_rng(0))
    with pytest.raises(SamplingError):
        sample_without_replacement(IndexSet.full(3), -1, derived_rng(0))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.data())
def test_a_domain_size_samples_as_its_full_set_does(seed, n, data):
    m = data.draw(st.integers(0, n))
    got = sample_without_replacement(n, m, derived_rng(seed))
    assert got == sample_without_replacement(IndexSet.full(n), m, derived_rng(seed))
    assert got.domain == n and not got.indices.flags.writeable
    with pytest.raises(SamplingError):
        sample_without_replacement(n, n + 1, derived_rng(seed))


def test_a_domain_size_is_checked_as_a_domain():
    for n in (0, -3, 2.5, True):
        with pytest.raises(DomainError):
            sample_without_replacement(n, 0, derived_rng(0))


@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_sample_is_a_sorted_subset(seed, m):
    pool = IndexSet([3, 5, 8, 13, 21, 34, 55, 89, 90, 91, 92, 93], 100)
    got = sample_without_replacement(pool, m, derived_rng(seed))
    assert len(got) == m
    assert got.is_subset_of(pool)
    assert np.all(np.diff(got.indices) > 0) or m <= 1


def _dense_fisher_yates(pool, m, rng):
    """The partial Fisher-Yates shuffle over a full copy of the pool."""
    work = pool.indices.copy()
    offsets = rng.integers(0, work.size - np.arange(m))
    for a in range(m):
        b = a + int(offsets[a])
        work[a], work[b] = work[b], work[a]
    return np.sort(work[:m])


@pytest.mark.parametrize("seed", range(6))
def test_sample_matches_the_dense_shuffle_bit_for_bit(seed):
    # the same offsets drawn up front pick the same positions, so each sample
    # equals the one a shuffle over a copy of the whole pool gives
    pools = [IndexSet.full(n) for n in (1, 2, 7, 1000, 10**6)]
    pools.append(kron_extend(IndexSet([2, 5, 9], 10), 4))
    pools.append(kron_extend(kron_extend(IndexSet([1, 3], 3), 5), 6))
    for pool in pools:
        n = len(pool)
        sizes = {0, 1, min(12, n)}
        if n <= 1000:  # a draw of most of the pool loops in Python on both sides
            sizes |= {n // 2, n - 1, n}
        for m in sorted(sizes):
            got = sample_without_replacement(pool, m, derived_rng(seed, "fy", len(pool), m))
            want = _dense_fisher_yates(pool, m, derived_rng(seed, "fy", len(pool), m))
            assert got.domain == pool.domain
            assert got.indices.tobytes() == want.tobytes()


def test_sample_single_element_frequencies_uniform():
    # 10^4 one-element draws from a 10-element pool: each element's frequency
    # must sit within 5 binomial standard deviations of 1/10
    pool = IndexSet.full(10)
    rng = derived_rng(2024, "uniformity")
    n_draws = 10_000
    counts = np.zeros(10)
    for _ in range(n_draws):
        (q,) = sample_without_replacement(pool, 1, rng)
        counts[q - 1] += 1
    p = 0.1
    sigma = np.sqrt(p * (1 - p) / n_draws)
    freqs = counts / n_draws
    assert np.all(np.abs(freqs - p) <= 5 * sigma), freqs


def test_sample_subset_frequencies_uniform():
    # all 2-subsets of a 5-element pool (10 of them) appear about equally often
    pool = IndexSet.full(5)
    rng = derived_rng(99, "pairs")
    n_draws = 20_000
    counts = {}
    for _ in range(n_draws):
        got = tuple(sample_without_replacement(pool, 2, rng))
        counts[got] = counts.get(got, 0) + 1
    assert len(counts) == 10
    p = 1 / 10
    sigma = np.sqrt(p * (1 - p) / n_draws)
    for pair, c in counts.items():
        assert abs(c / n_draws - p) <= 5 * sigma, (pair, c / n_draws)


# ---------------------------------------------------------------- derived streams


def test_derived_rng_deterministic_and_tag_sensitive():
    a = derived_rng(42, "trial", "gaussian", 0).random(4)
    b = derived_rng(42, "trial", "gaussian", 0).random(4)
    c = derived_rng(42, "trial", "gaussian", 1).random(4)
    d = derived_rng(42, "trial", "uniform", 0).random(4)
    e = derived_rng(43, "trial", "gaussian", 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_derived_seed_deterministic_nonnegative():
    s1 = derived_seed(42, "trial", "gaussian", 3)
    s2 = derived_seed(42, "trial", "gaussian", 3)
    s3 = derived_seed(42, "trial", "gaussian", 4)
    assert s1 == s2 != s3
    assert s1 >= 0 and s3 >= 0


def test_derived_stream_rejects_bad_tags():
    with pytest.raises(DomainError):
        derived_rng(-1, "x")
    with pytest.raises(DomainError):
        derived_rng(1, -2)
    with pytest.raises(DomainError):
        derived_rng(1, 3.5)


# ---------------------------------------------------------------- integers at the other entry points

_TT_2x3 = TTTensor([np.ones((1, 2, 1)), np.array([[[1.0], [2.0], [3.0]]])])


@pytest.mark.parametrize(
    "error, call",
    [
        pytest.param(
            SamplingError,
            lambda v: sample_without_replacement(IndexSet.full(5), v, derived_rng(0, "s")),
            id="sample_without_replacement",
        ),
        pytest.param(DomainError, lambda v: linearize((1, v), (2, 3)), id="linearize"),
        pytest.param(DomainError, lambda v: delinearize(v, (2, 3)), id="delinearize"),
        pytest.param(DomainError, lambda v: entry(_TT_2x3, (1, v)), id="entry"),
        pytest.param(DomainError, lambda v: derived_rng(v, "a").random(2).tolist(), id="derived_rng-seed"),
        pytest.param(DomainError, lambda v: derived_rng(1, "a", v).random(2).tolist(), id="derived_rng-tag"),
        pytest.param(DomainError, lambda v: derived_seed(v, "a"), id="derived_seed-seed"),
        pytest.param(DomainError, lambda v: derived_seed(1, v), id="derived_seed-tag"),
        pytest.param(
            DomainError,
            lambda v: ExperimentConfig.default_sample_sizes((4, 4, 4), (v, 2)),
            id="default_sample_sizes",
        ),
    ],
)
def test_entry_points_refuse_what_is_not_an_integer(error, call):
    # no entry point truncates 2.5 or reads True as 1
    for value in (2.5, True):
        with pytest.raises(error, match="expected an integer"):
            call(value)
    want = call(2)
    for value in (2.0, np.int64(2)):
        assert call(value) == want
