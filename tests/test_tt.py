"""Tensor-train structure: cores, entries, interfaces, structured SVDs."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ttinherit import (
    KINDS,
    CapacityError,
    DomainError,
    IndexSet,
    NumericError,
    RankZeroError,
    Shape,
    StructuralError,
    ThinSVD,
    TTTensor,
    check_column_sampling_bounds,
    check_row_sampling_bounds,
    column_submatrix,
    entry,
    incoherence,
    kron_extend,
    left_interface,
    linearize,
    right_interface,
    row_restrict,
    sample_without_replacement,
    submatrix_svd,
    thin_svd,
    to_dense,
    tt_rank_numerical,
    tt_svd_from_dense,
    unfolding_svd,
)
import ttinherit.oracle as oracle_mod
import ttinherit.tt as tt_mod
from ttinherit.linalg import max_row_norm
from ttinherit.oracle import dense_properties, dense_unfolding
from ttinherit.tt import left_orthogonal_form, right_orthogonal_form

from conftest import coherent, make_tt, rel_err, sample_valid_sets

SRC = Path(__file__).resolve().parent.parent / "src"

# ---------------------------------------------------------------- validation


def test_validate_accepts_matching_chain():
    cores = [np.ones((1, 2, 3)), np.ones((3, 4, 1))]
    t = TTTensor(cores)
    assert t.shape == (2, 4) and t.ranks == (3,) and t.d == 2 and t.size == 8


def test_validate_rejects_junction_mismatch():
    with pytest.raises(StructuralError):
        TTTensor([np.ones((1, 2, 3)), np.ones((2, 4, 1))])


def test_validate_rejects_single_core():
    with pytest.raises(StructuralError):
        TTTensor([np.ones((1, 2, 1))])


def test_validate_rejects_malformed_cores():
    with pytest.raises(StructuralError):
        TTTensor([np.ones((2, 2, 3)), np.ones((3, 4, 1))])  # r_0 != 1
    with pytest.raises(StructuralError):
        TTTensor([np.ones((1, 2, 3)), np.ones((3, 4, 2))])  # r_d != 1
    with pytest.raises(StructuralError):
        TTTensor([np.ones((1, 2)), np.ones((2, 4, 1))])  # not 3-d
    with pytest.raises(StructuralError):
        TTTensor([np.ones((1, 0, 3)), np.ones((3, 4, 1))])  # empty mode
    bad = np.ones((1, 2, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        TTTensor([bad, np.ones((3, 4, 1))])


def test_tensor_is_immutable_and_copies_input():
    src = [np.ones((1, 2, 2)), np.ones((2, 2, 1))]
    t = TTTensor(src)
    src[0][0, 0, 0] = 99.0
    assert t.cores[0][0, 0, 0] == 1.0
    with pytest.raises(AttributeError):
        t.shape = (3, 3)
    with pytest.raises(ValueError):
        t.cores[0][0, 0, 0] = 5.0
    assert "shape" in repr(t)


def test_shape_is_a_shape_equal_to_the_plain_tuple():
    t = make_tt("gaussian", (3, 4, 5), (2, 2), seed=3)
    A, _ = left_orthogonal_form(t)
    sub = row_restrict(t, 1, IndexSet([1, 2], 3))
    for x, want in ((t, (3, 4, 5)), (A, (3, 4, 5)), (sub, (2, 4, 5))):
        assert isinstance(x.shape, Shape)
        assert x.shape == want and hash(x.shape) == hash(want)
        assert repr(x.shape) == repr(want)
    assert t.size == 60


# ---------------------------------------------------------------- entry / to_dense


def test_entry_hand_product(hand_tt):
    assert entry(hand_tt, (2, 1)) == 6.0
    assert entry(hand_tt, (1, 1)) == 3.0
    assert entry(hand_tt, (2, 2)) == 8.0


def test_entry_all_ones(ones_tt):
    for multi in itertools.product((1, 2), repeat=4):
        assert entry(ones_tt, multi) == 1.0


def test_entry_rejects_bad_multi(hand_tt):
    with pytest.raises(DomainError):
        entry(hand_tt, (1,))
    with pytest.raises(DomainError):
        entry(hand_tt, (3, 1))
    with pytest.raises(DomainError):
        entry(hand_tt, (1, 0))


def _refuse(*args):
    raise AssertionError("the oracle contracted the cores with the interface chain")


@pytest.mark.parametrize("interface_chain", ["kept", "refused"])
def test_entry_matches_dense_everywhere(interface_chain, monkeypatch):
    # to_dense must not lean on the left chain that the interfaces it
    # falsifies are built from
    t = make_tt("gaussian", (2, 3, 2), (2, 2), seed=10)
    if interface_chain == "refused":
        monkeypatch.setattr(tt_mod, "_left_step", _refuse)
        monkeypatch.setattr(tt_mod, "_interface", _refuse)
    X = to_dense(t)
    for multi in itertools.product(*(range(1, n + 1) for n in t.shape)):
        zero = tuple(j - 1 for j in multi)
        assert np.isclose(entry(t, multi), X[zero], rtol=1e-12)


def test_to_dense_hand_values(hand_tt, ones_tt):
    assert np.allclose(to_dense(hand_tt), [[3.0, 4.0], [6.0, 8.0]])
    assert np.allclose(to_dense(ones_tt), np.ones((2, 2, 2, 2)))


def test_to_dense_respects_capacity_cap(monkeypatch):
    t = make_tt("gaussian", (10, 10, 10), (2, 2), seed=1)
    monkeypatch.setattr(oracle_mod, "DENSE_CAP", 999)
    with pytest.raises(CapacityError):
        to_dense(t)


# ---------------------------------------------------------------- interfaces


def test_left_interface_hand_values(hand_tt):
    assert np.allclose(left_interface(hand_tt, 1), [[1.0], [2.0]])


def test_left_interface_all_ones_chain():
    core = np.ones((1, 2, 1))
    t = TTTensor([core, core, core])
    assert np.allclose(left_interface(t, 2), np.ones((4, 1)))


def test_right_interface_hand_values(hand_tt):
    assert np.allclose(right_interface(hand_tt, 1), [[3.0], [4.0]])


def test_right_interface_all_ones_chain():
    core = np.ones((1, 2, 1))
    t = TTTensor([core, core, core])
    assert np.allclose(right_interface(t, 1), np.ones((4, 1)))


def test_interfaces_factor_every_unfolding():
    t = make_tt("gaussian", (4, 3, 5, 2), (2, 3, 2), seed=5)
    X = to_dense(t)
    for i in range(1, t.d):
        L = left_interface(t, i)
        R = right_interface(t, i)
        M = dense_unfolding(X, i)
        assert L.shape == (M.shape[0], t.ranks[i - 1])
        assert R.shape == (M.shape[1], t.ranks[i - 1])
        assert rel_err(L @ R.T, M) <= 1e-10


def test_interfaces_reject_out_of_range_position(hand_tt):
    for bad in (0, 2):
        with pytest.raises(DomainError):
            left_interface(hand_tt, bad)
        with pytest.raises(DomainError):
            right_interface(hand_tt, bad)


@st.composite
def _chains(draw):
    """A TT with d in {2, 3, 5}, modes of size 1-4, and unequal neighbouring ranks."""
    d = draw(st.sampled_from((2, 3, 5)))
    shape = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    ranks = [1]
    for _ in range(d - 1):
        ranks.append(draw(st.sampled_from([r for r in (2, 3, 4) if r != ranks[-1]])))
    ranks.append(1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TTTensor([rng.standard_normal((ranks[k], shape[k], ranks[k + 1])) for k in range(d)])


@settings(max_examples=60)
@given(_chains())
def test_interface_rows_multiply_out_to_entries(t):
    # entry() chains the core slices itself, so it shares no code with the
    # GEMM layout of left_interface/right_interface
    entries = np.empty(t.shape)
    scale = np.empty(t.shape)  # the same chains over |cores| bound the roundoff
    t_abs = TTTensor([np.abs(c) for c in t.cores])
    for idx in itertools.product(*(range(n) for n in t.shape)):
        multi = [j + 1 for j in idx]
        entries[idx] = entry(t, multi)
        scale[idx] = entry(t_abs, multi)
    for i in range(1, t.d):
        L = left_interface(t, i)
        R = right_interface(t, i)
        rows = int(np.prod(t.shape[:i]))
        assert L.shape == (rows, t.ranks[i - 1])
        assert R.shape == (t.size // rows, t.ranks[i - 1])
        want = entries.reshape(rows, -1, order="F")
        bound = 1e-13 * scale.reshape(rows, -1, order="F")
        assert np.all(np.abs(L @ R.T - want) <= bound)


def test_interfaces_agree_bitwise_across_blas_thread_counts():
    # 1e6-row interfaces at paper geometry and their largest row norms, from
    # quadratic forms past the boundary cores; OpenBLAS splits GEMM and QR
    # work over threads, which must not change a single bit
    script = (
        "import hashlib, numpy as np\n"
        "from ttinherit import TTTensor, left_interface, right_interface, unfolding_svd\n"
        "rng = np.random.default_rng(3)\n"
        "r = (1, 2, 3, 2, 1)\n"
        "t = TTTensor([rng.standard_normal((r[k], 100, r[k + 1])) for k in range(4)])\n"
        "h = hashlib.sha256()\n"
        "for a in (left_interface(t, 3), right_interface(t, 1)):\n"
        "    assert a.shape == (10**6, 2)\n"
        "    h.update(np.ascontiguousarray(a).tobytes())\n"
        "for i in (1, 2, 3):\n"
        "    s = unfolding_svd(t, i)\n"
        "    for a in (s.W, s.sigma, s.V):\n"
        "        h.update(a.tobytes())\n"
        "    for side in 'WV':\n"
        "        h.update(np.float64(s.factor_max_row_norm(side)).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_interface_capacity_cap(monkeypatch):
    t = make_tt("gaussian", (10, 10, 10), (2, 2), seed=1)
    monkeypatch.setattr(tt_mod, "INTERFACE_ELEM_CAP", 50)
    with pytest.raises(CapacityError):
        left_interface(t, 2)


# ---------------------------------------------------------------- interface cache


def test_form_interfaces_are_cached_read_only_and_bitwise_a_fresh_build():
    t = TTTensor(make_tt("gaussian", (4, 3, 5, 2), (2, 3, 2), seed=31).cores)
    (A, _), (B, _) = left_orthogonal_form(t), right_orthogonal_form(t)
    fresh_A, fresh_B = TTTensor(A.cores), TTTensor(B.cores)
    for i in range(1, t.d):
        for form, fresh, build in ((A, fresh_A, left_interface), (B, fresh_B, right_interface)):
            X = build(form, i)
            assert build(form, i) is X
            assert not X.flags.writeable
            with pytest.raises(ValueError):
                X[0, 0] = 1.0
            assert X.tobytes() == build(fresh, i).tobytes()


@st.composite
def _small_chains(draw):
    """A TT with d in 2-6, modes of size 2-3 and ranks 1-4, in about half
    the draws made coherent (see :func:`conftest.coherent`)."""
    d = draw(st.integers(2, 6))
    shape = draw(st.lists(st.integers(2, 3), min_size=d, max_size=d))
    ranks = [1] + draw(st.lists(st.integers(1, 4), min_size=d - 1, max_size=d - 1)) + [1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = TTTensor([rng.standard_normal((ranks[k], shape[k], ranks[k + 1])) for k in range(d)])
    return coherent(t) if draw(st.booleans()) else t


@settings(max_examples=80, deadline=None)
@given(_small_chains())
def test_row_norms_from_quadratic_forms_match_a_pass_over_the_interface(t):
    # past a boundary core the memo's largest row norm is read from the
    # interface one mode shorter; it must agree with a pass over the built
    # interface within 1e-14 relative, and equal it at the boundary core
    (A, _), (B, _) = left_orthogonal_form(t), right_orthogonal_form(t)
    for key in range(1, t.d):
        for form, side, Q in ((A, 0, left_interface(A, key)), (B, 1, right_interface(B, t.d - key))):
            got, want = tt_mod._interface_max_row_norm(form, side, key), max_row_norm(Q)
            if key == 1:
                assert got == want
            else:
                assert abs(got - want) <= 1e-14 * want


@st.composite
def _tall_chains(draw):
    """A TT with d in 3-4, modes of size 40-120 and ranks 1-4, in about half
    the draws made coherent; at d = 4 the interface a mode shorter than
    L_3 (R_1) is taller than one block of the quadratic-form reader."""
    d = draw(st.integers(3, 4))
    shape = draw(st.lists(st.integers(40, 120), min_size=d, max_size=d))
    ranks = [1] + draw(st.lists(st.integers(1, 4), min_size=d - 1, max_size=d - 1)) + [1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = TTTensor([rng.standard_normal((ranks[k], shape[k], ranks[k + 1])) for k in range(d)])
    return coherent(t) if draw(st.booleans()) else t


def _assert_row_norms_match_a_pass(t):
    """Every key of both form memos of ``t`` within 1e-14 of a pass."""
    (A, _), (B, _) = left_orthogonal_form(t), right_orthogonal_form(t)
    for key in range(2, t.d):
        for form, side, Q in ((A, 0, left_interface(A, key)), (B, 1, right_interface(B, t.d - key))):
            got, want = tt_mod._interface_max_row_norm(form, side, key), max_row_norm(Q)
            assert abs(got - want) <= 1e-14 * want, (side, key)


@settings(max_examples=16, deadline=None)
@given(_tall_chains())
def test_row_norms_from_candidate_rows_match_a_pass_over_the_interface(t):
    # past one block of rows only candidates are evaluated, those whose
    # squared norm times max_j tr(H_j) reaches the largest form of the row
    # of largest norm
    _assert_row_norms_match_a_pass(t)


def _reversed(t: TTTensor) -> TTTensor:
    """``t`` with its modes in reverse order: its right interfaces are the
    left interfaces of ``t``."""
    return TTTensor([c.transpose(2, 1, 0) for c in reversed(t.cores)])


@pytest.mark.parametrize("case", ["longest row is not the largest", "every row a candidate"])
def test_candidate_rows_keep_the_largest_form(case):
    # L_1 is 5,000 x 2, taller than one block (4,096 rows at n = 2, r = 2);
    # every H_j of the second core is diag(1, 0.01), so a row's form weighs
    # its first entry 100 times its second
    rng = np.random.default_rng(35)
    if case == "longest row is not the largest":
        # rows of norm below 0.5, then the longest row [0, 1] (form 0.01)
        # and a shorter row [0.9, 0] whose form, 0.81, is the largest
        rows = rng.uniform(-0.35, 0.35, (5000, 2))
        rows[17], rows[4000] = [0.0, 1.0], [0.9, 0.0]
    else:
        # every row of norm 1, so no row's bound falls below the largest
        # form and every row is evaluated
        angle = rng.uniform(0.0, 2.0 * np.pi, 5000)
        rows = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    middle = np.broadcast_to(np.diag([1.0, 0.1])[:, None, :], (2, 2, 2))
    t = TTTensor([rows[None], middle, rng.standard_normal((2, 3, 1))])
    want = np.sqrt((rows[:, 0] ** 2 + 0.01 * rows[:, 1] ** 2).max())
    if case == "longest row is not the largest":
        assert np.einsum("ij,ij->i", rows, rows).argmax() == 17 and want == 0.9
    for tensor, side in ((t, 0), (_reversed(t), 1)):
        Q = left_interface(tensor, 2) if side == 0 else right_interface(tensor, 1)
        got = tt_mod._interface_max_row_norm(tensor, side, 2)
        assert abs(got - max_row_norm(Q)) <= 1e-14 * max_row_norm(Q)
        assert abs(got - want) <= 1e-14 * want


def _random_chain(shape, ranks, seed):
    """Cores of the declared ranks, not checked against the unfolding ranks."""
    r = (1,) + tuple(ranks) + (1,)
    rng = np.random.default_rng(seed)
    return TTTensor([rng.standard_normal((r[k], n, r[k + 1])) for k, n in enumerate(shape)])


def test_constructor_tensors_cache_no_interface():
    # today's memory: each call builds its own writeable array
    t = make_tt("gaussian", (4, 3, 5), (2, 3), seed=32)
    for X, Y in ((left_interface(t, 2), left_interface(t, 2)), (right_interface(t, 1), right_interface(t, 1))):
        assert not np.shares_memory(X, Y)
        assert X.flags.writeable and np.array_equal(X, Y)


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_cache_hit_is_refused_exactly_when_a_build_would_be(side, monkeypatch):
    # the largest array of each build is an intermediate step, not the
    # interface returned: left, (3*4)*8 entries before the 24 x 1 result;
    # right, (4*3)*8 before the 24 x 1 result
    if side == "left":
        t = _random_chain((3, 4, 2, 5), (3, 8, 1), seed=33)
        form, build, i = left_orthogonal_form(t)[0], left_interface, 3
    else:
        t = _random_chain((5, 2, 4, 3), (1, 8, 3), seed=33)
        form, build, i = right_orthogonal_form(t)[0], right_interface, 1
    final = build(form, i).size  # now cached
    assert final == 24
    fresh = TTTensor(form.cores)
    caps = range(1, 129)
    refused = []
    for cap in caps:
        monkeypatch.setattr(tt_mod, "INTERFACE_ELEM_CAP", cap)
        outcomes = []
        for tensor in (form, fresh):
            try:
                build(tensor, i)
                outcomes.append(False)
            except CapacityError:
                outcomes.append(True)
        assert outcomes[0] == outcomes[1], cap
        refused.append(outcomes[0])
    assert refused == [cap < 96 for cap in caps]


def test_a_row_restricted_subtensor_reads_the_parents_right_interfaces():
    t = make_tt("gaussian", (4, 3, 5, 2), (2, 3, 2), seed=34)
    B, _ = right_orthogonal_form(t)
    I_sets, _, _ = sample_valid_sets(t, (2, 3, 2), (2, 3, 2), seed=34)
    for i in range(1, t.d):
        sub = row_restrict(t, i, I_sets[i - 1])
        B_sub, _ = right_orthogonal_form(sub)
        assert B_sub._memo[1] is B._memo[1]
        for k in range(1, sub.d):
            assert right_interface(B_sub, k) is right_interface(B, i - 1 + k)


# ---------------------------------------------------------------- unfolding_svd


def test_unfolding_svd_rank_one_spectrum(hand_tt):
    svd = unfolding_svd(hand_tt, 1)
    assert svd.rank == 1
    assert np.isclose(svd.sigma[0], 5.0 * np.sqrt(5.0), rtol=1e-14)
    assert np.isclose(svd.sigma[0], 11.1803, atol=5e-5)


def test_unfolding_svd_orthogonality_at_scale():
    t = make_tt("gaussian", (20, 20, 20, 20), (2, 3, 2), seed=3)
    for i in range(1, 4):
        svd = unfolding_svd(t, i)
        r = svd.rank
        assert svd.W.flags.f_contiguous and svd.V.flags.f_contiguous
        assert np.abs(svd.W.T @ svd.W - np.eye(r)).max() <= 1e-10
        assert np.abs(svd.V.T @ svd.V - np.eye(r)).max() <= 1e-10


def test_unfolding_svd_matches_dense_svd():
    t = make_tt("gaussian", (6, 6, 6, 6), (2, 3, 2), seed=4)
    X = to_dense(t)
    for i in range(1, 4):
        s_struct = unfolding_svd(t, i)
        s_dense = thin_svd(dense_unfolding(X, i))
        assert s_struct.rank == s_dense.rank
        assert rel_err(s_struct.sigma, s_dense.sigma) <= 1e-10
        # the spanned subspaces agree even if the bases differ by signs/rotations
        assert scipy.linalg.subspace_angles(s_struct.W, s_dense.W).max() <= 1e-8
        assert scipy.linalg.subspace_angles(s_struct.V, s_dense.V).max() <= 1e-8


# ---------------------------------------------------------------- factored singular factors


def _factored_svds():
    """unfolding_svd, submatrix_svd and thin_svd results of one 20^4 tensor,
    whose rotations are square, then the first unfolding SVD of
    :func:`_duplicated_rank_slice`, whose rotations are not."""
    t = make_tt("gaussian", (20, 20, 20, 20), (2, 3, 2), seed=41)
    I_sets, J_sets, svds = sample_valid_sets(t, (8, 12, 8), (8, 12, 8), seed=41)
    rows = [IndexSet.full(20)] + [kron_extend(I, 20) for I in I_sets[:-1]]
    svds += [submatrix_svd(t, i, rows[i - 1], J_sets[i - 1]) for i in range(1, t.d)]
    svds += [thin_svd(column_submatrix(t, 2, rows[1], J_sets[1]))]
    return svds + [unfolding_svd(_duplicated_rank_slice(), 1)]


def _duplicated_rank_slice() -> TTTensor:
    """A 4 x 3 x 5 x 2 TT whose first core has two equal rank slices: its
    first unfolding has numerical rank 1, below the forms' rank 2 on both
    sides, so both rotations of its SVD are 2 x 1."""
    cores = list(make_tt("gaussian", (4, 3, 5, 2), (2, 3, 2), seed=45).cores)
    first = cores[0].copy()
    first[:, :, 1] = first[:, :, 0]
    return TTTensor([first] + cores[1:])


def test_factor_rows_are_bitwise_and_row_norms_are_the_basis_where_the_rotation_is_square():
    rng = np.random.default_rng(41)
    square = quadratic = 0
    for k, svd in enumerate(_factored_svds()):
        for side, F in (("W", svd.W), ("V", svd.V)):
            again = getattr(svd, side)  # multiplied out again, to the same bits
            assert again is not F and again.tobytes() == F.tobytes()
            assert F.flags.f_contiguous and not F.flags.writeable
            idx = np.sort(rng.choice(F.shape[0], min(12, F.shape[0]), replace=False))
            assert svd.factor_rows(side, idx).tobytes() == F[idx].tobytes()
            # a square rotation is orthogonal, so W = Q U has the row norms of Q
            Q = svd.basis(side)
            square += Q.shape[1] == F.shape[1]
            mu = svd.factor_max_row_norm(side)
            want = max_row_norm(Q if Q.shape[1] == F.shape[1] else F)
            # the first three are the unfolding SVDs of the 20^4 tensor; a
            # form interface past its boundary core is read as quadratic
            # forms over the interface one mode shorter, every other basis
            # by one pass, bit for bit
            if k < 3 and Q.shape[0] > 20:
                quadratic += 1
                assert abs(mu - want) <= 1e-14 * want
            else:
                assert mu == want
            assert abs(mu - max_row_norm(F)) <= 1e-14 * max_row_norm(F)
    assert square == 2 * 7  # all but the two of the rank-1 unfolding
    assert quadratic == 4  # V_1, W_2, V_2 and W_3


def test_a_rotation_that_is_not_square_keeps_mu_equal_to_the_oracle():
    t = _duplicated_rank_slice()
    X = to_dense(t)
    first = unfolding_svd(t, 1)
    assert first.rank == 1 and first.basis("W").shape[1] == first.basis("V").shape[1] == 2
    for i in range(1, t.d):
        got, want = incoherence(unfolding_svd(t, i)), dense_properties(X, i)
        assert rel_err(got.mu1, want.mu1) <= 1e-10 and rel_err(got.mu2, want.mu2) <= 1e-10


def test_qr_gives_a_column_major_orthonormal_q_and_leaves_its_input_alone():
    X = np.random.default_rng(3).standard_normal((12, 3))
    X.setflags(write=False)
    before = X.copy()
    Q, R = tt_mod._qr(X)
    assert Q.shape == (12, 3) and R.shape == (3, 3)
    assert Q.flags.f_contiguous
    assert np.abs(Q.T @ Q - np.eye(3)).max() <= 1e-14
    assert np.abs(Q @ R - X).max() <= 1e-14 * np.abs(X).max()
    assert np.array_equal(X, before)
    # the same factorization as scipy's economic QR, up to the sign of each column
    Qs, Rs = scipy.linalg.qr(before, mode="economic")
    signs = np.sign(np.diag(R)) * np.sign(np.diag(Rs))
    assert np.allclose(Q * signs, Qs, rtol=0.0, atol=1e-14)
    assert np.allclose(R * signs[:, None], Rs, rtol=0.0, atol=1e-13)


def test_unfolding_svd_holds_the_cached_interfaces_and_multiplies_nothing_out(monkeypatch):
    t = TTTensor(make_tt("gaussian", (5, 4, 6, 3), (2, 3, 2), seed=42).cores)
    (A, _), (B, _) = left_orthogonal_form(t), right_orthogonal_form(t)

    def refuse(self, side):
        raise AssertionError("a singular factor was multiplied out")

    monkeypatch.setattr(ThinSVD, "_materialize", refuse)
    for i in range(1, t.d):
        svd = unfolding_svd(t, i)
        assert np.shares_memory(svd._bases[0], left_interface(A, i))
        assert np.shares_memory(svd._bases[1], right_interface(B, i))
        incoherence(svd)
    with pytest.raises(AssertionError, match="multiplied out"):
        unfolding_svd(t, 1).W


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_perturbed_form_core_fails_the_orthonormality_check(side):
    # the Grams are carried through the form's cores, so a core that is no
    # longer orthonormal shows in every unfolding whose interface reads it
    t = TTTensor(make_tt("gaussian", (4, 3, 5, 2), (2, 3, 2), seed=43).cores)
    k = 1  # 0-based core 2: left interfaces i >= 2, right interfaces i <= 1
    form, factors = (left_orthogonal_form if side == "left" else right_orthogonal_form)(t)
    cores = list(form.cores)
    bad = cores[k].copy()
    bad[0, 0, 0] += 1e-6
    cores[k] = bad
    t._forms[0 if side == "left" else 1] = (tt_mod._form_tensor(cores), factors)
    broken = (2, 3) if side == "left" else (1,)
    for i in range(1, t.d):
        if i in broken:
            with pytest.raises(DomainError, match="orthonormality"):
                unfolding_svd(t, i)
        else:
            unfolding_svd(t, i)


def test_form_grams_equal_the_interface_grams():
    t = make_tt("gaussian", (4, 3, 5, 2, 3), (2, 3, 4, 2), seed=44)
    (A, _), (B, _) = left_orthogonal_form(t), right_orthogonal_form(t)
    for i in range(1, t.d):
        for form, side, key, Q in ((A, 0, i, left_interface(A, i)), (B, 1, t.d - i, right_interface(B, i))):
            G = tt_mod._form_gram(form, side, key)
            assert form._memo[side][("G", key)] is G
            assert not G.flags.writeable
            assert np.abs(G - Q.T @ Q).max() <= 1e-14
    # a subtensor of row_restrict shares the right memo, Grams and all,
    # with the parent form
    sub = row_restrict(t, 2, IndexSet([1, 5, 9], 12))
    B_sub, _ = right_orthogonal_form(sub)
    assert tt_mod._form_gram(B_sub, 1, 2) is tt_mod._form_gram(B, 1, 2)


# ---------------------------------------------------------------- tt_rank_numerical


def test_tt_rank_numerical_of_random_draw():
    t = make_tt("gaussian", (10, 10, 10, 10), (2, 3, 2), seed=6)
    assert tt_rank_numerical(t) == (2, 3, 2)


def test_tt_rank_numerical_all_ones(ones_tt):
    assert tt_rank_numerical(ones_tt) == (1, 1, 1)


def test_tt_rank_numerical_zero_core_raises():
    t = TTTensor([np.zeros((1, 2, 2)), np.ones((2, 2, 1))])
    with pytest.raises(RankZeroError):
        tt_rank_numerical(t)


def test_declared_ranks_can_exceed_numerical():
    # a rank-1 matrix stored with inflated core width 3
    t = TTTensor([np.ones((1, 4, 3)), np.ones((3, 5, 1))])
    assert t.ranks == (3,)
    assert tt_rank_numerical(t) == (1,)


# ---------------------------------------------------------------- orthogonal forms


@st.composite
def _any_chains(draw):
    """A TT with d in {2, 3, 5}, modes of size 1-4 and declared ranks 1-5.

    Ranks above n_k * r_{k-1} make the forms' ranks shrink; a duplicated
    mode slice or rank slice makes a core, and the unfoldings through it,
    rank deficient.
    """
    d = draw(st.sampled_from((2, 3, 5)))
    shape = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    ranks = [1] + draw(st.lists(st.integers(1, 5), min_size=d - 1, max_size=d - 1)) + [1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cores = [rng.standard_normal((ranks[k], shape[k], ranks[k + 1])) for k in range(d)]
    k = draw(st.integers(0, d - 1))
    axis = draw(st.sampled_from((None, 1, 2)))
    if axis is not None and cores[k].shape[axis] >= 2:
        src = [slice(None)] * 3
        dst = [slice(None)] * 3
        src[axis], dst[axis] = 0, 1
        cores[k][tuple(dst)] = cores[k][tuple(src)]
    return TTTensor(cores), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_any_chains())
def test_orthogonal_forms_and_the_svds_they_give(case):
    t, seed = case
    X = to_dense(t)
    scale = np.abs(X).max()
    (A, S), (B, T) = left_orthogonal_form(t), right_orthogonal_form(t)
    assert left_orthogonal_form(t)[0] is A and right_orthogonal_form(t)[0] is B  # cached
    assert np.abs(to_dense(A) - X).max() <= 1e-13 * scale
    assert np.abs(to_dense(B) - X).max() <= 1e-13 * scale
    for k in range(t.d - 1):
        left = A.cores[k].reshape(-1, A.ranks[k], order="F")
        assert np.abs(left.T @ left - np.eye(A.ranks[k])).max() <= 1e-14
        right = B.cores[k + 1].reshape(B.ranks[k], -1)
        assert np.abs(right @ right.T - np.eye(B.ranks[k])).max() <= 1e-14
    rng = np.random.default_rng(seed)
    for i in range(1, t.d):
        assert A.ranks[i - 1] <= t.ranks[i - 1] and B.ranks[i - 1] <= t.ranks[i - 1]
        L, R = left_interface(t, i), right_interface(t, i)
        assert rel_err(left_interface(A, i) @ S[i - 1], L) <= 1e-13
        assert rel_err(right_interface(B, i) @ T[i - 1], R) <= 1e-13
        unf = dense_unfolding(X, i)
        s_struct, s_dense = unfolding_svd(t, i), thin_svd(unf)
        assert s_struct.rank == s_dense.rank
        assert rel_err(s_struct.sigma, s_dense.sigma) <= 1e-12
        assert rel_err(s_struct.reconstruct(), unf) <= 1e-12
        P, Q = unf.shape
        rows = IndexSet(rng.choice(P, rng.integers(1, P + 1), replace=False) + 1, P)
        cols = IndexSet(rng.choice(Q, rng.integers(1, Q + 1), replace=False) + 1, Q)
        block = column_submatrix(t, i, rows, cols)
        b_struct, b_dense = submatrix_svd(t, i, rows, cols), thin_svd(block)
        assert b_struct.rank == b_dense.rank
        assert rel_err(b_struct.sigma, b_dense.sigma) <= 1e-12
        assert rel_err(b_struct.reconstruct(), block) <= 1e-12
    zeroed = list(t.cores)
    zeroed[seed % t.d] = np.zeros_like(zeroed[seed % t.d])
    z = TTTensor(zeroed)
    for i in range(1, t.d):
        with pytest.raises(RankZeroError):
            unfolding_svd(z, i)


def test_row_restrict_inherits_the_parents_right_form():
    t = make_tt("gaussian", (4, 3, 5, 2, 3), (2, 3, 3, 2), seed=31)
    B, T = right_orthogonal_form(t)
    I = IndexSet([1, 2, 5, 7, 11, 12], 12)
    for i in range(1, t.d):
        P = int(np.prod(t.shape[:i]))
        sub = row_restrict(t, i, IndexSet(I.zero_based()[I.zero_based() < P] + 1, P))
        B_sub, T_sub = right_orthogonal_form(sub)
        assert B_sub.cores[1] is B.cores[i]  # shared, not recomputed
        B_new, T_new = right_orthogonal_form(TTTensor(sub.cores))
        assert len(B_sub.cores) == len(B_new.cores) and len(T_sub) == len(T_new)
        for got, want in zip(B_sub.cores + T_sub, B_new.cores + T_new):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "shape, ranks",
    [((20,) * 4, (2, 3, 2)), ((10,) * 6, (2, 3, 4, 3, 2)), ((100,) * 4, (2, 3, 2))],
    ids=["desk", "deep", "paper"],
)
def test_one_left_step_carries_sampled_rows_into_the_next_interface(kind, shape, ranks):
    # the interface chain and the row sweeps take the same step, so rows I
    # of L_i carried through core i+1 are bit for bit the rows of L_{i+1}
    # that I extended by mode i+1 selects
    t = make_tt(kind, shape, ranks, seed=61)
    A, _ = left_orthogonal_form(t)
    rng = np.random.default_rng(61)
    for i in range(1, t.d - 1):
        P = t.shape.prefix_size(i)
        I = sample_without_replacement(P, min(P, 7), rng)
        got = tt_mod._left_step(left_interface(A, i)[I.zero_based()], A.cores[i])
        want = left_interface(A, i + 1)[kron_extend(I, t.shape[i]).zero_based()]
        assert got.tobytes() == want.tobytes(), i


# ---------------------------------------------------------------- row_restrict


def test_row_restrict_full_is_identity():
    t = make_tt("uniform", (4, 3, 5), (2, 2), seed=9)
    sub = row_restrict(t, 1, IndexSet.full(4))
    assert np.allclose(to_dense(sub), to_dense(t), rtol=1e-12, atol=1e-14)


def test_row_restrict_single_row_is_a_slice():
    t = make_tt("gaussian", (4, 3, 5), (2, 2), seed=9)
    sub = row_restrict(t, 1, IndexSet([2], 4))
    assert sub.shape == (1, 3, 5)
    assert np.allclose(to_dense(sub)[0], to_dense(t)[1], rtol=1e-12)


def test_row_restrict_matches_dense_rows():
    t = make_tt("gaussian", (4, 3, 5, 2), (2, 3, 2), seed=12)
    X = to_dense(t)
    I = IndexSet([1, 4, 7, 11], 12)
    sub = row_restrict(t, 2, I)
    assert sub.shape == (4, 5, 2)
    got = dense_unfolding(to_dense(sub), 1)
    want = dense_unfolding(X, 2)[I.zero_based(), :]
    assert rel_err(got, want) <= 1e-12


def test_row_restrict_preserves_entries():
    t = make_tt("gaussian", (4, 3, 5), (2, 2), seed=13)
    I = IndexSet([3, 7, 10], 12)  # rows of the 2nd unfolding
    sub = row_restrict(t, 2, I)
    for a, q in enumerate(I, start=1):
        j1 = (q - 1) % 4 + 1
        j2 = (q - 1) // 4 + 1
        assert linearize((j1, j2), (4, 3)) == q
        for j3 in range(1, 6):
            assert np.isclose(entry(sub, (a, j3)), entry(t, (j1, j2, j3)), rtol=1e-12)


def test_row_restrict_rejects_bad_sets():
    t = make_tt("gaussian", (4, 3, 5), (2, 2), seed=13)
    with pytest.raises(DomainError):
        row_restrict(t, 1, IndexSet([1], 5))  # wrong domain
    with pytest.raises(DomainError):
        row_restrict(t, 1, IndexSet([], 4))  # empty
    with pytest.raises(DomainError):
        row_restrict(t, 3, IndexSet([1], 60))  # position out of range


# ---------------------------------------------------------------- column_submatrix


def test_column_submatrix_full_equals_unfolding():
    t = make_tt("gaussian", (4, 3, 5), (2, 2), seed=14)
    X = to_dense(t)
    for i in (1, 2):
        rows = IndexSet.full(dense_unfolding(X, i).shape[0])
        cols = IndexSet.full(dense_unfolding(X, i).shape[1])
        got = column_submatrix(t, i, rows, cols)
        assert rel_err(got, dense_unfolding(X, i)) <= 1e-12


def test_column_submatrix_hand_value(hand_tt):
    got = column_submatrix(hand_tt, 1, IndexSet([2], 2), IndexSet([1], 2))
    assert np.allclose(got, [[6.0]])


def test_column_submatrix_shape_and_errors(monkeypatch):
    t = make_tt("gaussian", (4, 3, 5), (2, 2), seed=15)
    got = column_submatrix(t, 2, IndexSet([1, 5, 9], 12), IndexSet([2, 4], 5))
    assert got.shape == (3, 2)
    with pytest.raises(DomainError):
        column_submatrix(t, 2, IndexSet([1], 11), IndexSet([2], 5))
    with pytest.raises(DomainError):
        column_submatrix(t, 2, IndexSet([1], 12), IndexSet([2], 6))
    with pytest.raises(DomainError):
        column_submatrix(t, 2, IndexSet([], 12), IndexSet([2], 5))
    monkeypatch.setattr(oracle_mod, "DENSE_CAP", 5)
    with pytest.raises(CapacityError):
        column_submatrix(t, 2, IndexSet([1, 5, 9], 12), IndexSet([2, 4], 5))


def test_submatrix_svd_matches_dense_block_svd():
    t = make_tt("gaussian", (4, 3, 5, 2), (2, 3, 2), seed=16)
    rows = IndexSet([1, 2, 7, 9, 11], 12)
    cols = IndexSet([1, 3, 4, 8], 10)
    block = column_submatrix(t, 2, rows, cols)
    s_struct = submatrix_svd(t, 2, rows, cols)
    s_dense = thin_svd(block)
    assert s_struct.rank == s_dense.rank
    assert rel_err(s_struct.sigma, s_dense.sigma) <= 1e-10
    assert rel_err(s_struct.reconstruct(), block) <= 1e-10


@pytest.mark.parametrize(
    "shape, ranks, sizes",
    [
        ((5, 4, 3, 6), (2, 3, 2), (3, 5, 4)),
        ((3, 4, 2, 3, 5), (1, 3, 3, 2), (2, 4, 4, 3)),
    ],
)
def test_factoring_never_writes_into_the_cores(shape, ranks, sizes):
    # the sweeps and the sampled-block SVDs factor their inputs in place;
    # each sweep starts from a view of the first or last core, which must
    # stay untouched (with r_1 = 1 the left view is F-contiguous too).  The
    # tensor is fresh, because generate() has built the forms of its own
    t = TTTensor(make_tt("gaussian", shape, ranks, seed=23).cores)
    before = [c.tobytes() for c in t.cores]
    # the forms are cached and read by everything below, so they must stay
    # untouched too; row_restrict hands its subtensor the parent's right form
    (A, S), (B, T) = left_orthogonal_form(t), right_orthogonal_form(t)
    assert [c.tobytes() for c in t.cores] == before
    forms = [a.tobytes() for a in A.cores + S + B.cores + T]
    tt_rank_numerical(t)
    for i in range(1, t.d):
        unfolding_svd(t, i)
    # every interface of both forms is in their memos now; the suites read
    # them all, and the subtensors of row_restrict share B's right memo
    def memo():
        return {
            (side, key): np.asarray(v).tobytes() for side in (0, 1) for key, v in (A, B)[side]._memo[side].items()
        }

    def interfaces(kept):
        return sum(key[0] == "Q" for _, key in kept)

    kept = memo()
    assert interfaces(kept) == 2 * (t.d - 1)
    I_sets, J_sets, _ = sample_valid_sets(t, sizes, sizes, seed=23)
    for i in range(1, t.d):
        submatrix_svd(t, i, I_sets[i - 1], J_sets[i - 1])
        row_restrict(t, i, I_sets[i - 1])
    check_row_sampling_bounds(t, I_sets)
    check_column_sampling_bounds(t, I_sets, J_sets)
    assert [c.tobytes() for c in t.cores] == before
    assert [a.tobytes() for a in A.cores + S + B.cores + T] == forms
    now = memo()
    assert {key: now[key] for key in kept} == kept
    assert interfaces(now) == 2 * (t.d - 1)


def test_submatrix_svd_rejects_bad_sets():
    t = make_tt("gaussian", (4, 3, 5), (2, 2), seed=16)
    with pytest.raises(DomainError):
        submatrix_svd(t, 2, IndexSet([1], 11), IndexSet([1], 5))
    with pytest.raises(DomainError):
        submatrix_svd(t, 2, IndexSet([1], 12), IndexSet([], 5))


# ---------------------------------------------------------------- tt_svd_from_dense


def test_tt_svd_from_dense_rank_one_matrix():
    t = tt_svd_from_dense(np.array([[3.0, 4.0], [6.0, 8.0]]))
    assert t.ranks == (1,)
    assert rel_err(to_dense(t), [[3.0, 4.0], [6.0, 8.0]]) <= 1e-12


def test_tt_svd_from_dense_full_rank_matrix():
    t = tt_svd_from_dense(np.eye(2))
    assert t.ranks == (2,)
    assert rel_err(to_dense(t), np.eye(2)) <= 1e-12


def test_tt_svd_from_dense_round_trip():
    t = make_tt("gaussian", (5, 4, 3, 4), (2, 3, 2), seed=17)
    X = to_dense(t)
    t2 = tt_svd_from_dense(X)
    assert t2.ranks == (2, 3, 2)
    assert tt_rank_numerical(t2) == (2, 3, 2)
    assert rel_err(to_dense(t2), X) <= 1e-10


def test_tt_svd_from_dense_rejects_bad_input(monkeypatch):
    with pytest.raises(RankZeroError):
        tt_svd_from_dense(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        tt_svd_from_dense(np.ones(4))
    with pytest.raises(NumericError):
        tt_svd_from_dense(np.array([[1.0, np.inf], [0.0, 1.0]]))
    monkeypatch.setattr(oracle_mod, "DENSE_CAP", 100)
    with pytest.raises(CapacityError):
        tt_svd_from_dense(np.ones((40, 40)))
