"""Metamorphic relations: checks of the structured path at sizes the dense
oracle cannot reach.

A 100^4 tensor has 10^8 entries, past ``oracle.DENSE_CAP``, so no dense
reference exists there.  Scaling one core by c scales the tensor by c, and
every quantity the bound suites read is invariant under that: mu and kappa
of each unfolding, the sampling factors (pseudoinverse norms of rows of
orthonormal factors), and so both sides of every inequality.  The same
index sets on the scaled tensor must therefore give the same numbers, up to
roundoff, and the same verdicts.
"""

import numpy as np
import pytest

from ttinherit import (
    KINDS,
    TTTensor,
    beta_i,
    check_column_sampling_bounds,
    check_row_sampling_bounds,
    paper_preset,
    row_sampling_factors,
    tt_incoherence,
)

from conftest import make_tt, sample_valid_sets

SCALE = 3.7e5
REL_TOL = 1e-13


def worst_change(got, want) -> float:
    """The largest change of any entry relative to that entry."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.isfinite(want).all() and (want != 0).all()
    return float((np.abs(got - want) / np.abs(want)).max())


def suite_numbers(x: TTTensor, I_sets, J_sets):
    """(ranks, numbers, verdicts) of both bound suites on ``x``: every mu1,
    mu2 and kappa of the unfoldings, every alpha and beta, and every
    record's value and both sides of each of its checks."""
    parents = tt_incoherence(x)
    alphas = row_sampling_factors(x, I_sets, parents=parents)
    records = check_row_sampling_bounds(x, I_sets, parents=parents, alphas=alphas)
    records += check_column_sampling_bounds(x, I_sets, J_sets, parents=parents, alphas=alphas)
    numbers = [v for p in parents for v in (p.mu1, p.mu2, p.kappa)]
    numbers += [a for level in alphas for a in level]
    numbers += [beta_i(x, J, i) for i, J in enumerate(J_sets, start=1)]
    numbers += [v for rec in records for c in rec.checks for v in (c.lhs, c.rhs)]
    numbers += [rec.value for rec in records]
    ranks = [p.rank for p in parents] + [rec.rank for rec in records]
    verdicts = [(rec.label, len(rec.checks), rec.satisfied) for rec in records]
    return ranks, numbers, verdicts


@pytest.mark.parametrize("kind", KINDS)
def test_scaling_a_core_changes_nothing_at_paper_size(kind):
    cfg = paper_preset()
    t = make_tt(kind, cfg.shape, cfg.ranks, seed=7)
    assert t.shape == (100, 100, 100, 100) and t.ranks == (2, 3, 2)
    scaled = TTTensor([t.cores[0], SCALE * t.cores[1], *t.cores[2:]])
    I_sets, J_sets, _ = sample_valid_sets(t, cfg.sample_sizes_I, cfg.sample_sizes_J, seed=7)
    ranks, numbers, verdicts = suite_numbers(t, I_sets, J_sets)
    s_ranks, s_numbers, s_verdicts = suite_numbers(scaled, I_sets, J_sets)
    assert s_ranks == ranks
    assert s_verdicts == verdicts
    assert all(n == 3 and ok for _, n, ok in verdicts)
    assert worst_change(s_numbers, numbers) <= REL_TOL
