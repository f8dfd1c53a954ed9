"""Incoherence, conditioning, and their inheritance under fiber-wise sampling.

For an m x n rank-r matrix with compact SVD ``W diag(sigma) V^T`` we use the
tightest incoherence constants

    mu1 = (m / r) * max_row ||W||^2,      mu2 = (n / r) * max_row ||V||^2,

both in [1, m/r] resp. [1, n/r], and the condition number
``kappa = sigma_max / sigma_min`` of the retained spectrum.

When rows of an unfolding are kept (a fiber-wise subtensor) or columns of an
unfolding are kept (a column submatrix), these quantities degrade in a
controlled way.  The controlling factors are

    alpha_it  — row-sampling factor of the k-th unfolding (k = i + t - 1),
                sqrt(|I_i| / prod(n_1..n_i)) * ||W_k(rows, :)^+||_2 with
                rows = I_i extended by the full modes i+1..k,
    alpha_i   — the t = 2 flavor used for column submatrices, alpha_{i-1,2}
                (alpha_1 = 1 by convention),
    beta_i    — the column-side analogue from V_i(J_i, :).

``check_row_sampling_bounds`` / ``check_column_sampling_bounds`` compute
each factor, each sampled object's SVD and the right-hand sides of every
inheritance inequality these factors enter; ``_record`` alone turns them
into :class:`InheritanceRecord` rows of :class:`BoundCheck` and decides
the rank hypothesis, and each verdict is derived from what a record holds.
With exact arithmetic every inequality is a proven fact, so a violation
(beyond a tiny multiplicative slack) means a bug, not bad luck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, RankZeroError, SingularityError
from .linalg import (
    DEFAULT_RANK_TOL,
    ThinSVD,
    condition_number,
    pinv_spectral_norm,
)
from .multiindex import IndexSet, _integer, kron_extend
from .tt import (
    TTTensor,
    _check_index_set,
    _check_position,
    _is_left_interface,
    _row_sweep,
    row_restrict,
    submatrix_svd,
    tt_rank_numerical,
    unfolding_svd,
)

__all__ = [
    "ALPHA_1",
    "BOUND_SLACK",
    "IncoherencePair",
    "UnfoldingReport",
    "BoundCheck",
    "InheritanceRecord",
    "RankPreservationReport",
    "incoherence",
    "unfolding_report",
    "tt_incoherence",
    "alpha_it",
    "alpha_i",
    "beta_i",
    "check_rank_preservation",
    "row_sampling_factors",
    "check_row_sampling_bounds",
    "check_column_sampling_bounds",
]

ALPHA_1 = 1.0  # convention: the i=1 column-submatrix bound needs no row factor

# multiplicative slack for inequality checks; both sides pass through SVDs
# with ~1e-10 relative error
BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class IncoherencePair:
    """Tightest row/column incoherence constants of a matrix."""

    mu1: float
    mu2: float

    def __post_init__(self):
        if not (np.isfinite(self.mu1) and np.isfinite(self.mu2)):
            raise DomainError("incoherence constants must be finite")
        # tight constants are >= 1 up to roundoff
        if self.mu1 < 1.0 - 1e-9 or self.mu2 < 1.0 - 1e-9:
            raise DomainError(f"incoherence constants below 1: {self.mu1}, {self.mu2}")


@dataclass(frozen=True)
class UnfoldingReport:
    """Incoherence and conditioning of one unfolding, with the compact SVD
    they were read from; its ``rank`` and spectrum ``sigma`` are the SVD's
    own (:class:`~ttinherit.linalg.ThinSVD` refuses rank 0)."""

    i: int
    mu: IncoherencePair
    kappa: float
    svd: ThinSVD = field(repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa < 1.0 - 1e-12:
            raise DomainError(f"condition number must be finite and >= 1, got {self.kappa}")

    @property
    def rank(self) -> int:
        return self.svd.rank

    @property
    def sigma(self) -> np.ndarray:
        return self.svd.sigma

    @property
    def mu1(self) -> float:
        return self.mu.mu1

    @property
    def mu2(self) -> float:
        return self.mu.mu2


@dataclass(frozen=True)
class BoundCheck:
    """One inequality of the paper, ``lhs <= rhs``, judged with the
    multiplicative slack :data:`BOUND_SLACK`."""

    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + BOUND_SLACK)


@dataclass(frozen=True)
class InheritanceRecord:
    """A sampling factor plus the inequalities it certifies.

    ``kind`` is "alpha_it" (row suite) or "beta_i" (column suite, one
    record per block, alpha_i entering its checks); ``t`` is None except for
    alpha_it.  ``kappa``/``mu1``/``mu2``/``rank`` are the parent-unfolding
    quantities the right-hand sides are built from.  ``checks`` is empty
    exactly when the rank hypothesis failed (the sampled object kept less
    than the parent's rank, or its SVD could not be taken); ``value`` is
    then still the factor, NaN only where it, or the alpha_i it needs,
    could not be read.
    """

    kind: str
    i: int
    t: int | None
    value: float
    kappa: float
    mu1: float
    mu2: float
    rank: int
    checks: tuple[BoundCheck, ...]

    @property
    def rank_hypothesis_ok(self) -> bool:
        return bool(self.checks)

    @property
    def satisfied(self) -> bool:
        return self.rank_hypothesis_ok and all(c.satisfied for c in self.checks)

    @property
    def label(self) -> str:
        if self.kind == "alpha_it":
            return f"alpha_{self.i}_{self.t}"
        return f"beta_{self.i}"


def incoherence(svd: ThinSVD) -> IncoherencePair:
    """Tightest incoherence constants from a compact SVD of an m x n matrix,
    m x n read from ``svd.shape``.

    ``ThinSVD`` has already checked its factors, so each factor's largest
    row norm is that of its orthonormal basis wherever the rotation is
    square: an SVD from :func:`~ttinherit.tt.unfolding_svd` reads it from
    the form's memo, made once per interface (a pass over a boundary core,
    quadratic forms over the interface one mode shorter past it, within
    1e-14 relative of a pass), so the parent's V_k and V_t of a
    row-sampled subtensor give the same float.  Under a
    rotation that is not square (numerical rank below the form's rank) the
    basis is read rotated, block by block
    (:data:`~ttinherit.linalg.ROW_BLOCK` rows).  No factor is multiplied
    out and no temporary as tall as it is made.
    """
    m, n = svd.shape
    r = svd.rank
    mu1 = (m / r) * svd.factor_max_row_norm("W") ** 2
    mu2 = (n / r) * svd.factor_max_row_norm("V") ** 2
    return IncoherencePair(mu1, mu2)


def unfolding_report(i: int, svd: ThinSVD) -> UnfoldingReport:
    """Package rank/incoherence/conditioning of one unfolding SVD."""
    return UnfoldingReport(i=i, mu=incoherence(svd), kappa=condition_number(svd), svd=svd)


def tt_incoherence(t: TTTensor, rank_tol: float = DEFAULT_RANK_TOL) -> list[UnfoldingReport]:
    """Reports for every unfolding i = 1..d-1 via the structured SVD path."""
    return [unfolding_report(i, unfolding_svd(t, i, rank_tol)) for i in range(1, t.d)]


def _scaled_pinv_norm(kept: IndexSet, block: np.ndarray, rank_tol: float) -> float:
    """sqrt(|kept| / N) * ||block^+||_2 with N = ``kept.domain``, checked by
    the caller: the one formula of every sampling factor."""
    return float(np.sqrt(len(kept) / kept.domain) * pinv_spectral_norm(block, rank_tol))


def alpha_it(
    t: TTTensor,
    I_i: IndexSet,
    i: int,
    t_off: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> float:
    """Row-sampling factor of unfolding k = i + t_off - 1 for level-i rows I_i.

    Equals sqrt(|I_i| / prod(n_1..n_i)) times the spectral norm of the
    pseudoinverse of W_k restricted to the rows induced by I_i (I_i
    extended by every value of modes i+1..k), W_k from
    ``unfolding_svd(t, k)``.  It is 1 under full sampling and
    >= sqrt(|I_i| / prod(n_1..n_i)) always.  Those rows' singular values
    come from a sweep of small QRs from left_interface(A, i)[I_i] over the
    left form's cores i+1..k (:func:`~ttinherit.tt._row_sweep`), so no row
    of W_k is read.
    """
    k = i + _integer(t_off) - 1
    i, k = _check_position(t, i), _check_position(t, k)
    if k < i:
        raise DomainError(f"need level i <= unfolding k, got i={i}, k={k}")
    _check_index_set(t, i, I_i, True, "I_i")
    block = _row_sweep(t, I_i, i, {k: unfolding_svd(t, k, rank_tol)})[k]
    return _scaled_pinv_norm(I_i, block, rank_tol)


def alpha_i(
    t: TTTensor,
    I_prev: IndexSet | None,
    i: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> float:
    """Row factor entering the column-submatrix bounds at level i.

    For i >= 2 this is sqrt(|I_{i-1}| / prod(n_1..n_{i-1})) times the
    pseudoinverse norm of W_i restricted to rows I_{i-1} extended by the
    full mode n_i, which is alpha_{i-1,2}, from the same sweep of small
    QRs (:func:`alpha_it`); for i = 1 it is the constant
    :data:`ALPHA_1` = 1 (the level-1 bound has no row factor) and
    ``I_prev`` is ignored.
    """
    i = _check_position(t, i)
    if i == 1:
        return ALPHA_1
    if I_prev is None:
        raise DomainError("I_prev is required for i >= 2")
    return alpha_it(t, I_prev, i - 1, 2, rank_tol)


def _beta(J_i: IndexSet, svd: ThinSVD, rank_tol: float) -> float:
    """beta_i of columns ``J_i``, checked by the caller, from ``svd``, the
    :func:`unfolding_svd` of unfolding i: its rows J_i of V_i, read as
    they are."""
    return _scaled_pinv_norm(J_i, svd.factor_rows("V", J_i.zero_based()), rank_tol)


def beta_i(
    t: TTTensor,
    J_i: IndexSet,
    i: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> float:
    """Column-sampling factor at level i.

    sqrt(|J_i| / prod(n_{i+1}..n_d)) times the pseudoinverse norm of the
    right singular factor V_i restricted to rows J_i; 1 under full sampling.
    """
    i = _check_position(t, i)
    _check_index_set(t, i, J_i, False, "J_i")
    return _beta(J_i, unfolding_svd(t, i, rank_tol), rank_tol)


@dataclass(frozen=True)
class RankPreservationReport:
    """Outcome of the first-mode rank-preservation check."""

    hypothesis_ok: bool
    expected: tuple[int, ...]
    observed: tuple[int, ...] | None
    passed: bool


def check_rank_preservation(
    t: TTTensor, I: IndexSet, rank_tol: float = DEFAULT_RANK_TOL
) -> RankPreservationReport:
    """Keep rows I of the first unfolding; check the whole rank tuple survives.

    Hypothesis: the kept rows of the left singular factor W_1 have full
    column rank (:func:`pinv_spectral_norm`), so they span the column space
    of unfolding 1.  When it holds, the subtensor's numerical rank tuple
    must equal the original's; when it fails, the report says so and
    ``passed`` is False without raising, an empty I included.  An I whose
    domain is not n_1 raises :class:`DomainError` before any work.
    """
    if I.domain != t.shape[0]:
        raise DomainError(f"I domain {I.domain} != n_1 = {t.shape[0]}")
    svds = [unfolding_svd(t, i, rank_tol) for i in range(1, t.d)]
    expected = tuple(svd.rank for svd in svds)
    try:
        pinv_spectral_norm(svds[0].factor_rows("W", I.zero_based()), rank_tol)
    except (SingularityError, DomainError):  # DomainError: I is empty
        return RankPreservationReport(False, expected, None, False)
    observed = tt_rank_numerical(row_restrict(t, 1, I), rank_tol)
    return RankPreservationReport(True, expected, observed, observed == expected)


def _record(
    kind: str,
    i: int,
    t: int | None,
    value: float,
    parent: UnfoldingReport,
    sampled: ThinSVD | None,
    rhs: tuple[float, float, float],
) -> InheritanceRecord:
    """The one maker of records and checks, and the one judge of the rank
    hypothesis: it holds when ``sampled``, the compact SVD of the sampled
    object (None where it could not be taken), has the parent's rank.  Then
    its mu1, mu2 and kappa are checked against ``rhs``; otherwise the record
    has no checks."""
    checks = ()
    if sampled is not None and sampled.rank == parent.rank:
        mu = incoherence(sampled)
        lhs = (mu.mu1, mu.mu2, condition_number(sampled))
        checks = tuple(BoundCheck(*c) for c in zip(("mu1", "mu2", "kappa"), lhs, map(float, rhs)))
    return InheritanceRecord(
        kind=kind, i=i, t=t, value=value, checks=checks,
        kappa=parent.kappa, mu1=parent.mu1, mu2=parent.mu2, rank=parent.rank,
    )


def _refines(I_i: IndexSet, I_prev: IndexSet) -> bool:
    """Whether ``I_i`` lies in ``I_prev`` extended by a full mode, given
    that the domain of ``I_i`` is the domain P of ``I_prev`` times the mode size.

    Row q of the refinement has the leading part ((q - 1) mod P) + 1, so
    each leading part is looked up in ``I_prev`` by binary search; the
    extended set itself is never built.
    """
    lead = (I_i.indices - 1) % I_prev.domain + 1
    pos = np.searchsorted(I_prev.indices, lead)
    # a lead above every entry of I_prev lands past the end; clipping it to
    # the last entry, which is smaller, makes it a miss
    return bool((I_prev.indices.take(pos, mode="clip") == lead).all())


def validate_nested(t: TTTensor, nested: Sequence[IndexSet]) -> None:
    """Require I_i to refine I_{i-1}: each I_i inside I_{i-1} extended by mode i.

    Each row of I_i is checked by looking its leading part up in I_{i-1}
    (:func:`_refines`), with I_0 = {1}; no extended set is built.
    """
    if len(nested) != t.d - 1:
        raise DomainError(f"need {t.d - 1} row index sets, got {len(nested)}")
    I_prev = IndexSet.full(1)
    for i, I_i in enumerate(nested, start=1):
        _check_index_set(t, i, I_i, True, f"I_{i}")
        if not _refines(I_i, I_prev):
            raise DomainError(f"I_{i} is not contained in I_{i - 1} extended by mode {i}")
        I_prev = I_i


def _check_shared(
    t: TTTensor,
    parents: Sequence[UnfoldingReport] | None,
    alphas: Sequence[Sequence[float]] | None = None,
) -> None:
    """Refuse ``parents`` unless it holds the reports of unfoldings 1..d-1
    of ``t`` in order, each W in the basis its left form keeps, and
    ``alphas`` unless it holds d - 1 levels, level i of d - i values; None
    passes, as it means "compute them here"."""
    if parents is not None and [p.i for p in parents] != list(range(1, t.d)):
        raise DomainError(f"parents must report unfoldings 1..{t.d - 1} in order")
    for p in parents or ():
        if not _is_left_interface(t, p.i, p.svd.basis("W")):
            raise DomainError(f"parents[{p.i - 1}] is not unfolding_svd of this tensor at {p.i}")
    if alphas is not None and [len(level) for level in alphas] != list(range(t.d - 1, 0, -1)):
        raise DomainError(f"alphas must hold {t.d - 1} levels, level i of {t.d} - i values")


def row_sampling_factors(
    t: TTTensor,
    row_sets: Sequence[IndexSet],
    rank_tol: float = DEFAULT_RANK_TOL,
    parents: Sequence[UnfoldingReport] | None = None,
) -> list[tuple[float, ...]]:
    """alpha_{i,t} of rows ``row_sets[i - 1]`` for every level i and
    t = 1..d-i, as ``factors[i - 1][t - 1]``, from one sweep of small QRs
    per level.

    Each level's sweep walks the left form's cores i+1..d-1 once and gives
    every unfolding k >= i its rows (:func:`~ttinherit.tt._row_sweep`), so
    each value is bitwise the :func:`alpha_it` of the same rows, and the
    sets are checked as :func:`alpha_it` checks them (nesting is the bound
    suites' concern).  Where :func:`alpha_it` raises
    :class:`SingularityError` (the rows are not of full column rank) the
    value is NaN.  alpha_i of level i >= 2 is ``factors[i - 2][1]``.
    ``parents`` is as in :func:`check_row_sampling_bounds`.
    """
    if len(row_sets) != t.d - 1:
        raise DomainError(f"need {t.d - 1} row index sets, got {len(row_sets)}")
    for i, I_i in enumerate(row_sets, start=1):
        _check_index_set(t, i, I_i, True, f"I_{i}")
    _check_shared(t, parents)
    if parents is None:
        parents = tt_incoherence(t, rank_tol)
    factors = []
    for i, I_i in enumerate(row_sets, start=1):
        blocks = _row_sweep(t, I_i, i, {k: parents[k - 1].svd for k in range(i, t.d)})
        level = []
        for k in range(i, t.d):
            try:
                level.append(_scaled_pinv_norm(I_i, blocks[k], rank_tol))
            except SingularityError:
                level.append(float("nan"))
        factors.append(tuple(level))
    return factors


def check_row_sampling_bounds(
    t: TTTensor,
    nested: Sequence[IndexSet],
    rank_tol: float = DEFAULT_RANK_TOL,
    parents: Sequence[UnfoldingReport] | None = None,
    alphas: Sequence[Sequence[float]] | None = None,
) -> list[InheritanceRecord]:
    """Verify the inheritance inequalities for every row-sampled subtensor.

    For each level i, the subtensor keeping rows I_i of unfolding i is formed
    and each of its unfoldings t is compared against the parent unfolding
    k = i + t - 1 of the full tensor:

        mu1(sub) <= alpha_it^2 * kappa^2 * mu1
        mu2(sub) <= mu2                      (no amplification, exact)
        kappa(sub) <= alpha_it * sqrt(mu1 * r_k) * kappa

    Records are ordered by (i, t), each built by :func:`_record`.  A
    subtensor unfolding whose SVD raises or loses rank fails its rank
    hypothesis: its record keeps alpha_it and has no checks, and nothing
    raises.  ``parents``, the
    :func:`tt_incoherence` reports of ``t``, and ``alphas``, the
    :func:`row_sampling_factors` of ``t`` and ``nested``, may be passed to
    share them with the column suite; either is refused with
    :class:`DomainError` unless it has one entry per unfolding or level,
    and ``parents`` also unless they are the reports of ``t`` itself.
    """
    validate_nested(t, nested)
    _check_shared(t, parents, alphas)
    if parents is None:
        parents = tt_incoherence(t, rank_tol)
    if alphas is None:
        alphas = row_sampling_factors(t, nested, rank_tol, parents)
    records = []
    for i in range(1, t.d):
        sub = row_restrict(t, i, nested[i - 1])
        for t_off in range(1, t.d - i + 1):
            parent = parents[i + t_off - 2]  # unfolding k = i + t_off - 1
            a, sampled = alphas[i - 1][t_off - 1], None
            if not np.isnan(a):
                try:
                    sampled = unfolding_svd(sub, t_off, rank_tol)
                except (SingularityError, RankZeroError):
                    pass
            kap, mu1, mu2, r = parent.kappa, parent.mu1, parent.mu2, parent.rank
            rhs = (a**2 * kap**2 * mu1, mu2, a * np.sqrt(mu1 * r) * kap)
            records.append(_record("alpha_it", i, t_off, a, parent, sampled, rhs))
    return records


def check_column_sampling_bounds(
    t: TTTensor,
    nested: Sequence[IndexSet],
    J_sets: Sequence[IndexSet],
    rank_tol: float = DEFAULT_RANK_TOL,
    parents: Sequence[UnfoldingReport] | None = None,
    alphas: Sequence[Sequence[float]] | None = None,
) -> list[InheritanceRecord]:
    """Verify the inheritance inequalities for every column submatrix.

    At each level i the block keeps rows I_{i-1} (extended by the full mode
    n_i) and columns J_i of unfolding i; its SVD is computed structurally
    (the block itself is never materialized).  Level 1 has no row factor:

        i = 1:  mu1(C) <= mu1 (exact),  mu2(C) <= beta^2 kappa^2 mu2,
                kappa(C) <= beta sqrt(mu2 r) kappa
        i >= 2: mu1(C) <= alpha^2 beta^2 kappa^2 r mu1 mu2,
                mu2(C) <= beta^2 kappa^2 mu2,
                kappa(C) <= alpha beta sqrt(mu1 mu2) r kappa

    Returns one "beta_i" record per level, d - 1 in all, carrying beta_i
    and the three inequalities (:func:`_record`).  alpha_i = alpha_{i-1,2}
    has no record: it is read from ``alphas``, and where it is NaN the block
    fails its rank hypothesis and beta_i is not read (NaN).  A block whose
    SVD raises or loses rank fails it too and keeps beta_i; a failed
    record has no checks.  ``parents`` and ``alphas`` are as in
    :func:`check_row_sampling_bounds`.
    """
    validate_nested(t, nested)
    if len(J_sets) != t.d - 1:
        raise DomainError(f"need {t.d - 1} column index sets, got {len(J_sets)}")
    for i, J in enumerate(J_sets, start=1):
        _check_index_set(t, i, J, False, f"J_{i}")
    _check_shared(t, parents, alphas)
    if parents is None:
        parents = tt_incoherence(t, rank_tol)
    if alphas is None:
        alphas = row_sampling_factors(t, nested, rank_tol, parents)
    records = []
    for i, J in enumerate(J_sets, start=1):
        parent = parents[i - 1]
        I_prev = nested[i - 2] if i >= 2 else IndexSet.full(1)
        rows = kron_extend(I_prev, t.shape[i - 1])
        a = ALPHA_1 if i == 1 else alphas[i - 2][1]
        b, sampled = float("nan"), None
        if not np.isnan(a):
            try:
                b = _beta(J, parent.svd, rank_tol)
                sampled = submatrix_svd(t, i, rows, J, rank_tol)
            except (SingularityError, RankZeroError):
                pass
        kap, mu1, mu2, r = parent.kappa, parent.mu1, parent.mu2, parent.rank
        if i == 1:
            rhs = (mu1, b**2 * kap**2 * mu2, b * np.sqrt(mu2 * r) * kap)
        else:
            rhs = (
                a**2 * b**2 * kap**2 * r * mu1 * mu2,
                b**2 * kap**2 * mu2,
                a * b * np.sqrt(mu1 * mu2) * r * kap,
            )
        records.append(_record("beta_i", i, None, b, parent, sampled, rhs))
    return records
