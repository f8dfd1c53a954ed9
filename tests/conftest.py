"""Shared fixtures and helpers for the test suite.

The random-tensor helpers all run through the package's own seeded
generation, so every test is reproducible from the literal seeds below.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ttinherit import (
    GeneratorSpec,
    IndexSet,
    TTTensor,
    generate,
    kron_extend,
    unfolding_svd,
)
import ttinherit.experiment as experiment_mod
from ttinherit.experiment import ExperimentConfig, _sample_level
from ttinherit.multiindex import Shape

# deterministic hypothesis runs: example generation is derived from the test
# body, not from a per-run random seed
settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def make_tt(kind: str, shape, ranks, seed: int, rank_tol: float = 1e-9) -> TTTensor:
    """A random TT tensor with verified numerical ranks."""
    return generate(GeneratorSpec(kind, Shape(shape), tuple(ranks), seed=seed), rank_tol)


def coherent(t: TTTensor) -> TTTensor:
    """``t`` with every mode slice of its first core zeroed but the last two,
    so only two rows of W_1 are nonzero; ranks up to 2 survive."""
    first = t.cores[0].copy()
    first[:, :-2, :] = 0.0
    return TTTensor((first,) + t.cores[1:])


def coherent_config() -> ExperimentConfig:
    """A geometry whose coherent tensor (see :func:`coherent`) has only
    rows 7 and 8 of W_1 nonzero: a level-1 draw of 2 of its 8 rows keeps
    rank once in 28 tries, so a budget of 2 redraws often runs out.  At
    this seed it runs out in trial 0 and not in trial 1."""
    return ExperimentConfig(
        shape=(8, 3, 3, 2),
        ranks=(2, 3, 2),
        generators=("gaussian",),
        trials=2,
        master_seed=4,
        sample_sizes_I=(2, 6, 4),
        sample_sizes_J=(2, 3, 2),
        max_resample=2,
        emit_svg=False,
    )


def serve_coherent_tensor(monkeypatch, cfg):
    """Make every trial of ``cfg`` run on one coherent tensor of its geometry."""
    t = coherent(make_tt("gaussian", cfg.shape, cfg.ranks, seed=71))
    monkeypatch.setattr(experiment_mod, "generate", lambda spec, rank_tol: t)


def rel_err(got, want) -> float:
    """Max entrywise deviation relative to the magnitude of the reference."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.abs(want).max()), 1e-300)
    return float(np.abs(got - want).max() / scale)


def sample_valid_sets(
    t: TTTensor, sizes_I, sizes_J, seed: int, rank_tol: float = 1e-9, redraws=None
):
    """Nested row sets and independent column sets whose factor rows keep rank.

    Uses the sampler of ``run_trial`` itself: level-i row sets are drawn
    inside the previous level's refinement and redrawn (up to 49 times)
    until the corresponding rows of the left singular factor have full
    column rank; the same holds for column sets against the right factor.
    A ``redraws`` list, when given, gets each level's redraw count appended.
    """
    shp = t.shape
    svds = [unfolding_svd(t, i, rank_tol) for i in range(1, t.d)]

    def draw(pool, size, factor, stream, level):
        cand, tries = _sample_level(pool, size, factor, rank_tol, seed, stream, level, 49)
        if redraws is not None:
            redraws.append(tries)
        return cand

    I_sets = []
    prev = IndexSet.full(1)
    for i in range(1, t.d):
        pool = kron_extend(prev, t.shape[i - 1])
        cand = draw(pool, sizes_I[i - 1], functools.partial(svds[i - 1].factor_rows, "W"), "rows", i)
        I_sets.append(cand)
        prev = cand

    J_sets = []
    for i in range(1, t.d):
        pool = IndexSet.full(shp.suffix_size(i))
        cand = draw(pool, sizes_J[i - 1], functools.partial(svds[i - 1].factor_rows, "V"), "cols", i)
        J_sets.append(cand)

    return I_sets, J_sets, svds


@pytest.fixture
def hand_tt() -> TTTensor:
    """The 2x2 worked example: cores [[1,2]] and [[3,4]], dense [[3,4],[6,8]]."""
    c1 = np.array([1.0, 2.0]).reshape(1, 2, 1)
    c2 = np.array([3.0, 4.0]).reshape(1, 2, 1)
    return TTTensor([c1, c2])


@pytest.fixture
def ones_tt() -> TTTensor:
    """All-ones rank-(1,1,1) tensor of shape (2,2,2,2)."""
    core = np.ones((1, 2, 1))
    return TTTensor([core, core, core, core])
