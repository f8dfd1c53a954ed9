"""Random TT generation: entry schemes, determinism, rank guarantees."""

import numpy as np
import pytest

from ttinherit import (
    ConfigError,
    GenerationError,
    GeneratorSpec,
    KINDS,
    TTTensor,
    generate,
    tt_rank_numerical,
)

from conftest import make_tt

# ---------------------------------------------------------------- spec validation


def test_spec_normalizes_fields():
    spec = GeneratorSpec("gaussian", (4, 4, 4), [2, 2], seed=7)
    assert tuple(spec.shape) == (4, 4, 4)
    assert spec.ranks == (2, 2)
    assert spec.seed == 7 and spec.max_regen == 10


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        GeneratorSpec("poisson", (4, 4), (2,), seed=0)


def test_spec_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        GeneratorSpec("gaussian", (4,), (), seed=0)  # fewer than 2 modes
    with pytest.raises(ConfigError):
        GeneratorSpec("gaussian", (4, 4), (2, 2), seed=0)  # wrong rank count
    with pytest.raises(ConfigError):
        GeneratorSpec("gaussian", (4, 4), (0,), seed=0)  # nonpositive rank


def test_spec_rejects_unreachable_ranks():
    # a junction rank can never exceed either neighboring unfolding bound
    with pytest.raises(ConfigError):
        GeneratorSpec("gaussian", (2, 2, 2), (3, 1), seed=0)  # capped at min(2, 1*2)=2
    with pytest.raises(ConfigError):
        GeneratorSpec("gaussian", (4, 4), (5,), seed=0)
    GeneratorSpec("gaussian", (2, 2, 2), (2, 2), seed=0)  # feasible: fine


def test_spec_rejects_bad_seed_and_retries():
    with pytest.raises(ConfigError):
        GeneratorSpec("gaussian", (4, 4), (2,), seed=-1)
    with pytest.raises(ConfigError):
        GeneratorSpec("gaussian", (4, 4), (2,), seed=0, max_regen=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("ranks", (2.7, 2)),
        ("ranks", (2, True)),
        ("seed", 1.9),
        ("seed", True),
        ("seed", "1"),
        ("max_regen", 2.5),
        ("max_regen", False),
    ],
)
def test_spec_refuses_integer_fields_that_are_not_integers(field, value):
    fields = {"ranks": (2, 2), "seed": 1, "max_regen": 2, field: value}
    with pytest.raises(ConfigError, match="expected an integer"):
        GeneratorSpec("gaussian", (4, 4, 4), **fields)


def test_spec_takes_integral_floats_and_numpy_integers():
    spec = GeneratorSpec("gaussian", (4, 4, 4), (2.0, np.int64(2)), seed=np.uint64(1), max_regen=2.0)
    assert spec.ranks == (2, 2) and spec.seed == 1 and spec.max_regen == 2
    assert all(type(v) is int for v in (*spec.ranks, spec.seed, spec.max_regen))


# ---------------------------------------------------------------- generation


def test_generate_full_scale_has_declared_ranks():
    t = make_tt("gaussian", (100, 100, 100, 100), (2, 3, 2), seed=42)
    assert t.shape == (100, 100, 100, 100)
    assert t.ranks == (2, 3, 2)
    assert tt_rank_numerical(t) == (2, 3, 2)


def test_generate_all_kinds_pass_validation():
    for kind in KINDS:
        t = make_tt(kind, (6, 6, 6), (2, 2), seed=11)
        assert TTTensor(t.cores).ranks == (2, 2)
        assert tt_rank_numerical(t) == (2, 2)


def test_generate_hadamard_entries_are_signs():
    t = make_tt("hadamard", (10, 10, 10), (2, 2), seed=12)
    for core in t.cores:
        assert np.all(np.isin(core, (-1.0, 1.0)))


def test_generate_uniform_entries_in_unit_interval():
    t = make_tt("uniform", (10, 10, 10), (2, 2), seed=13)
    for core in t.cores:
        assert np.all((core >= 0.0) & (core <= 1.0))


def test_generate_same_seed_is_bit_identical():
    a = make_tt("gaussian", (8, 8, 8), (2, 2), seed=14)
    b = make_tt("gaussian", (8, 8, 8), (2, 2), seed=14)
    c = make_tt("gaussian", (8, 8, 8), (2, 2), seed=15)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)
    assert not all(np.array_equal(x, y) for x, y in zip(a.cores, c.cores))


def test_generate_kinds_use_distinct_streams():
    a = make_tt("gaussian", (8, 8), (2,), seed=16)
    b = make_tt("uniform", (8, 8), (2,), seed=16)
    assert not np.array_equal(a.cores[0], b.cores[0])


# ---------------------------------------------------------------- entry statistics


def _pooled_entries(kind: str, seed: int) -> np.ndarray:
    # a wide two-mode draw gives > 10^5 i.i.d. entries in two cores
    t = make_tt(kind, (400, 400), (150,), seed=seed)
    return np.concatenate([c.ravel() for c in t.cores])


def test_gaussian_entry_statistics():
    x = _pooled_entries("gaussian", 17)
    n = x.size
    assert n >= 100_000
    assert abs(x.mean()) <= 5.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) <= 0.05


def test_hadamard_entry_statistics():
    x = _pooled_entries("hadamard", 18)
    n = x.size
    assert np.all(np.isin(x, (-1.0, 1.0)))
    plus_fraction = (x > 0).mean()
    se = 0.5 / np.sqrt(n)
    assert abs(plus_fraction - 0.5) <= 5 * se


def test_uniform_entry_statistics():
    x = _pooled_entries("uniform", 19)
    n = x.size
    assert np.all((x >= 0.0) & (x <= 1.0))
    se = np.sqrt(1.0 / 12.0) / np.sqrt(n)
    assert abs(x.mean() - 0.5) <= 5 * se


# ---------------------------------------------------------------- regeneration


def _first_degenerate_seed() -> int:
    # 2x2 sign matrices are singular with probability 1/2, so some small seed
    # must produce a rank-deficient first draw
    for seed in range(200):
        spec = GeneratorSpec("hadamard", (2, 2), (2,), seed=seed, max_regen=0)
        try:
            generate(spec)
        except GenerationError:
            return seed
    raise AssertionError("no degenerate first draw among 200 seeds")


def test_generate_exhausted_retries_raise():
    seed = _first_degenerate_seed()
    with pytest.raises(GenerationError):
        generate(GeneratorSpec("hadamard", (2, 2), (2,), seed=seed, max_regen=0))


def test_generate_retries_recover_the_declared_rank():
    seed = _first_degenerate_seed()
    t = generate(GeneratorSpec("hadamard", (2, 2), (2,), seed=seed, max_regen=10))
    assert tt_rank_numerical(t) == (2,)
