"""Random TT tensor generation under three core-entry schemes.

Cores are drawn independently with entries

* ``gaussian`` — standard normal,
* ``hadamard`` — +1 or -1 with equal probability,
* ``uniform``  — uniform on [0, 1],

in a fixed order (left rank fastest, then mode, then right rank, cores in
chain order) from a stream derived from ``GeneratorSpec.seed``, so one seed
always reproduces the same cores bit for bit.  A draw whose numerical unfolding
ranks fall short of the declared ranks is discarded and redrawn with a
fresh derived stream, up to ``max_regen`` retries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GenerationError, RankZeroError
from .linalg import DEFAULT_RANK_TOL
from .multiindex import Shape, _integer, derived_rng
from .tt import TTTensor, tt_rank_numerical

__all__ = ["KINDS", "GeneratorSpec", "generate"]

KINDS = ("gaussian", "hadamard", "uniform")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to draw: entry scheme, tensor geometry, seed, and retry budget."""

    kind: str
    shape: Shape
    ranks: tuple[int, ...]
    seed: int
    max_regen: int = 10

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}; choose from {KINDS}")
        shape = Shape(self.shape)
        object.__setattr__(self, "shape", shape)
        ranks = tuple(_integer(r, ConfigError) for r in self.ranks)
        d = len(shape)
        if d < 2:
            raise ConfigError("tensor must have at least 2 modes")
        if len(ranks) != d - 1:
            raise ConfigError(f"need {d - 1} ranks for {d} modes, got {len(ranks)}")
        if any(r < 1 for r in ranks):
            raise ConfigError(f"ranks must be >= 1, got {ranks}")
        bounds = (1,) + ranks + (1,)
        for i in range(1, d):
            # achievable rank at junction i is capped by both neighbors
            cap = min(bounds[i - 1] * shape[i - 1], bounds[i + 1] * shape[i])
            if ranks[i - 1] > cap:
                raise ConfigError(
                    f"rank r_{i}={ranks[i - 1]} unreachable: corresponding unfolding "
                    f"rank is capped at {cap}"
                )
        object.__setattr__(self, "ranks", ranks)
        seed = _integer(self.seed, ConfigError)
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)
        max_regen = _integer(self.max_regen, ConfigError)
        if max_regen < 0:
            raise ConfigError(f"max_regen must be >= 0, got {max_regen}")
        object.__setattr__(self, "max_regen", max_regen)


def _draw_core(rng: np.random.Generator, kind: str, dims: tuple[int, int, int]) -> np.ndarray:
    count = dims[0] * dims[1] * dims[2]
    if kind == "gaussian":
        flat = rng.standard_normal(count)
    elif kind == "hadamard":
        flat = rng.integers(0, 2, size=count).astype(np.float64) * 2.0 - 1.0
    else:  # uniform
        flat = rng.random(count)
    # fixed entry order: left rank fastest, then mode, then right rank
    return flat.reshape(dims, order="F")


def generate(spec: GeneratorSpec, rank_tol: float = DEFAULT_RANK_TOL) -> TTTensor:
    """Draw a TT tensor whose numerical ranks equal the declared ones.

    Attempt a is drawn from the stream (seed, "generate", kind, a), so
    retries are reproducible too.  Raises :class:`GenerationError` when
    ``max_regen`` retries all come up rank deficient (the declared ranks
    are then effectively unreachable for this scheme/geometry).
    """
    bounds = (1,) + spec.ranks + (1,)
    dims = [
        (bounds[k], spec.shape[k], bounds[k + 1]) for k in range(len(spec.shape))
    ]
    for attempt in range(spec.max_regen + 1):
        rng = derived_rng(spec.seed, "generate", spec.kind, attempt)
        t = TTTensor([_draw_core(rng, spec.kind, dd) for dd in dims])
        try:
            if tt_rank_numerical(t, rank_tol) == spec.ranks:
                return t
        except RankZeroError:
            pass
    raise GenerationError(
        f"no rank-{spec.ranks} draw in {spec.max_regen + 1} attempts "
        f"(kind={spec.kind}, shape={spec.shape}, seed={spec.seed})"
    )
