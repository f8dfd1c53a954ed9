"""Repeated-trial sampling experiments over random TT tensors.

One trial: draw a TT tensor under one entry scheme, sample a nested chain of
row sets (level i sampled from level i-1 extended by mode i) and independent
column sets per level, all uniformly without replacement; evaluate every
row/column sampling factor; verify every inheritance inequality.  A level
whose sampled set breaks its rank hypothesis is resampled with a fresh
derived stream up to ``max_resample`` times (counted and reported).

The experiment grid is generators x trials; everything is keyed by derived
seeds so a (config, master_seed) pair fixes the entire run.  Results land in
``trials.csv`` (raw values, one row per trial/parameter), ``summary.json``
(config echo, thread plan and per-parameter boxplot summaries), and one
standalone SVG boxplot per generator.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, SingularityError, TrialError
from .linalg import blas_thread_budget, pinv_spectral_norm
from .multiindex import IndexSet, Shape, _integer, derived_rng, derived_seed
from .multiindex import kron_extend, sample_without_replacement
from .generators import KINDS, GeneratorSpec, generate
from .properties import (
    InheritanceRecord,
    check_column_sampling_bounds,
    check_row_sampling_bounds,
    unfolding_report,
    unfolding_svd,
)
from .svgplot import write_boxplot_svg

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "BoxplotSummary",
    "ExperimentResult",
    "param_grid",
    "desk_preset",
    "paper_preset",
    "run_trial",
    "run_experiment",
    "summarize_boxplot",
    "summarize_values",
    "write_summary",
    "write_outputs",
    "resolve_workers",
    "largest_interface_elems",
    "POOL_MIN_INTERFACE_ELEMS",
    "version_stamp",
]

QUARTILE_METHOD = "linear interpolation between order statistics (type 7)"

CSV_COLUMNS = (
    "generator",
    "trial",
    "parameter_label",
    "i",
    "t",
    "value",
    "bound_pass",
    "resamples",
    "wall_time_s",  # excluded from determinism comparisons
)


def param_grid(d: int) -> list[tuple[str, str, int, int | None]]:
    """Complete parameter grid for a d-mode tensor, in output order.

    Rows are (label, family, i, t): all row factors alpha_{i,t} with
    i in [1, d-1], t in [1, d-i]; then alpha_i for i in [2, d-1]; then
    beta_i for i in [1, d-1].
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    grid: list[tuple[str, str, int, int | None]] = []
    for i in range(1, d):
        for t_off in range(1, d - i + 1):
            grid.append((f"alpha_{i}_{t_off}", "alpha_it", i, t_off))
    for i in range(2, d):
        grid.append((f"alpha_{i}", "alpha_i", i, None))
    for i in range(1, d):
        grid.append((f"beta_{i}", "beta_i", i, None))
    return grid


def _real(value) -> float:
    """``value`` as a float; a bool or a string is refused."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _boolean(value) -> bool:
    """``value`` itself if it is a bool; ``bool()`` would read "false" as True."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _items(values, kind=_integer) -> tuple:
    """``values`` as a tuple of ``kind``; a bare string is not a list."""
    if isinstance(values, str):
        raise TypeError(f"expected a list, got {values!r}")
    return tuple(kind(v) for v in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (sizes filled in, all checked)."""

    shape: Shape
    ranks: tuple[int, ...]
    generators: tuple[str, ...]
    trials: int
    master_seed: int
    sample_sizes_I: tuple[int, ...] | None = None  # None: default_sample_sizes
    sample_sizes_J: tuple[int, ...] | None = None
    rank_tol: float = 1e-9
    max_resample: int = 25
    output_dir: str = "out"
    emit_svg: bool = True

    def __post_init__(self):
        # the one place field values are converted; a value that does not
        # convert is a ConfigError, like a value out of range
        def convert(name, to):
            try:
                object.__setattr__(self, name, to(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc

        convert("shape", lambda v: Shape(_items(v)))
        convert("ranks", _items)
        shape, ranks, d = self.shape, self.ranks, len(self.shape)
        # rank count and geometry feasibility are the generator's concern;
        # fail early here
        GeneratorSpec("gaussian", shape, ranks, seed=0)

        convert("generators", lambda v: _items(v, str))
        if len(self.generators) == 0:
            raise ConfigError("at least one generator kind is required")
        seen = set()
        for g in self.generators:
            if g not in KINDS:
                raise ConfigError(f"unknown generator kind {g!r}; choose from {KINDS}")
            if g in seen:
                raise ConfigError(f"duplicate generator kind {g!r}")
            seen.add(g)

        for name in ("trials", "master_seed", "max_resample"):
            convert(name, _integer)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")

        default_I, default_J = self.default_sample_sizes(shape, ranks)
        convert("sample_sizes_I", lambda v: default_I if v is None else _items(v))
        convert("sample_sizes_J", lambda v: default_J if v is None else _items(v))
        sizes_I, sizes_J = self.sample_sizes_I, self.sample_sizes_J
        if len(sizes_I) != d - 1 or len(sizes_J) != d - 1:
            raise ConfigError(f"sample size lists must have {d - 1} entries")
        prev = 1
        for i in range(1, d):
            pool = prev * shape[i - 1]
            if not ranks[i - 1] <= sizes_I[i - 1] <= pool:
                raise ConfigError(
                    f"|I_{i}|={sizes_I[i - 1]} must lie in [r_{i}={ranks[i - 1]}, "
                    f"pool={pool}] (pool = |I_{i - 1}| * n_{i})"
                )
            prev = sizes_I[i - 1]
            Q = shape.suffix_size(i)
            if not ranks[i - 1] <= sizes_J[i - 1] <= Q:
                raise ConfigError(
                    f"|J_{i}|={sizes_J[i - 1]} must lie in [r_{i}={ranks[i - 1]}, {Q}]"
                )

        convert("rank_tol", _real)
        if not (0.0 <= self.rank_tol < 1.0):
            raise ConfigError(f"rank_tol must be in [0, 1), got {self.rank_tol}")
        if self.max_resample < 0:
            raise ConfigError(f"max_resample must be >= 0, got {self.max_resample}")
        if not isinstance(self.output_dir, (str, os.PathLike)) or not os.fspath(self.output_dir):
            raise ConfigError(f"output_dir: expected a non-empty path, got {self.output_dir!r}")
        convert("output_dir", os.fspath)
        convert("emit_svg", _boolean)

    @property
    def d(self) -> int:
        return len(self.shape)

    @staticmethod
    def default_sample_sizes(shape, ranks) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """|I_i| = |J_i| = min(4 * r_i, pool size), the usual small multiple of rank."""
        shape, ranks = Shape(shape), _items(ranks)
        sizes_I = []
        prev = 1
        for i in range(1, len(shape)):
            pool = prev * shape[i - 1]
            sizes_I.append(min(4 * ranks[i - 1], pool))
            prev = sizes_I[-1]
        sizes_J = [
            min(4 * ranks[i - 1], shape.suffix_size(i)) for i in range(1, len(shape))
        ]
        return tuple(sizes_I), tuple(sizes_J)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from a parsed JSON object; unknown fields are rejected."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)} - {"d"})
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        missing = sorted(k for k in ("shape", "ranks", "trials", "master_seed") if k not in raw)
        if missing:
            raise ConfigError(f"missing config fields: {', '.join(missing)}")
        fields = {k: v for k, v in raw.items() if k != "d"}
        cfg = cls(**{"generators": KINDS, **fields})
        if raw.get("d", cfg.d) != cfg.d:
            raise ConfigError(f"d={raw['d']} inconsistent with shape of {cfg.d} modes")
        return cfg

    def to_dict(self) -> dict:
        """Round-trippable echo (JSON-safe types only)."""
        return {
            "d": self.d,
            "shape": list(self.shape),
            "ranks": list(self.ranks),
            "generators": list(self.generators),
            "trials": self.trials,
            "sample_sizes_I": list(self.sample_sizes_I),
            "sample_sizes_J": list(self.sample_sizes_J),
            "master_seed": self.master_seed,
            "rank_tol": self.rank_tol,
            "max_resample": self.max_resample,
            "output_dir": self.output_dir,
            "emit_svg": self.emit_svg,
        }

    def replace(self, **changes) -> "ExperimentConfig":
        """A re-validated copy with ``changes``; an unknown field raises TypeError."""
        return dataclasses.replace(self, **changes)


def _preset(n: int, output_dir: str, overrides: dict) -> ExperimentConfig:
    """Shape n^4, ranks (2,3,2), default sample sizes, 20 trials, then ``overrides``."""
    cfg = ExperimentConfig(
        shape=(n, n, n, n),
        ranks=(2, 3, 2),
        generators=KINDS,
        trials=20,
        master_seed=42,
        output_dir=output_dir,
    )
    return cfg.replace(**overrides)


def desk_preset(**overrides) -> ExperimentConfig:
    """Laptop-minutes preset: shape 20^4, ranks (2,3,2), 20 trials."""
    return _preset(20, "out-desk", overrides)


def paper_preset(**overrides) -> ExperimentConfig:
    """Full-scale preset: shape 100^4, ranks (2,3,2), 20 trials."""
    return _preset(100, "out-paper", overrides)


@dataclass(frozen=True)
class TrialResult:
    """Everything one trial produced, keyed by parameter label."""

    generator: str
    trial: int
    seed: int
    values: dict[str, float]
    bound_pass: dict[str, bool]
    resamples: dict[str, int]
    records_rows: tuple[InheritanceRecord, ...]
    records_cols: tuple[InheritanceRecord, ...]
    wall_time_s: float


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary plus mean and outliers for one parameter.

    ``excluded`` counts the non-finite values left out.  When every value
    was left out, all six statistics are NaN and there are no outliers.
    """

    label: str
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]
    mean: float
    excluded: int = 0

    def __post_init__(self):
        if self.empty:
            return
        iqr = self.q3 - self.q1
        if not self.q1 <= self.median <= self.q3:
            raise DomainError("median must lie between the quartiles")
        if self.whisker_low < self.q1 - 1.5 * iqr or self.whisker_high > self.q3 + 1.5 * iqr:
            raise DomainError("whiskers must stay within 1.5 IQR of the box")
        for v in self.outliers:
            if self.whisker_low <= v <= self.whisker_high:
                raise DomainError("outliers must lie strictly outside the whiskers")

    @property
    def empty(self) -> bool:
        """True when every value was excluded, so nothing was summarized."""
        stats = (self.median, self.q1, self.q3, self.whisker_low, self.whisker_high, self.mean)
        return bool(np.all(np.isnan(stats))) and not self.outliers


def summarize_boxplot(values, label: str = "") -> BoxplotSummary:
    """Five-number summary with 1.5-IQR whiskers snapped to attained points.

    Quartiles use linear interpolation between order statistics (the common
    "type 7" rule).  Whiskers are the most extreme data points within
    1.5 IQR of the box; everything outside is listed as an outlier.  The
    mean is arithmetic.  Non-finite values (the NaN of a failed rank
    hypothesis) are left out and counted in ``excluded``.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise DomainError("cannot summarize an empty value list")
    finite = np.isfinite(vals)
    excluded = int(vals.size - np.count_nonzero(finite))
    vals = vals[finite]
    if vals.size == 0:
        nan = float("nan")
        return BoxplotSummary(label, nan, nan, nan, nan, nan, (), nan, excluded)
    q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    wlo = vals[vals >= lo_fence].min()
    whi = vals[vals <= hi_fence].max()
    outliers = np.sort(vals[(vals < wlo) | (vals > whi)])
    return BoxplotSummary(
        label=label,
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        whisker_low=float(wlo),
        whisker_high=float(whi),
        outliers=tuple(float(v) for v in outliers),
        mean=float(vals.mean()),
        excluded=excluded,
    )


def _sample_level(pool, size, factor, rank_tol, trial_seed, stream, level, max_resample):
    """Sample one index set, resampling until its rows of ``factor`` keep full rank.

    ``factor(rows)`` returns the given 0-based rows of the orthonormal
    singular factor the set indexes (W for row sets, V for column sets),
    such as :meth:`~ttinherit.linalg.ThinSVD.factor_rows` of one side.  A
    draw is kept when its (|set| x r) block of the factor passes
    :func:`~ttinherit.linalg.pinv_spectral_norm`, the full
    column rank test at ``rank_tol`` that the bounds hypothesize; the k-th
    redraw comes from the stream (trial_seed, stream, level, k).  Returns
    (index set, resample count); raises :class:`TrialError` when
    ``max_resample`` redraws all fail.
    """
    for tries in range(max_resample + 1):
        rng = derived_rng(trial_seed, stream, level, tries)
        cand = sample_without_replacement(pool, size, rng)
        try:
            pinv_spectral_norm(factor(cand.zero_based()), rank_tol)
        except SingularityError:
            continue
        return cand, tries
    raise TrialError(
        f"level {level} ({stream}): rank hypothesis still failing after "
        f"{max_resample} resamples"
    )


def run_trial(config: ExperimentConfig, kind: str, trial: int) -> TrialResult:
    """Generate, sample, evaluate, and check one (generator, trial) cell."""
    if kind not in config.generators:
        raise ConfigError(f"generator {kind!r} not in config")
    trial = _integer(trial, ConfigError)
    if not 0 <= trial < config.trials:
        raise ConfigError(f"trial index {trial} out of range [0, {config.trials})")
    start = time.perf_counter()
    trial_seed = derived_seed(config.master_seed, "trial", kind, trial)
    tol = config.rank_tol
    t = generate(GeneratorSpec(kind, config.shape, config.ranks, seed=trial_seed), tol)
    d = t.d
    # one report per parent unfolding, shared by both bound suites
    parents = [unfolding_report(k, unfolding_svd(t, k, tol)) for k in range(1, d)]

    # all row levels, then all column levels.  Row sets are nested: level i
    # samples from level i-1 refined by mode i.  Column sets are independent
    # per level, sampled from the full range [1, Q_i], which is never built.
    sets: dict[str, list[IndexSet]] = {"rows": [], "cols": []}
    redraws: dict[str, list[int]] = {"rows": [], "cols": []}
    for stream in ("rows", "cols"):
        for i in range(1, d):
            if stream == "rows":
                prev = sets["rows"][-1] if i > 1 else IndexSet.full(1)
                pool = kron_extend(prev, t.shape[i - 1])
                size, side = config.sample_sizes_I[i - 1], "W"
            else:
                pool = config.shape.suffix_size(i)
                size, side = config.sample_sizes_J[i - 1], "V"
            factor = functools.partial(parents[i - 1].svd.factor_rows, side)
            cand, tries = _sample_level(
                pool, size, factor, tol, trial_seed, stream, i, config.max_resample
            )
            sets[stream].append(cand)
            redraws[stream].append(tries)
    I_sets, J_sets = sets["rows"], sets["cols"]

    records_rows = check_row_sampling_bounds(t, I_sets, tol, parents=parents)
    records_cols = check_column_sampling_bounds(t, I_sets, J_sets, tol, parents=parents)

    by_label = {rec.label: rec for rec in records_rows + records_cols}
    values: dict[str, float] = {}
    passes: dict[str, bool] = {}
    resamples: dict[str, int] = {}
    for label, family, i, _ in param_grid(d):
        values[label] = by_label[label].value
        # alpha_i has no checks of its own: the level-i inequalities and the
        # rank hypothesis it shares with beta_i live on the beta_i record
        passes[label] = by_label[f"beta_{i}" if family == "alpha_i" else label].satisfied
        if family == "beta_i":
            resamples[label] = redraws["cols"][i - 1]
        else:  # alpha_i keeps the rows I_{i-1}
            resamples[label] = redraws["rows"][i - 2 if family == "alpha_i" else i - 1]

    return TrialResult(
        generator=kind,
        trial=trial,
        seed=trial_seed,
        values=values,
        bound_pass=passes,
        resamples=resamples,
        records_rows=tuple(records_rows),
        records_cols=tuple(records_cols),
        wall_time_s=time.perf_counter() - start,
    )


# Auto mode runs one worker when the largest interface matrix of the run's
# tensor holds fewer entries than this.  Below it a trial's LAPACK calls are
# too short to keep the GIL released, and two workers finish a run more
# slowly than one.  On 2 CPUs, n^4 tensors of ranks (2, 3, 2) break even
# between 54,000 and 65,536 entries, and of ranks (8, 8, 8) between 32,768
# and 64,000; d = 6 tensors break even higher, between 118,098 and 200,000
# (BENCH_pool_rule.json, "crossover").
POOL_MIN_INTERFACE_ELEMS = 1 << 16


def largest_interface_elems(config: ExperimentConfig) -> int:
    """Entries of the run's largest interface matrix, max_i max(P_i, Q_i) * r_i.

    It is the quantity :data:`~ttinherit.tt.INTERFACE_ELEM_CAP` bounds.
    """
    shape = config.shape
    return max(
        max(shape.prefix_size(i), shape.suffix_size(i)) * r
        for i, r in enumerate(config.ranks, start=1)
    )


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_workers(config: ExperimentConfig | None = None) -> int:
    """Worker count from TT_INHERIT_THREADS; 0 or unset means auto.

    Auto is one worker when ``config``'s largest interface matrix holds fewer
    than :data:`POOL_MIN_INTERFACE_ELEMS` entries, else one per CPU this
    process may use, at most 4.  Without ``config`` auto is the latter.
    """
    raw = os.environ.get("TT_INHERIT_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"TT_INHERIT_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ConfigError(f"TT_INHERIT_THREADS must be >= 0, got {n}")
    if n > 0:
        return n
    if config is not None and largest_interface_elems(config) < POOL_MIN_INTERFACE_ELEMS:
        return 1
    return max(1, min(4, available_cpus()))


@dataclass
class ExperimentResult:
    """Full run: per-trial results, summaries, failures, and counters.

    ``threads`` is the thread plan the trials ran under (see
    :func:`run_experiment`).
    """

    config: ExperimentConfig
    results: list[TrialResult]
    failures: list[dict]
    summaries: dict[str, dict[str, BoxplotSummary]] = field(default_factory=dict)
    paths: dict[str, str] = field(default_factory=dict)
    threads: dict = field(default_factory=dict)

    @property
    def bound_violations(self) -> int:
        return _count_outcomes(self.results)[0]

    @property
    def hypothesis_failures(self) -> int:
        return _count_outcomes(self.results)[1]


def _count_outcomes(results) -> tuple[int, int]:
    """(bound violations, rank-hypothesis failures) over every record of ``results``."""
    n_viol = 0
    n_hyp = 0
    for res in results:
        for rec in res.records_rows + res.records_cols:
            if not rec.rank_hypothesis_ok:
                n_hyp += 1
            elif not rec.satisfied:
                n_viol += 1
    return n_viol, n_hyp


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentResult:
    """Run the full generators x trials grid; optionally write all artifacts.

    Trials are independent and may run on a small thread pool (numpy releases
    the GIL inside LAPACK) of :func:`resolve_workers` threads, never more than
    there are trials; results are collected in deterministic
    (generator, trial) order regardless of scheduling.  While the pool runs,
    every loaded OpenBLAS runs one thread
    (:func:`~ttinherit.linalg.blas_thread_budget`).  The thread plan is
    ``workers``, ``cpus`` and, per library, its file name, its threads
    before the run and its threads per worker (1).  A trial that raises
    (it exhausts its resample budget, its tensor cannot be generated, ...) is
    excluded from the results with a warning and listed in ``failures``; the
    other trials still run.  With ``write`` the output directory is made
    before the first trial, so a path that cannot be one fails at once.
    """
    tasks = [(kind, trial) for kind in config.generators for trial in range(config.trials)]
    results: list[TrialResult] = []
    failures: list[dict] = []
    workers = min(resolve_workers(config), len(tasks))
    if write:
        os.makedirs(config.output_dir, exist_ok=True)
    with blas_thread_budget() as before, ThreadPoolExecutor(max_workers=workers) as pool:
        threads = {
            "workers": workers,
            "cpus": available_cpus(),
            "openblas": [
                {"library": name, "threads_before": n, "threads_per_worker": 1}
                for name, n in before
            ],
        }
        futures = [pool.submit(run_trial, config, kind, trial) for kind, trial in tasks]
        for (kind, trial), fut in zip(tasks, futures):
            try:
                results.append(fut.result())
            except Exception as exc:  # one failed trial must not end the run
                failures.append({"generator": kind, "trial": trial, "error": str(exc)})
                warnings.warn(
                    f"trial {trial} ({kind}) excluded: {type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    labels = [label for label, _, _, _ in param_grid(config.d)]
    values: dict[str, dict[str, list[float]]] = {}
    for res in results:  # (generator, trial) order
        per_gen = values.setdefault(res.generator, {label: [] for label in labels})
        for label, vals in per_gen.items():
            vals.append(res.values[label])
    summaries = summarize_values(values)

    out = ExperimentResult(
        config=config, results=results, failures=failures, summaries=summaries, threads=threads
    )
    if write:
        out.paths = write_outputs(results, summaries, config, failures=failures, threads=threads)
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def version_stamp() -> str:
    """Package version, plus the git commit when running from its own checkout.

    The commit is added only when the git work tree around this file holds
    the package at ``src/ttinherit/``; a copy inside another repository
    gets the bare version, not that repository's commit.
    """

    def git(*args) -> str:
        here = os.path.dirname(os.path.abspath(__file__))
        proc = subprocess.run(["git", *args], cwd=here, capture_output=True, text=True, timeout=5)
        return proc.stdout.strip() if proc.returncode == 0 else ""

    try:
        if git("rev-parse", "--show-prefix") == "src/ttinherit/":
            if commit := git("describe", "--always", "--dirty"):
                return f"{__version__}+g{commit}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def summary_payload(results, config, failures=None, threads=None) -> dict:
    """The run's record in summary.json; ``threads`` is the run's thread plan.

    :func:`write_summary` sets ``version``, ``quartile_method`` and
    ``summaries``; they are listed here only to fix their place in the file.
    """
    n_viol, n_hyp = _count_outcomes(results)
    return {
        "config": config.to_dict(),
        "version": None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "rank_tol": config.rank_tol,
        "quartile_method": None,
        "trials_completed": len(results),
        "trials_failed": list(failures or []),
        "bound_violations": n_viol,
        "rank_hypothesis_failures": n_hyp,
        "threads": threads,
        "summaries": None,
    }


def _summaries_json(summaries: dict[str, dict[str, BoxplotSummary]]) -> dict:
    """Per-generator, per-label boxplot summaries as JSON-ready dicts.

    The NaN statistics of an empty summary become ``null``.
    """

    def num(x: float) -> float | None:
        return None if np.isnan(x) else x

    return {
        kind: {
            label: {
                "median": num(s.median),
                "q1": num(s.q1),
                "q3": num(s.q3),
                "whisker_low": num(s.whisker_low),
                "whisker_high": num(s.whisker_high),
                "outliers": list(s.outliers),
                "mean": num(s.mean),
                "excluded": s.excluded,
            }
            for label, s in per_gen.items()
        }
        for kind, per_gen in summaries.items()
    }


def summarize_values(values: dict[str, dict[str, list[float]]]) -> dict:
    """``{generator: {label: [values]}}`` -> ``{generator: {label: BoxplotSummary}}``.

    Generators and labels keep the order of ``values``.
    """
    return {
        kind: {label: summarize_boxplot(vals, label=label) for label, vals in per_gen.items()}
        for kind, per_gen in values.items()
    }


def write_summary(out_dir, summaries, record: dict, emit_svg: bool = True) -> dict:
    """Write summary.json and, if ``emit_svg``, one boxplot SVG per generator.

    summary.json is ``record`` with ``version``, ``quartile_method`` and
    ``summaries`` set here; every other key of ``record`` is kept in place.
    Each SVG has one box per label, in the order of ``summaries[generator]``.
    """
    summary_path = os.path.join(out_dir, "summary.json")
    doc = {
        **record,
        "version": version_stamp(),
        "quartile_method": QUARTILE_METHOD,
        "summaries": _summaries_json(summaries),
    }
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    paths = {"summary_json": summary_path}
    if emit_svg:
        for kind, per_gen in summaries.items():
            svg_path = os.path.join(out_dir, f"boxplot_{kind}.svg")
            write_boxplot_svg(
                svg_path,
                f"Sampling factors — {kind} cores",
                list(per_gen.values()),
            )
            paths[f"svg_{kind}"] = svg_path
    return paths


def write_outputs(
    results, summaries, config: ExperimentConfig, failures=None, threads=None
) -> dict:
    """Write trials.csv, summary.json, and (optionally) per-generator SVGs.

    Rows are ordered by (generator order in config, trial, grid order), so
    identical runs produce byte-identical files apart from the trailing
    wall-time column.
    """
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    grid = param_grid(config.d)
    by_key = {(r.generator, r.trial): r for r in results}

    csv_path = os.path.join(out_dir, "trials.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for kind in config.generators:
            for trial in range(config.trials):
                res = by_key.get((kind, trial))
                if res is None:
                    continue  # failed trial, listed in summary.json instead
                for label, _family, i, t_off in grid:
                    f.write(
                        ",".join(
                            (
                                kind,
                                str(trial),
                                label,
                                str(i),
                                "" if t_off is None else str(t_off),
                                _fmt(res.values[label]),
                                "true" if res.bound_pass[label] else "false",
                                str(res.resamples[label]),
                                _fmt(res.wall_time_s),
                            )
                        )
                        + "\n"
                    )

    record = summary_payload(results, config, failures=failures, threads=threads)
    return {"trials_csv": csv_path, **write_summary(out_dir, summaries, record, config.emit_svg)}
