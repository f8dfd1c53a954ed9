"""Experiment driver: config handling, trials, summaries, output files."""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ttinherit.experiment as experiment_mod
import ttinherit.linalg as linalg_mod
import ttinherit.properties as properties_mod
import ttinherit.tt as tt_mod
from ttinherit import (
    BoxplotSummary,
    ConfigError,
    DomainError,
    ExperimentConfig,
    IndexSet,
    KINDS,
    SingularityError,
    TrialError,
    check_column_sampling_bounds,
    desk_preset,
    paper_preset,
    param_grid,
    pinv_spectral_norm,
    run_experiment,
    run_trial,
    summarize_boxplot,
    thin_svd,
    write_outputs,
)
from ttinherit.experiment import (
    CSV_COLUMNS,
    _count_outcomes,
    _sample_level,
    resolve_workers,
    version_stamp,
)
from ttinherit.svgplot import render_boxplot_svg

from conftest import coherent_config, make_tt, serve_coherent_tensor

# ---------------------------------------------------------------- parameter grid


def test_param_grid_four_modes_exact_order():
    grid = param_grid(4)
    assert [g[0] for g in grid] == [
        "alpha_1_1",
        "alpha_1_2",
        "alpha_1_3",
        "alpha_2_1",
        "alpha_2_2",
        "alpha_3_1",
        "alpha_2",
        "alpha_3",
        "beta_1",
        "beta_2",
        "beta_3",
    ]
    assert grid[0] == ("alpha_1_1", "alpha_it", 1, 1)
    assert grid[5] == ("alpha_3_1", "alpha_it", 3, 1)
    assert grid[6] == ("alpha_2", "alpha_i", 2, None)
    assert grid[10] == ("beta_3", "beta_i", 3, None)


def test_param_grid_two_modes_and_errors():
    assert [g[0] for g in param_grid(2)] == ["alpha_1_1", "beta_1"]
    with pytest.raises(DomainError):
        param_grid(1)


# ---------------------------------------------------------------- configuration


def _deep_geometry(**overrides):
    """The deep workload's geometry: 10^6 of ranks (2,3,4,3,2), sample sizes
    equal to the ranks and 200 redraws, then ``overrides``."""
    ranks = (2, 3, 4, 3, 2)
    return ExperimentConfig(
        shape=(10,) * 6, ranks=ranks, generators=KINDS, trials=20, master_seed=42,
        sample_sizes_I=ranks, sample_sizes_J=ranks, max_resample=200,
    ).replace(**overrides)


def _small_config(**overrides):
    base = dict(
        shape=(6, 6, 6, 6),
        ranks=(2, 3, 2),
        generators=("gaussian", "hadamard"),
        trials=3,
        master_seed=7,
        sample_sizes_I=(4, 6, 4),
        sample_sizes_J=(4, 6, 4),
        emit_svg=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_round_trip_through_dict():
    cfg = _small_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_config_from_dict_fills_defaults():
    cfg = ExperimentConfig.from_dict(
        {"shape": [20, 20, 20, 20], "ranks": [2, 3, 2], "trials": 5, "master_seed": 1}
    )
    assert cfg.sample_sizes_I == (8, 12, 8)
    assert cfg.sample_sizes_J == (8, 12, 8)
    assert cfg.generators == KINDS
    assert cfg.rank_tol == 1e-9 and cfg.max_resample == 25


def test_config_from_dict_rejections():
    good = {"shape": [6, 6], "ranks": [2], "trials": 1, "master_seed": 0}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**good, "frobnicate": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"shape": [6, 6], "ranks": [2]})  # missing fields
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**good, "d": 3})  # d inconsistent with shape
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**good, "generators": "gaussian"})  # not a list
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**good, "sample_sizes_I": 4})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(["not", "a", "dict"])


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        _small_config(ranks=(2, 3))  # wrong rank count
    with pytest.raises(ConfigError):
        _small_config(generators=("gaussian", "gaussian"))  # duplicate
    with pytest.raises(ConfigError):
        _small_config(generators=("fancy",))  # unknown kind
    with pytest.raises(ConfigError):
        _small_config(generators=())  # empty
    with pytest.raises(ConfigError):
        _small_config(trials=0)
    with pytest.raises(ConfigError):
        _small_config(master_seed=-3)
    with pytest.raises(ConfigError):
        _small_config(rank_tol=1.5)
    with pytest.raises(ConfigError):
        _small_config(max_resample=-1)


def test_config_sample_size_bounds():
    with pytest.raises(ConfigError):
        _small_config(sample_sizes_I=(1, 6, 4))  # |I_1| < r_1
    with pytest.raises(ConfigError):
        _small_config(sample_sizes_I=(7, 6, 4))  # |I_1| > n_1
    with pytest.raises(ConfigError):
        # |I_2| > |I_1| * n_2: nested sets come from the refined previous level
        _small_config(sample_sizes_I=(4, 25, 4))
    with pytest.raises(ConfigError):
        _small_config(sample_sizes_J=(4, 6, 7))  # |J_3| > n_4
    with pytest.raises(ConfigError):
        _small_config(sample_sizes_I=(4, 6))  # wrong length


def test_config_replace_returns_new_frozen_value():
    cfg = _small_config()
    other = cfg.replace(master_seed=99, trials=1)
    assert other.master_seed == 99 and other.trials == 1
    assert cfg.master_seed == 7 and cfg.trials == 3
    with pytest.raises(Exception):
        cfg.trials = 5  # frozen dataclass


def test_misspelled_config_fields_are_rejected():
    with pytest.raises(TypeError, match="trails"):
        _small_config().replace(trails=1)
    with pytest.raises(TypeError, match="master_sed"):
        desk_preset(master_sed=1)
    with pytest.raises(TypeError, match="trails"):
        paper_preset(trails=3)


def test_integral_config_numbers_are_kept_as_ints():
    raw = {"shape": [6.0, 6, 6, 6], "ranks": [2, 3, 2], "trials": 2.0, "master_seed": np.int64(7),
           "max_resample": 25.0, "sample_sizes_I": [4, 6.0, 4], "rank_tol": 0, "emit_svg": False}
    cfg = ExperimentConfig.from_dict(raw)
    assert tuple(cfg.shape) == (6, 6, 6, 6) and cfg.sample_sizes_I == (4, 6, 4)
    assert (cfg.trials, cfg.master_seed, cfg.max_resample) == (2, 7, 25)
    assert all(type(v) is int for v in (*cfg.shape, *cfg.sample_sizes_I, cfg.trials,
                                        cfg.master_seed, cfg.max_resample))
    assert cfg.rank_tol == 0.0 and cfg.emit_svg is False


def test_default_sample_sizes_clip_to_pools():
    sizes_I, sizes_J = ExperimentConfig.default_sample_sizes((20, 20, 20, 20), (2, 3, 2))
    assert sizes_I == (8, 12, 8) and sizes_J == (8, 12, 8)
    # tiny modes: the 4r rule gets clipped by the nested pool / suffix sizes
    sizes_I, sizes_J = ExperimentConfig.default_sample_sizes((2, 2, 2), (2, 2))
    assert sizes_I == (2, 4) and sizes_J == (4, 2)


def test_presets():
    desk = desk_preset()
    assert tuple(desk.shape) == (20, 20, 20, 20)
    assert desk.ranks == (2, 3, 2) and desk.trials == 20 and desk.master_seed == 42
    assert desk.generators == KINDS and desk.output_dir == "out-desk"
    paper = paper_preset()
    assert tuple(paper.shape) == (100, 100, 100, 100)
    assert paper.sample_sizes_I == (8, 12, 8) and paper.sample_sizes_J == (8, 12, 8)
    assert paper.output_dir == "out-paper"
    assert desk_preset(trials=3).trials == 3


# ---------------------------------------------------------------- boxplot summary


def test_summarize_boxplot_no_outliers():
    s = summarize_boxplot([1.0, 2.0, 3.0, 4.0, 5.0], label="x")
    assert (s.median, s.q1, s.q3) == (3.0, 2.0, 4.0)
    assert (s.whisker_low, s.whisker_high) == (1.0, 5.0)
    assert s.outliers == () and s.mean == 3.0 and s.label == "x"


def test_summarize_boxplot_detects_outlier():
    s = summarize_boxplot([1.0, 2.0, 3.0, 4.0, 100.0])
    # IQR = 2, fences at -1 and 7; whiskers snap to attained points 1 and 4
    assert (s.q1, s.q3) == (2.0, 4.0)
    assert (s.whisker_low, s.whisker_high) == (1.0, 4.0)
    assert s.outliers == (100.0,)
    assert s.mean == 22.0


def test_summarize_boxplot_quartile_interpolation():
    # type-7 quartiles of [1..4]: q1 = 1.75, median = 2.5, q3 = 3.25
    s = summarize_boxplot([1.0, 2.0, 3.0, 4.0])
    assert (s.q1, s.median, s.q3) == (1.75, 2.5, 3.25)


_SIGNED = st.builds(lambda m, neg: -m if neg else m, st.floats(1e-300, 1e300), st.booleans())
_VALUES = st.lists(_SIGNED, min_size=1, max_size=60) | st.lists(
    _SIGNED, min_size=1, max_size=5
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@given(_VALUES)
def test_quartiles_are_bitwise_those_of_numpy_percentile(values):
    vals = np.array(values)
    got = np.array(experiment_mod._quartiles(np.sort(vals)))
    assert got.tobytes() == np.percentile(vals, [25.0, 50.0, 75.0]).tobytes()


def test_summarize_boxplot_constant_values():
    s = summarize_boxplot([2.5] * 9)
    assert s.median == s.q1 == s.q3 == s.whisker_low == s.whisker_high == 2.5
    assert s.outliers == () and s.mean == 2.5


def test_summarize_boxplot_rejects_bad_input():
    with pytest.raises(DomainError):
        summarize_boxplot([])


def test_summarize_boxplot_excludes_non_finite_values():
    s = summarize_boxplot([1.0, float("nan"), 2.0], label="x")
    assert s == dataclasses.replace(summarize_boxplot([1.0, 2.0], label="x"), excluded=1)
    assert summarize_boxplot([1.0, 2.0]).excluded == 0
    assert summarize_boxplot([float("inf"), 3.0, -float("inf")]).excluded == 2


def test_summarize_boxplot_with_no_finite_value_is_empty():
    s = summarize_boxplot([float("nan"), float("inf")], label="x")
    assert s.empty and s.excluded == 2 and s.outliers == ()
    assert np.isnan(s.median) and np.isnan(s.mean)
    assert not summarize_boxplot([1.0]).empty


def test_boxplot_summary_validates_geometry():
    with pytest.raises(DomainError):
        BoxplotSummary("x", median=5.0, q1=1.0, q3=2.0, whisker_low=1.0,
                       whisker_high=2.0, outliers=(), mean=1.5)
    with pytest.raises(DomainError):
        BoxplotSummary("x", median=1.5, q1=1.0, q3=2.0, whisker_low=-10.0,
                       whisker_high=2.0, outliers=(), mean=1.5)
    with pytest.raises(DomainError):
        BoxplotSummary("x", median=1.5, q1=1.0, q3=2.0, whisker_low=1.0,
                       whisker_high=2.0, outliers=(1.5,), mean=1.5)


# ---------------------------------------------------------------- level sampling


def test_sample_level_returns_only_spanning_sets():
    # rows 3 and 4 of the factor are zero, so {1,2} is the only valid 2-subset
    W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    pool = IndexSet.full(4)
    seen_retry = False
    seen_first_try = False
    for trial_seed in range(60):
        cand, tries = _sample_level(pool, 2, W.__getitem__, 1e-9, trial_seed, "rows", 1, 200)
        assert tuple(cand) == (1, 2)
        seen_retry = seen_retry or tries > 0
        seen_first_try = seen_first_try or tries == 0
    assert seen_retry and seen_first_try


def test_sample_level_is_deterministic():
    W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    pool = IndexSet.full(4)
    a = _sample_level(pool, 2, W.__getitem__, 1e-9, 5, "rows", 1, 200)
    b = _sample_level(pool, 2, W.__getitem__, 1e-9, 5, "rows", 1, 200)
    assert tuple(a[0]) == tuple(b[0]) and a[1] == b[1]


def test_sample_level_exhausts_budget():
    pool = IndexSet.full(4)
    with pytest.raises(TrialError):
        _sample_level(pool, 2, np.zeros((4, 2)).__getitem__, 1e-9, 0, "rows", 1, 3)


@pytest.mark.parametrize("factor, full_rank", [(1.0, False), (2.0, True)])
def test_rank_tol_boundary_is_the_same_everywhere(factor, full_rank):
    # singular values exactly (1, factor * rank_tol): at factor 1 the second
    # one sits on the boundary and does not count; at factor 2 it does
    tol = 1e-9
    block = np.diag([1.0, factor * tol])
    pool = IndexSet.full(2)  # a 2-subset of 2 rows: every draw is the whole block
    assert thin_svd(block, tol).rank == (2 if full_rank else 1)
    if full_rank:
        assert pinv_spectral_norm(block, tol) == 1.0 / (factor * tol)
        assert _sample_level(pool, 2, block.__getitem__, tol, 0, "rows", 1, 3) == (pool, 0)
    else:
        with pytest.raises(SingularityError):
            pinv_spectral_norm(block, tol)
        with pytest.raises(TrialError, match="after 3 resamples"):
            _sample_level(pool, 2, block.__getitem__, tol, 0, "rows", 1, 3)


# ---------------------------------------------------------------- single trial


def test_run_trial_produces_full_grid():
    cfg = _small_config()
    res = run_trial(cfg, "gaussian", 0)
    labels = [g[0] for g in param_grid(4)]
    assert list(res.values) == labels
    assert list(res.bound_pass) == labels
    assert list(res.resamples) == labels
    assert all(np.isfinite(v) and v > 0 for v in res.values.values())
    assert all(res.bound_pass.values())
    assert all(n >= 0 for n in res.resamples.values())
    assert len(res.records_rows) == 6 and len(res.records_cols) == 5
    assert res.generator == "gaussian" and res.trial == 0
    assert res.wall_time_s >= 0.0


def test_run_trial_multiplies_no_singular_factor_out(monkeypatch):
    # every factor a trial reads stays an orthonormal interface times an
    # r x r rotation: sampled rows and row norms come from the pair
    want = {kind: run_trial(desk_preset(trials=1), kind, 0) for kind in KINDS}

    def refuse(self, side):
        raise AssertionError("a singular factor was multiplied out")

    monkeypatch.setattr(linalg_mod.ThinSVD, "_materialize", refuse)
    for kind in KINDS:
        got = run_trial(desk_preset(trials=1), kind, 0)
        assert got.values == want[kind].values and got.bound_pass == want[kind].bound_pass
        assert all(got.bound_pass.values())


def test_run_trial_gathers_no_more_rows_than_a_sample_and_reads_each_basis_once(monkeypatch):
    # alpha_{i,t} comes from QR sweeps that start at the sampled rows, so no
    # taller block of a factor is gathered; a subtensor's V_t is the parent's
    # right interface, whose row norm is read once and kept in the form's memo
    cfg = desk_preset(trials=1)
    want = run_trial(cfg, "gaussian", 0)
    most = max(cfg.sample_sizes_I + cfg.sample_sizes_J)
    gather = linalg_mod.ThinSVD.factor_rows

    def refuse(self, side, rows):
        if len(rows) > most:
            raise AssertionError(f"{len(rows)} rows of {side} gathered")
        return gather(self, side, rows)

    made = []  # (tensor, i, svd) of every unfolding_svd call
    unfold = tt_mod.unfolding_svd

    def kept(t, i, rank_tol):
        made.append((t, i, unfold(t, i, rank_tol)))
        return made[-1][2]

    monkeypatch.setattr(linalg_mod.ThinSVD, "factor_rows", refuse)
    for mod in (experiment_mod, properties_mod):
        monkeypatch.setattr(mod, "unfolding_svd", kept)
    got = run_trial(cfg, "gaussian", 0)
    assert got.values == want.values and got.bound_pass == want.bound_pass
    assert got.resamples == want.resamples
    (parent,) = [svd for t, i, svd in made if i == 1 and t.shape == cfg.shape]
    level_1 = (cfg.sample_sizes_I[0],) + cfg.shape[1:]
    (sub,) = [svd for t, i, svd in made if i == 1 and t.shape == level_1]
    assert np.shares_memory(sub.basis("V"), parent.basis("V"))
    assert sub.factor_max_row_norm("V") == parent.factor_max_row_norm("V")


@pytest.mark.parametrize("geometry", ["desk", "deep"])
def test_run_trial_makes_no_row_norm_pass_over_an_interface_past_a_boundary_core(geometry, monkeypatch):
    # the largest row norm of every form interface past the first core (or
    # the last) is read as quadratic forms over the interface one mode
    # shorter, so a pass reads only boundary cores and sampled blocks; the
    # interfaces are told apart by memory, not height, since a sampled
    # block (160 rows at desk) can be as tall as a subtensor's interface
    cfg = desk_preset(trials=1) if geometry == "desk" else _deep_geometry(trials=1)
    want = {kind: run_trial(cfg, kind, 0) for kind in KINDS}
    interfaces = {}  # id -> every interface built past a boundary core
    build = tt_mod._interface
    one_pass = linalg_mod.max_row_norm
    reads = []

    def recorded(t, side, key):
        X = build(t, side, key)
        if key > 1:
            interfaces[id(X)] = X
        return X

    def refuse(M, U=None):
        if any(np.may_share_memory(M, X) for X in interfaces.values()):
            raise AssertionError(f"a row-norm pass over a {M.shape[0]}-row interface")
        reads.append(M.shape[0])
        return one_pass(M, U)

    monkeypatch.setattr(tt_mod, "_interface", recorded)
    for mod in (linalg_mod, tt_mod):
        monkeypatch.setattr(mod, "max_row_norm", refuse)
    for kind in KINDS:
        got = run_trial(cfg, kind, 0)
        assert got.values == want[kind].values and got.bound_pass == want[kind].bound_pass
        assert got.resamples == want[kind].resamples
    tallest = max(cfg.shape[0], cfg.shape[-1])
    assert max(X.shape[0] for X in interfaces.values()) == cfg.shape.size // tallest
    assert tallest in reads  # the boundary cores themselves still get their pass


def test_run_trial_sweeps_each_sampled_level_once(monkeypatch):
    # every alpha_{i,t} of level i, and alpha_{i+1} = alpha_{i,2}, come from
    # one walk from I_i over the cores after i: 5 sweeps per d = 6 trial,
    # not one per value (15 alpha_{i,t} and 4 alpha_i)
    cfg = _deep_geometry(shape=(3,) * 6, trials=1)
    want = run_trial(cfg, "gaussian", 0)
    sweeps = []
    real = tt_mod._row_sweep

    def counted(t, I, i, svds):
        sweeps.append((i, tuple(svds)))
        return real(t, I, i, svds)

    monkeypatch.setattr(properties_mod, "_row_sweep", counted)
    got = run_trial(cfg, "gaussian", 0)
    assert got.values == want.values and got.bound_pass == want.bound_pass
    assert sweeps == [(i, tuple(range(i, 6))) for i in range(1, 6)]


def test_run_trial_is_deterministic():
    cfg = _small_config()
    a = run_trial(cfg, "hadamard", 1)
    b = run_trial(cfg, "hadamard", 1)
    assert a.values == b.values  # bitwise float equality
    assert a.seed == b.seed
    assert a.resamples == b.resamples


def test_run_trial_cells_differ():
    cfg = _small_config()
    a = run_trial(cfg, "gaussian", 0)
    b = run_trial(cfg, "gaussian", 1)
    assert a.values != b.values


def test_run_trial_maps_records_and_redraws_to_labels(monkeypatch):
    # alpha_i carries no checks: its pass is beta_i's, and its redraws are
    # those of its rows I_{i-1}
    real_sample = experiment_mod._sample_level
    real_cols = experiment_mod.check_column_sampling_bounds

    def tagged_sample(*args):
        cand, _ = real_sample(*args)
        stream, level = args[5], args[6]
        return cand, 10 * level + (5 if stream == "cols" else 0)

    def beta_2_violated(*args, **kwargs):
        records = real_cols(*args, **kwargs)
        for n, rec in enumerate(records):
            if rec.label == "beta_2":
                failed = dataclasses.replace(rec.checks[0], satisfied=False)
                records[n] = dataclasses.replace(rec, checks=(failed,) + rec.checks[1:])
        return records

    monkeypatch.setattr(experiment_mod, "_sample_level", tagged_sample)
    monkeypatch.setattr(experiment_mod, "check_column_sampling_bounds", beta_2_violated)
    res = run_trial(_small_config(), "gaussian", 0)
    assert {label for label, ok in res.bound_pass.items() if not ok} == {"alpha_2", "beta_2"}
    for label, family, i, _ in param_grid(4):
        level = i - 1 if family == "alpha_i" else i
        assert res.resamples[label] == 10 * level + (5 if family == "beta_i" else 0)


def test_run_trial_rejects_bad_cell():
    cfg = _small_config()
    with pytest.raises(ConfigError):
        run_trial(cfg, "uniform", 0)  # not in this config's generator list
    with pytest.raises(ConfigError):
        run_trial(cfg, "gaussian", 3)  # trial index out of range
    with pytest.raises(ConfigError):
        run_trial(cfg, "gaussian", -1)


@pytest.mark.parametrize("trial", [1.7, True, "1"])
def test_run_trial_refuses_a_trial_index_that_is_not_an_integer(trial):
    with pytest.raises(ConfigError, match="expected an integer"):
        run_trial(_small_config(), "gaussian", trial)


def test_run_trial_takes_an_integral_trial_index_of_any_type():
    cfg = _small_config()
    want = run_trial(cfg, "gaussian", 1).values
    for trial in (1.0, np.int64(1)):
        res = run_trial(cfg, "gaussian", trial)
        assert res.trial == 1 and type(res.trial) is int
        assert res.values == want


# ---------------------------------------------------------------- full experiment


def test_run_experiment_counts_and_order():
    cfg = _small_config()
    out = run_experiment(cfg, write=False)
    assert len(out.results) == cfg.trials * len(cfg.generators)
    assert [(r.generator, r.trial) for r in out.results] == [
        (kind, trial) for kind in cfg.generators for trial in range(cfg.trials)
    ]
    assert out.failures == []
    assert out.bound_violations == 0
    assert out.hypothesis_failures == 0
    assert set(out.summaries) == set(cfg.generators)
    labels = [g[0] for g in param_grid(4)]
    for per_gen in out.summaries.values():
        assert list(per_gen) == labels
    assert out.paths == {}  # write=False leaves no artifacts


def test_a_failed_column_block_counts_as_one_rank_hypothesis_failure():
    # one column of J_2 cannot keep rank 3, so level 2 fails its rank
    # hypothesis; alpha_2 repeats beta_2's verdict and must not count again
    t = make_tt("gaussian", (5, 5, 5, 5), (2, 3, 2), seed=1)
    nested = [
        IndexSet([1, 2, 3, 4], 5),
        IndexSet([1, 2, 3, 4, 6, 7, 8, 9], 25),
        IndexSet([1, 2, 3, 26, 27, 28], 125),
    ]
    J_sets = [IndexSet.full(125), IndexSet([3], 25), IndexSet.full(5)]
    records = check_column_sampling_bounds(t, nested, J_sets)
    failed = [rec.label for rec in records if not rec.rank_hypothesis_ok]
    assert failed == ["alpha_2", "beta_2"]
    trial = SimpleNamespace(records_rows=(), records_cols=tuple(records))
    assert _count_outcomes([trial]) == (0, 1)


def test_run_experiment_gives_the_values_run_trial_gives():
    cfg = _small_config(trials=2)
    out = run_experiment(cfg, write=False)
    alone = [run_trial(cfg, kind, trial) for kind in cfg.generators for trial in range(cfg.trials)]
    assert [(r.generator, r.trial) for r in out.results] == [(r.generator, r.trial) for r in alone]
    for a, b in zip(out.results, alone):
        assert a.values == b.values
        assert a.bound_pass == b.bound_pass
        assert a.resamples == b.resamples


def test_a_d6_run_with_sample_sizes_equal_to_the_ranks_is_the_same_on_every_run():
    # every level's redraws and failed rank hypotheses repeat exactly
    cfg = _deep_geometry(shape=(3,) * 6, trials=2)
    first, second = run_experiment(cfg, write=False), run_experiment(cfg, write=False)
    assert first.failures == second.failures
    assert [(r.generator, r.trial) for r in first.results] == [
        (r.generator, r.trial) for r in second.results
    ]
    assert len(first.results) == 6
    for a, b in zip(first.results, second.results):
        assert list(a.values) == list(b.values)
        # bitwise, NaN where a level's rank hypothesis failed on both
        np.testing.assert_array_equal(list(a.values.values()), list(b.values.values()))
        assert a.bound_pass == b.bound_pass
        assert a.resamples == b.resamples


def test_run_experiment_survives_failed_trial(monkeypatch):
    cfg = _small_config(trials=2)
    real = run_trial

    def flaky(config, kind, trial):
        if kind == "hadamard" and trial == 0:
            raise TrialError("synthetic resample exhaustion")
        return real(config, kind, trial)

    monkeypatch.setattr(experiment_mod, "run_trial", flaky)
    with pytest.warns(RuntimeWarning, match="excluded"):
        out = run_experiment(cfg, write=False)
    assert len(out.results) == 3
    assert out.failures == [
        {"generator": "hadamard", "trial": 0, "error": "synthetic resample exhaustion"}
    ]
    # the surviving hadamard trial still gets a summary
    assert set(out.summaries) == {"gaussian", "hadamard"}


def test_run_experiment_keeps_going_when_generation_fails():
    # hadamard trial 3 of this tiny geometry finds no full-rank draw; the
    # GenerationError is recorded like any other failed trial
    cfg = ExperimentConfig(
        shape=(2, 2, 2, 2),
        ranks=(2, 2, 2),
        generators=("hadamard",),
        trials=4,
        master_seed=3,
        sample_sizes_I=(2, 2, 2),
        sample_sizes_J=(2, 2, 2),
        emit_svg=False,
    )
    with pytest.warns(RuntimeWarning, match="GenerationError"):
        out = run_experiment(cfg, write=False)
    assert [r.trial for r in out.results] == [0, 1, 2]
    assert [(f["generator"], f["trial"]) for f in out.failures] == [("hadamard", 3)]
    assert "no rank-(2, 2, 2) draw" in out.failures[0]["error"]
    assert set(out.summaries) == {"hadamard"}


def test_a_coherent_tensor_that_exhausts_its_redraws_is_a_failed_trial(monkeypatch):
    cfg = coherent_config()
    serve_coherent_tensor(monkeypatch, cfg)
    with pytest.warns(RuntimeWarning, match="excluded"):
        out = run_experiment(cfg, write=False)
    assert out.failures == [
        {
            "generator": "gaussian",
            "trial": 0,
            "error": "level 1 (rows): rank hypothesis still failing after 2 resamples",
        }
    ]
    # trial 1 found the two rows within its budget, and its bounds hold
    (res,) = out.results
    assert res.trial == 1 and res.resamples["alpha_1_1"] > 0
    assert all(res.bound_pass.values())


def test_run_experiment_summarizes_around_nan_values(monkeypatch, tmp_path):
    # a failed rank hypothesis records NaN; the finished run must still be
    # summarized and written, with the NaN counted instead of summarized
    cfg = _small_config(trials=2, generators=("gaussian",), output_dir=str(tmp_path), emit_svg=True)
    real = run_trial

    def with_nan(config, kind, trial):
        res = real(config, kind, trial)
        nan_labels = {"beta_3"} | ({"alpha_2"} if trial == 0 else set())
        values = {k: float("nan") if k in nan_labels else v for k, v in res.values.items()}
        return dataclasses.replace(res, values=values)

    monkeypatch.setattr(experiment_mod, "run_trial", with_nan)
    out = run_experiment(cfg, write=True)
    assert out.failures == []
    per_gen = out.summaries["gaussian"]
    assert per_gen["alpha_2"].excluded == 1
    assert per_gen["alpha_2"].median == out.results[1].values["alpha_2"]
    assert per_gen["beta_3"].empty and per_gen["beta_3"].excluded == 2
    assert per_gen["beta_1"].excluded == 0

    def no_constants(name):
        raise AssertionError(f"summary.json holds {name}")

    doc = json.loads((tmp_path / "summary.json").read_text(), parse_constant=no_constants)
    assert doc["summaries"]["gaussian"]["alpha_2"]["excluded"] == 1
    assert doc["summaries"]["gaussian"]["beta_3"]["excluded"] == 2
    assert doc["summaries"]["gaussian"]["beta_3"]["median"] is None
    root = ET.parse(tmp_path / "boxplot_gaussian.svg").getroot()
    labels = [g.get("data-label") for g in root.iter() if g.get("class") == "box-group"]
    assert labels == [g[0] for g in param_grid(4) if g[0] != "beta_3"]


def _recording_threads(monkeypatch):
    """Patch run_trial to record the thread each trial runs on; every
    trial raises ``not run``."""
    ran_on = []

    def no_trial(config, kind, trial):
        ran_on.append(threading.get_ident())
        raise TrialError("not run")

    monkeypatch.setattr(experiment_mod, "run_trial", no_trial)
    return ran_on


def test_thread_plan_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _recording_threads(monkeypatch)
    for cpus in (1, 3, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        with pytest.warns(RuntimeWarning, match="not run"):
            out = run_experiment(_small_config(trials=1), write=False)
        assert out.threads["cpus"] == cpus and out.threads["workers"] == 1


@pytest.mark.parametrize("build", [desk_preset, paper_preset, _deep_geometry], ids=["desk", "paper", "deep"])
def test_auto_workers_run_every_trial_in_the_calling_thread(monkeypatch, tmp_path, build):
    # one worker at every geometry, however many CPUs there are
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    cfg = build(trials=2, output_dir=str(tmp_path), emit_svg=False)  # 6 tasks
    ran_on = _recording_threads(monkeypatch)
    assert resolve_workers() == 1
    with pytest.warns(RuntimeWarning, match="not run"):
        out = run_experiment(cfg, write=True)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert out.threads["workers"] == doc["threads"]["workers"] == 1
    assert ran_on == [threading.get_ident()] * 6


def test_a_desk_run_starts_no_thread(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = desk_preset(trials=2, output_dir=str(tmp_path))
    out = run_experiment(cfg, write=True)
    assert out.failures == [] and len(out.results) == 2 * len(cfg.generators)
    assert (tmp_path / "trials.csv").exists() and (tmp_path / "summary.json").exists()


# ---------------------------------------------------------------- BLAS threads


@pytest.fixture()
def openblas():
    """The loaded OpenBLAS libraries, each set to 3 threads for the test."""
    libs = linalg_mod.loaded_openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    saved = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(3)
    try:
        yield libs
    finally:
        for lib, n in zip(libs, saved):
            lib.set_threads(n)


def _reading_blas_threads(monkeypatch, libs, fail_trial=None):
    """Patch run_trial to record every library's thread count as it runs."""
    seen = []
    real = run_trial

    def reading(config, kind, trial):
        seen.append(tuple(lib.get_threads() for lib in libs))
        if trial == fail_trial:
            raise TrialError("synthetic failure")
        return real(config, kind, trial)

    monkeypatch.setattr(experiment_mod, "run_trial", reading)
    return seen


@pytest.mark.parametrize("cpus, per_worker", [(16, 1), (1, 1)])
def test_run_experiment_gives_each_worker_its_blas_share(monkeypatch, openblas, cpus, per_worker):
    # one BLAS thread per worker, however many CPUs and threads there were
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    seen = _reading_blas_threads(monkeypatch, openblas)
    out = run_experiment(_small_config(trials=2), write=False)
    assert len(seen) == 4
    assert set(seen) == {(per_worker,) * len(openblas)}
    assert [lib.get_threads() for lib in openblas] == [3] * len(openblas)
    assert out.threads == {
        "workers": 1,
        "cpus": cpus,
        "openblas": [
            {
                "library": os.path.basename(lib.path),
                "threads_before": 3,
                "threads_per_worker": per_worker,
            }
            for lib in openblas
        ],
        "heap_kept": linalg_mod.glibc_malloc() is not None,
    }


def test_blas_threads_are_restored_when_a_trial_raises(monkeypatch, openblas):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = _reading_blas_threads(monkeypatch, openblas, fail_trial=0)
    with pytest.warns(RuntimeWarning, match="synthetic failure"):
        out = run_experiment(_small_config(trials=2), write=False)
    assert len(out.failures) == 2 and len(out.results) == 2
    assert set(seen) == {(1,) * len(openblas)}
    assert [lib.get_threads() for lib in openblas] == [3] * len(openblas)


def test_run_without_openblas_changes_no_thread_count(monkeypatch, openblas):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _small_config(trials=2)
    with_blas = run_experiment(cfg, write=False)
    monkeypatch.setattr(linalg_mod, "loaded_openblas", lambda: [])
    monkeypatch.setattr(linalg_mod, "glibc_malloc", lambda: None)  # a libc without mallopt
    seen = _reading_blas_threads(monkeypatch, openblas)
    without = run_experiment(cfg, write=False)
    assert set(seen) == {(3,) * len(openblas)}
    assert without.threads == {"workers": 1, "cpus": 2, "openblas": [], "heap_kept": False}
    assert [r.values for r in without.results] == [r.values for r in with_blas.results]


def test_written_summary_records_the_thread_plan(tmp_path):
    out = run_experiment(_small_config(trials=1, output_dir=str(tmp_path)), write=True)
    with open(tmp_path / "summary.json") as f:
        doc = json.load(f)
    assert doc["threads"] == out.threads
    assert doc["threads"]["workers"] == 1
    assert doc["threads"]["heap_kept"] is (linalg_mod.glibc_malloc() is not None)
    for entry in doc["threads"]["openblas"]:
        assert set(entry) == {"library", "threads_before", "threads_per_worker"}


@pytest.mark.skipif(linalg_mod.glibc_malloc() is None, reason="the C library has no mallopt")
def test_trials_after_the_first_fault_in_no_fresh_pages():
    # each trial at 40^4 frees interfaces of 1 MB; kept in the heap, they
    # serve the next trial's arrays from pages it already has (each such
    # trial faulted about 500 times when malloc handed them back to the OS)
    code = (
        "import json, resource, ttinherit, ttinherit.experiment as ex\n"
        "real, faults = ex.run_trial, []\n"
        "def counting(config, kind, trial):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    try:\n"
        "        return real(config, kind, trial)\n"
        "    finally:\n"
        "        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "ex.run_trial = counting\n"
        "config = ttinherit.ExperimentConfig(\n"
        "    shape=(40,) * 4, ranks=(2, 3, 2), generators=('gaussian',), trials=4, master_seed=0\n"
        ")\n"
        "out = ttinherit.run_experiment(config, write=False)\n"
        "print(json.dumps([faults, out.threads]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults, threads = json.loads(proc.stdout)
    assert threads["workers"] == 1 and threads["heap_kept"] is True
    assert len(faults) == 4
    assert max(faults[1:]) < 50, faults


def test_resolve_workers():
    assert resolve_workers() == 1


# ---------------------------------------------------------------- output files


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    cfg = _small_config(trials=2, output_dir=str(out_dir), emit_svg=True)
    result = run_experiment(cfg, write=True)
    return cfg, result, out_dir


def test_written_csv_layout(written_run):
    cfg, result, out_dir = written_run
    with open(out_dir / "trials.csv", newline="") as f:
        lines = f.read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + cfg.trials * len(cfg.generators) * len(param_grid(4))
    with open(out_dir / "trials.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    by_key = {(r.generator, r.trial): r for r in result.results}
    for row in rows:
        res = by_key[(row["generator"], int(row["trial"]))]
        label = row["parameter_label"]
        # the printed value round-trips to the exact double
        assert float(row["value"]) == res.values[label]
        assert row["bound_pass"] == ("true" if res.bound_pass[label] else "false")
        assert int(row["resamples"]) == res.resamples[label]
        assert float(row["wall_time_s"]) == res.wall_time_s
        if label in ("alpha_2", "alpha_3", "beta_1", "beta_2", "beta_3"):
            assert row["t"] == ""
        else:
            assert row["t"] == label.rsplit("_", 1)[1]


def test_written_summary_json(written_run):
    cfg, result, out_dir = written_run
    with open(out_dir / "summary.json") as f:
        doc = json.load(f)
    assert doc["config"] == cfg.to_dict()
    assert doc["version"].startswith("0.1.0")
    assert doc["numpy"] == np.__version__
    assert doc["trials_completed"] == len(result.results)
    assert doc["trials_failed"] == []
    assert doc["bound_violations"] == 0
    assert doc["rank_hypothesis_failures"] == 0
    assert "order statistics" in doc["quartile_method"]
    for kind, per_gen in result.summaries.items():
        for label, s in per_gen.items():
            echoed = doc["summaries"][kind][label]
            assert echoed["median"] == s.median
            assert echoed["q1"] == s.q1 and echoed["q3"] == s.q3
            assert echoed["whisker_low"] == s.whisker_low
            assert echoed["whisker_high"] == s.whisker_high
            assert echoed["outliers"] == list(s.outliers)
            assert echoed["mean"] == s.mean


def test_written_svg_per_generator(written_run):
    cfg, result, out_dir = written_run
    for kind in cfg.generators:
        path = out_dir / f"boxplot_{kind}.svg"
        assert path.exists()
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
    assert result.paths["trials_csv"] == str(out_dir / "trials.csv")


def test_write_outputs_without_svg(tmp_path):
    cfg = _small_config(trials=1, generators=("gaussian",), emit_svg=False)
    cfg = cfg.replace(output_dir=str(tmp_path))
    res = run_trial(cfg, "gaussian", 0)
    summaries = {
        "gaussian": {
            label: summarize_boxplot([res.values[label]], label=label)
            for label, _, _, _ in param_grid(4)
        }
    }
    paths = write_outputs([res], summaries, cfg)
    assert (tmp_path / "trials.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert not list(tmp_path.glob("*.svg"))
    assert set(paths) == {"trials_csv", "summary_json"}


def test_version_stamp_contains_package_version():
    assert version_stamp().startswith("0.1.0")


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
@pytest.mark.parametrize("package_dir, stamped", [("src/ttinherit", True), ("vendor/ttinherit", False)])
def test_version_stamp_names_a_commit_only_of_the_packages_own_checkout(
    monkeypatch, tmp_path, package_dir, stamped
):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    module = tmp_path / package_dir / "experiment.py"
    module.parent.mkdir(parents=True)
    module.write_text("")

    def git(*args):
        identity = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        return subprocess.run(
            ["git", *identity, *args], cwd=tmp_path, check=True, capture_output=True, text=True
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "copy")
    monkeypatch.setattr(experiment_mod, "__file__", str(module))
    commit = git("describe", "--always", "--dirty")
    assert version_stamp() == ("0.1.0+g" + commit if stamped else "0.1.0")


def test_version_stamp_starts_git_once_per_package_directory(monkeypatch, tmp_path):
    calls = []
    real_run = subprocess.run

    def counting_run(args, **kwargs):
        calls.append(kwargs["cwd"])
        return real_run(args, **kwargs)

    monkeypatch.setattr(experiment_mod.subprocess, "run", counting_run)
    other = tmp_path / "ttinherit" / "experiment.py"
    other.parent.mkdir()
    here = os.path.dirname(os.path.abspath(experiment_mod.__file__))
    first = version_stamp()  # may already be cached by an earlier call
    assert version_stamp() == first
    assert calls.count(here) <= 2  # rev-parse, then describe when stamped
    before = len(calls)
    monkeypatch.setattr(experiment_mod, "__file__", str(other))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert version_stamp() == "0.1.0"  # another directory: looked up afresh
    assert calls[before:] == [str(other.parent)]
    assert version_stamp() == "0.1.0" and len(calls) == before + 1


# ---------------------------------------------------------------- SVG rendering


def _summary(label, values):
    return summarize_boxplot(values, label=label)


def test_svg_data_attributes_round_trip():
    summaries = [
        _summary("alpha_1_2", [1.0, 1.25, 1.5, 2.0, 9.0]),
        _summary("beta_3", [0.5, 0.75, 1.0]),
    ]
    doc = render_boxplot_svg("factors", summaries)
    root = ET.fromstring(doc)
    groups = [g for g in root.iter() if g.get("class") == "box-group"]
    assert len(groups) == 2
    for g, s in zip(groups, summaries):
        assert g.get("data-label") == s.label
        assert float(g.get("data-median")) == s.median
        assert float(g.get("data-q1")) == s.q1
        assert float(g.get("data-q3")) == s.q3
        assert float(g.get("data-whisker-low")) == s.whisker_low
        assert float(g.get("data-whisker-high")) == s.whisker_high
        assert float(g.get("data-mean")) == s.mean
        raw = g.get("data-outliers")
        got = tuple(float(v) for v in raw.split(";")) if raw else ()
        assert got == s.outliers


def test_svg_outlier_markers_match_count():
    s = _summary("alpha_1_1", [1.0, 1.0, 1.0, 1.0, 50.0, -50.0])
    doc = render_boxplot_svg("t", [s])
    root = ET.fromstring(doc)
    markers = [e for e in root.iter() if e.get("class") == "outlier"]
    assert len(markers) == len(s.outliers) == 2


def test_svg_axis_labels_use_greek_subscripts():
    doc = render_boxplot_svg(
        "t",
        [
            _summary("alpha_1_2", [1.0, 2.0]),
            _summary("alpha_2", [1.0, 2.0]),
            _summary("beta_3", [1.0, 2.0]),
            _summary("other", [1.0, 2.0]),
        ],
    )
    assert "α₁,₂" in doc
    assert "α₂" in doc
    assert "β₃" in doc
    assert ">other<" in doc  # unknown labels pass through untouched


def test_svg_constant_values_still_render():
    doc = render_boxplot_svg("t", [_summary("beta_1", [1.0, 1.0, 1.0])])
    assert "NaN" not in doc and "inf" not in doc
    ET.fromstring(doc)  # well-formed


def test_svg_escapes_title():
    doc = render_boxplot_svg("a < b & c", [_summary("x", [1.0, 2.0])])
    assert "a &lt; b &amp; c" in doc
    ET.fromstring(doc)


def test_svg_rejects_empty():
    with pytest.raises(DomainError):
        render_boxplot_svg("t", [])
