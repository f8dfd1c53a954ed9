"""Acceptance gate: every stated criterion, each at its stated tolerance.

Each test prints one ``[acceptance NN] <name>: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output) and asserts the same condition, so
the suite fails if and only if a criterion does.
"""

import os
import resource
import threading
import time

import numpy as np
import pytest

from ttinherit import (
    CapacityError,
    GeneratorSpec,
    IndexSet,
    KINDS,
    Shape,
    alpha_i,
    alpha_it,
    beta_i,
    check_rank_preservation,
    column_submatrix,
    derived_rng,
    desk_preset,
    generate,
    kron_extend,
    paper_preset,
    run_experiment,
    sample_without_replacement,
    summarize_boxplot,
    thin_svd,
    to_dense,
    tt_incoherence,
)
import ttinherit.experiment as experiment_mod
from ttinherit.experiment import param_grid
from ttinherit.oracle import (
    cur_reconstruct_check,
    dense_alpha_it,
    dense_beta_i,
    dense_properties,
    dense_unfolding,
)

from conftest import make_tt, rel_err, sample_valid_sets


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"[acceptance {num:02d}] {name}: FAIL {detail}".rstrip()


# ------------------------------------------------------------------ shared runs


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("desk")
    cfg = desk_preset(output_dir=str(out_dir))
    start = time.perf_counter()
    result = run_experiment(cfg, write=True)
    return cfg, result, time.perf_counter() - start, out_dir


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("paper")
    cfg = paper_preset(output_dir=str(out_dir))
    start = time.perf_counter()
    result = run_experiment(cfg, write=True)
    return cfg, result, time.perf_counter() - start, out_dir


# ------------------------------------------------------------------ criterion 1


def test_acceptance_01_structured_matches_dense_oracle():
    tol = 1e-8
    start = time.perf_counter()
    problems = []
    per_kind = 50
    for kind in KINDS:
        for rep in range(per_kind):
            t = make_tt(kind, (6, 6, 6, 6), (2, 3, 2), seed=1000 + rep)
            X = to_dense(t)
            shp = Shape(t.shape)
            I_sets, J_sets, _ = sample_valid_sets(
                t, (4, 6, 4), (4, 6, 4), seed=2000 + rep
            )
            reports = tt_incoherence(t)
            for i in range(1, 4):
                dense = dense_properties(X, i)
                got = reports[i - 1]
                dsvd = thin_svd(dense_unfolding(X, i))
                for name, a, b in (
                    ("sigma", got.sigma, dsvd.sigma),
                    ("mu1", got.mu1, dense.mu1),
                    ("mu2", got.mu2, dense.mu2),
                    ("kappa", got.kappa, dense.kappa),
                ):
                    err = rel_err(np.asarray(a), np.asarray(b))
                    if err > tol:
                        problems.append(f"{kind}#{rep} unfolding {i} {name}: {err:.3e}")
            for i in range(1, 4):
                for t_off in range(1, 5 - i):
                    got = alpha_it(t, I_sets[i - 1], i, t_off)
                    want = dense_alpha_it(X, I_sets[i - 1], i, t_off)
                    if rel_err(got, want) > tol:
                        problems.append(f"{kind}#{rep} alpha_{i}_{t_off}")
            for i in (2, 3):
                got = alpha_i(t, I_sets[i - 2], i)
                want = dense_alpha_it(X, I_sets[i - 2], i - 1, 2)
                if rel_err(got, want) > tol:
                    problems.append(f"{kind}#{rep} alpha_{i}")
            for i in range(1, 4):
                got = beta_i(t, J_sets[i - 1], i)
                want = dense_beta_i(X, J_sets[i - 1], i)
                if rel_err(got, want) > tol:
                    problems.append(f"{kind}#{rep} beta_{i}")
            prev = IndexSet.full(1)
            for i in range(1, 4):
                rows = kron_extend(prev, t.shape[i - 1])
                got = column_submatrix(t, i, rows, J_sets[i - 1])
                want = dense_unfolding(X, i)[
                    np.ix_(rows.zero_based(), J_sets[i - 1].zero_based())
                ]
                if rel_err(got, want) > tol:
                    problems.append(f"{kind}#{rep} C_{i} entries")
                prev = I_sets[i - 1]
    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        problems.append(f"took {elapsed:.1f}s > 120s")
    _report(
        1,
        f"structured quantities match dense oracle at 1e-8 "
        f"({3 * per_kind} tensors, {elapsed:.1f}s)",
        not problems,
        "; ".join(problems[:10]),
    )


# ------------------------------------------------------------------ criterion 2


def test_acceptance_02_row_sampling_preserves_rank():
    checked = 0
    failed = []
    draw = 0
    while checked < 200 and draw < 260:
        kind = KINDS[draw % 3]
        t = make_tt(kind, (10, 10, 10, 10), (2, 3, 2), seed=3000 + draw)
        rng = derived_rng(4000 + draw, "acceptance", "rows")
        I = sample_without_replacement(IndexSet.full(10), 4, rng)
        report = check_rank_preservation(t, I)
        draw += 1
        if not report.hypothesis_ok:
            continue
        checked += 1
        if not report.passed or report.observed != (2, 3, 2):
            failed.append(f"{kind} draw {draw}: {report.observed}")
    ok = checked >= 200 and not failed
    _report(
        2,
        f"numerical TT-rank (2,3,2) preserved in {checked}/{checked} valid row draws",
        ok,
        f"valid draws {checked}, failures {failed[:5]}",
    )


# ------------------------------------------------------------------ criterion 3


def test_acceptance_03_skeleton_reconstruction_identity():
    checked = 0
    worst = 0.0
    failed = []
    draw = 0
    while checked < 50 and draw < 80:
        kind = KINDS[draw % 3]
        t = make_tt(kind, (6, 6, 6, 6), (2, 3, 2), seed=5000 + draw)
        rng = derived_rng(6000 + draw, "acceptance", "cur")
        I = sample_without_replacement(IndexSet.full(6), 4, rng)
        report = cur_reconstruct_check(t, I)
        draw += 1
        if not report.hypothesis_ok:
            continue
        checked += 1
        worst = max(worst, report.residual)
        if not report.passed:
            failed.append(f"{kind} draw {draw}: residual {report.residual:.3e}")
    ok = checked >= 50 and not failed and worst <= 1e-8
    _report(
        3,
        f"row/column skeleton rebuilds the tensor to 1e-8 "
        f"({checked} instances, worst residual {worst:.2e})",
        ok,
        f"valid {checked}, failures {failed[:5]}",
    )


# ------------------------------------------------------------------ criterion 4


def test_acceptance_04_inequality_suites_have_zero_violations(desk_run, paper_run):
    problems = []
    for scale, (cfg, result, _, _) in (("desk", desk_run), ("paper", paper_run)):
        expected = cfg.trials * len(cfg.generators)
        if len(result.results) != expected:
            problems.append(f"{scale}: {len(result.results)}/{expected} trials")
        if result.failures:
            problems.append(f"{scale}: {len(result.failures)} failed trials")
        if result.bound_violations:
            problems.append(f"{scale}: {result.bound_violations} bound violations")
        for res in result.results:
            for rec in res.records_rows + res.records_cols:
                if rec.rank_hypothesis_ok and not rec.satisfied:
                    problems.append(f"{scale}: {res.generator}#{res.trial} {rec.label}")
    _report(
        4,
        "all inheritance inequalities hold across 120 desk+paper trials",
        not problems,
        "; ".join(problems[:10]),
    )


# ------------------------------------------------------------------ criterion 5


def test_acceptance_05_exact_subinequalities_hold_without_slack(desk_run, paper_run):
    tight = 1e-10
    n_checked = 0
    problems = []
    for scale, (_, result, _, _) in (("desk", desk_run), ("paper", paper_run)):
        for res in result.results:
            for rec in res.records_rows:
                if not rec.rank_hypothesis_ok:
                    continue
                for c in rec.checks:
                    if c.name == "mu2":
                        n_checked += 1
                        if c.lhs > c.rhs * (1.0 + tight):
                            problems.append(
                                f"{scale} {res.generator}#{res.trial} {rec.label} mu2"
                            )
            for rec in res.records_cols:
                if rec.kind != "beta_i" or rec.i != 1 or not rec.rank_hypothesis_ok:
                    continue
                for c in rec.checks:
                    if c.name == "mu1":
                        n_checked += 1
                        if c.lhs > c.rhs * (1.0 + tight):
                            problems.append(
                                f"{scale} {res.generator}#{res.trial} beta_1 mu1"
                            )
    ok = n_checked >= 120 * 7 and not problems
    _report(
        5,
        f"factor-free sub-inequalities exact to 1e-10 ({n_checked} checks)",
        ok,
        f"checked {n_checked}; " + "; ".join(problems[:10]),
    )


# ------------------------------------------------------------------ criterion 6


def test_acceptance_06_full_scale_reproduction(paper_run):
    cfg, result, elapsed, out_dir = paper_run
    problems = []

    if len(result.results) != 60 or result.failures:
        problems.append(f"completed {len(result.results)}/60, failures {result.failures}")
    if elapsed > 600.0:
        problems.append(f"run took {elapsed:.1f}s > 600s")
    labels = [g[0] for g in param_grid(4)]
    for res in result.results:
        for label in labels:
            if not np.isfinite(res.values[label]):
                problems.append(f"{res.generator}#{res.trial} {label} not finite")

    # every factor is bounded below by the square root of its sample fraction
    shp = cfg.shape
    for res in result.results:
        for label, family, i, _t in param_grid(4):
            if family == "alpha_it":
                frac = cfg.sample_sizes_I[i - 1] / shp.prefix_size(i)
            elif family == "alpha_i":
                frac = cfg.sample_sizes_I[i - 2] / shp.prefix_size(i - 1)
            else:
                frac = cfg.sample_sizes_J[i - 1] / shp.suffix_size(i)
            if res.values[label] < np.sqrt(frac) - 1e-12:
                problems.append(f"{res.generator}#{res.trial} {label} below sqrt fraction")

    # control trials with full index sets: every factor collapses to exactly 1
    control = cfg.replace(
        trials=2,
        sample_sizes_I=(100, 10_000, 1_000_000),
        sample_sizes_J=(1_000_000, 10_000, 100),
    )
    ctrl = run_experiment(control, write=False)
    if len(ctrl.results) != 6 or ctrl.failures:
        problems.append("control run incomplete")
    for res in ctrl.results:
        for label in labels:
            if abs(res.values[label] - 1.0) > 1e-10:
                problems.append(
                    f"control {res.generator}#{res.trial} {label} = {res.values[label]!r}"
                )

    # no densification: a full-scale tensor refuses to materialize
    big = generate(GeneratorSpec("gaussian", cfg.shape, cfg.ranks, seed=0))
    try:
        to_dense(big)
        problems.append("to_dense at full scale did not raise")
    except CapacityError:
        pass

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak_kb > 2 * 1024 * 1024:
        problems.append(f"peak RSS {peak_kb / 1024:.0f} MiB > 2 GiB")

    if not (out_dir / "trials.csv").exists() or not (out_dir / "summary.json").exists():
        problems.append("artifacts missing")

    _report(
        6,
        f"100^4 experiment reproduced in {elapsed:.1f}s, "
        f"peak RSS {peak_kb / 1024:.0f} MiB, control factors exactly 1",
        not problems,
        "; ".join(problems[:10]),
    )


# ------------------------------------------------------------------ criterion 7


def _strip_timing(csv_text: str) -> list[str]:
    lines = csv_text.splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def test_acceptance_07_runs_are_deterministic(tmp_path, monkeypatch):
    cfg = desk_preset(trials=6)
    run_experiment(cfg.replace(output_dir=str(tmp_path / "alone")), write=True)

    # two identical runs at once, from two threads; both wait inside their
    # first trial until the other arrives, so their BLAS budgets overlap
    real, arrived = experiment_mod.run_trial, threading.Barrier(2, timeout=60)

    def meeting(config, kind, trial):
        if (kind, trial) == (cfg.generators[0], 0):
            arrived.wait()
        return real(config, kind, trial)

    monkeypatch.setattr(experiment_mod, "run_trial", meeting)
    runs = [
        threading.Thread(
            target=run_experiment, args=(cfg.replace(output_dir=str(tmp_path / name)), True)
        )
        for name in ("x", "y")
    ]
    for run in runs:
        run.start()
    for run in runs:
        run.join()

    alone, x, y = (
        _strip_timing((tmp_path / name / "trials.csv").read_text()) for name in ("alone", "x", "y")
    )
    ok = alone == x == y and len(alone) == 1 + 6 * 3 * 11
    _report(
        7,
        "identical config and seed give byte-identical trial rows, also from two threads at once",
        ok,
        f"{len(alone)}, {len(x)} and {len(y)} lines",
    )


# ------------------------------------------------------------------ criterion 8


def test_acceptance_08_boxplot_summaries_are_exact():
    problems = []

    s = summarize_boxplot([1.0, 2.0, 3.0, 4.0, 5.0])
    if (s.median, s.q1, s.q3, s.whisker_low, s.whisker_high, s.outliers, s.mean) != (
        3.0, 2.0, 4.0, 1.0, 5.0, (), 3.0,
    ):
        problems.append(f"plain example: {s}")

    s = summarize_boxplot([1.0, 2.0, 3.0, 4.0, 100.0])
    if (s.q1, s.q3, s.whisker_low, s.whisker_high, s.outliers, s.mean) != (
        2.0, 4.0, 1.0, 4.0, (100.0,), 22.0,
    ):
        problems.append(f"outlier example: {s}")

    rng = np.random.default_rng(8)
    for rep in range(1000):
        n = int(rng.integers(1, 40))
        vals = rng.normal(scale=float(rng.uniform(0.5, 20.0)), size=n)
        if rep % 3 == 0 and n > 4:  # force ties and far-out points sometimes
            vals[: n // 2] = vals[0]
            vals[-1] *= 50.0
        s = summarize_boxplot(vals)
        q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        inside = (vals >= s.whisker_low) & (vals <= s.whisker_high)
        checks = (
            s.q1 == q1 and s.median == med and s.q3 == q3,
            s.mean == vals.mean(),
            s.whisker_low in vals and s.whisker_high in vals,
            s.whisker_low >= q1 - 1.5 * iqr and s.whisker_high <= q3 + 1.5 * iqr,
            all(v < s.whisker_low or v > s.whisker_high for v in s.outliers),
            len(s.outliers) + int(inside.sum()) == n,
            s.outliers == tuple(sorted(vals[~inside])),
        )
        if not all(checks):
            problems.append(f"rep {rep}: {[int(c) for c in checks]}")
    _report(
        8,
        "boxplot summaries exact on hand examples and 1000 random inputs",
        not problems,
        "; ".join(problems[:5]),
    )
