"""The ttinherit benchmark: a closed loop of run_experiment calls.

One workload runs at a time.  Each run_experiment(config, write=True) call
happens in a fresh child interpreter (child.py) with the program's default
thread settings, one child after another until --seconds have passed, and
the end-to-end metrics are medians over the children.  With --trace 1 the
loop instead repeats four passes (untraced, traced, fully serial, and
default workers over single-threaded BLAS) and reports the per-layer
metrics named in BENCHMARK.json.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload paper --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, human-readable
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans
from child import close
from workloads import REFERENCE_SEED, TRIALS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_CHILDREN = 5  # end-to-end medians need at least this many run_experiment calls
SETUP_SAMPLES = 15  # setup_s is the median of at least this many child start-ups

NAN = float("nan")
SERIAL = {"TT_INHERIT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
TUNED = {"OPENBLAS_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here: no program, or a child that crashed or hung."""


class Runner:
    """Starts children for one workload and seed inside a private work dir."""

    def __init__(self, workload: str, seed: int, work: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = started
        self.count = 0

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def launch(self, env_overrides=None, flag: str | None = None) -> dict:
        """Run one child to completion and return its report.

        ``flag`` is passed on to child.py: ``--trace`` or ``--setup-only``.
        """
        self.count += 1
        report = self.work / f"child-{self.count}.json"
        out_dir = self.work / f"child-{self.count}-out"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)  # version_stamp's git stays in the checkout
        env.update(env_overrides or {})
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed), str(out_dir), str(report)]
        if flag:
            cmd.append(flag)
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"child still running after the {RUN_LIMIT_S:.0f} s a run may take") from None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0 or not report.exists():
            raise BenchError(f"child exited with code {proc.returncode}: {' '.join(cmd)}")
        result = json.loads(report.read_text(encoding="utf-8"))
        result["setup_s"] = result["built_at"] - launched
        if flag == "--setup-only":
            return result
        result["trials_per_s"] = result["completed"] / result["wall_s"]
        if flag == "--trace":
            result["spans"] = spans.load_spans(str(report) + ".spans")
        return result


def div(a: float, b: float) -> float:
    return a / b if b else NAN


def median(values) -> float:
    """Median, or NaN when every run that would give a sample failed."""
    xs = list(values)
    return statistics.median(xs) if xs else NAN


def problems_of(reports) -> list[str]:
    """Gate problems of every child, plus any disagreement between children."""
    out = [p for r in reports for p in r["problems"]]
    first = next((r["medians"] for r in reports if "medians" in r), {})
    for r in reports:
        for kind, per in r.get("medians", {}).items():
            for label, value in per.items():
                want = first.get(kind, {}).get(label)
                if want is None or not close(value, want):
                    out.append(f"children disagree on median {kind}/{label}: {value} vs {want}")
    return out


def account(reports) -> tuple[int, int]:
    """(attempted, failed) trials over all children.

    Every trial of a child whose run raised or failed the gate counts as failed.
    """
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["attempted"] if r["problems"] else r["attempted"] - r["completed"] for r in reports)
    return attempted, failed


def repeat(step, seconds: float, runner: Runner, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call
    should end within ``seconds`` of the start."""
    deadline = time.monotonic() + seconds
    count = 0
    last = 0.0
    while runner.time_left() > last and (count < minimum or time.monotonic() + last <= deadline):
        began = time.monotonic()
        step()
        last = time.monotonic() - began
        count += 1


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    reports = []
    repeat(lambda: reports.append(runner.launch()), seconds, runner, MIN_CHILDREN)
    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_SAMPLES and runner.time_left() > 0:
        setups.append(runner.launch(flag="--setup-only")["setup_s"])
    done = [r for r in reports if r["completed"]]
    attempted, failed = account(reports)
    metrics = {
        "trials_per_s": median(r["trials_per_s"] for r in reports),
        "cpu_s_per_trial": median(r["cpu_s"] / r["completed"] for r in done),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in done),
        "setup_s": median(setups),
        "completed_frac": 1.0 - failed / attempted,
    }
    return reports, metrics


def per_layer(runner: Runner, seconds: float) -> tuple[list[dict], dict, list[str]]:
    runs = defaultdict(list)
    passes = (("default", None, None), ("traced", None, "--trace"), ("serial", SERIAL, None), ("tuned", TUNED, None))

    def one_round():
        for tag, env, flag in passes:
            runs[tag].append(runner.launch(env, flag))

    repeat(one_round, seconds, runner, 1)
    if len(runs["traced"]) < 2 and runner.time_left() > 0:
        runs["traced"].append(runner.launch(None, "--trace"))  # the waste counters must repeat

    totals = [spans.layer_totals(r["spans"]) for r in runs["traced"] if "spans" in r]
    problems = []
    for name in spans.WASTE_COUNTERS:
        values = {t[name] for t in totals}
        if len(values) > 1:
            problems.append(f"{name} differs between runs at one seed: {sorted(values)}")
    T = defaultdict(float)
    for t in totals:
        for key, value in t.items():
            T[key] += value
    n = T["trials"]
    n_runs = len(totals)
    traced_done = [r for r in runs["traced"] if r["completed"]]
    defaults = [r for r in runs["default"] if r["completed"]]
    trial_s = [x for r in defaults for x in r["trial_s"]]
    pct, tail_s, samples = spans.tail(trial_s)

    def tps(tag):
        return median(r["trials_per_s"] for r in runs[tag])

    metrics = {
        "tt.interface.calls_per_trial": div(T["tt.interface.calls"], n),
        "tt.interface.left_per_trial": div(T["tt.interface.left"], n),
        "tt.interface.right_per_trial": div(T["tt.interface.right"], n),
        "tt.interface.useful_ratio": div(T["tt.interface.distinct"], T["tt.interface.calls"]),
        "tt.interface.s": div(T["tt.interface.s"], n),
        "tt.interface.bytes_per_trial": div(T["tt.interface.bytes"], n),
        "tt.unfolding_svd.calls_per_trial": div(T["tt.unfolding_svd.calls"], n),
        "tt.submatrix_svd.calls_per_trial": div(T["tt.submatrix_svd.calls"], n),
        "tt.factor.s": div(T["tt.factor.s"], n),
        "tt.row_restrict.s": div(T["tt.row_restrict.s"], n),
        "generators.generate.s": div(T["generators.generate.s"], n),
        "generators.attempts_per_trial": div(T["generators.attempts"], n),
        "linalg.ThinSVD.calls_per_trial": div(T["linalg.ThinSVD.calls"], n),
        "linalg.ThinSVD.s": div(T["linalg.ThinSVD.s"], n),
        "linalg.pinv_spectral_norm.calls_per_trial": div(T["linalg.pinv_spectral_norm.calls"], n),
        "linalg.pinv_spectral_norm.s": div(T["linalg.pinv_spectral_norm.s"], n),
        "multiindex.kron_extend.calls_per_trial": div(T["multiindex.kron_extend.calls"], n),
        "multiindex.derived_rng.calls_per_trial": div(T["multiindex.derived_rng.calls"], n),
        "multiindex.s": div(T["multiindex.s"], n),
        "properties.row_bounds.s": div(T["properties.row_bounds.s"], n),
        "properties.col_bounds.s": div(T["properties.col_bounds.s"], n),
        "properties.checks_per_trial": div(
            sum(r["checks"] for r in traced_done), sum(r["completed"] for r in traced_done)
        ),
        "experiment.run_trial.s_p50": median(trial_s),
        "experiment.run_trial.s_tail": tail_s,
        "experiment.run_trial.tail_pct": pct,
        "experiment.run_trial.samples": samples,
        "experiment.run_trial.child_frac": 1.0
        - div(T["experiment.run_trial.self_s"], T["experiment.run_trial.total_s"]),
        "experiment.pool.busy_frac": median(
            div(sum(r["trial_s"]), r["env"]["resolve_workers"] * r["wall_s"]) for r in defaults
        ),
        "experiment.pool.speedup": div(tps("default"), tps("serial")),
        "experiment.pool.vs_tuned": div(tps("default"), max(tps("serial"), tps("tuned"))),
        "experiment.sample.draws_per_trial": div(T["experiment.sample.draws"], n),
        "experiment.sample.accept_ratio": div(T["experiment.sample.calls"], T["experiment.sample.draws"]),
        "experiment.sample.s": div(T["experiment.sample.s"], n),
        "experiment.write_outputs.s": div(T["experiment.write_outputs.s"], n_runs),
        "experiment.write_outputs.bytes": median(r["out_bytes"] for r in defaults),
        "experiment.summarize_boxplot.s": div(T["experiment.summarize_boxplot.s"], n_runs),
        "svgplot.write_boxplot_svg.s": div(T["svgplot.write_boxplot_svg.s"], n_runs),
        "trace.slowdown": div(tps("default"), tps("traced")),
    }
    reports = [r for tag in runs for r in runs[tag]]
    return reports, metrics, problems


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, contract: dict) -> dict:
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, work, time.monotonic())
    try:
        if trace:
            reports, values, problems = per_layer(runner, seconds)
        else:
            reports, values = end_to_end(runner, seconds)
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += problems_of(reports)
    attempted, failed = account(reports)
    env = next((r["env"] for r in reports if "env" in r), {})
    print("env " + json.dumps(env, sort_keys=True))
    declared = contract["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{workload:6s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:6s} {'fail_frac':44s} {failed / attempted:.6g} frac ({failed} of {attempted} trials)")
    for p in dict.fromkeys(problems):  # every child reports the same problem
        print(f"{workload:6s} GATE FAIL: {p}")
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_reference(work: Path) -> None:
    """Record the reference seed's summary medians of every workload."""
    reference = {}
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in TRIALS:
            report = Runner(workload, REFERENCE_SEED, work, time.monotonic()).launch()
            if report["completed"] != report["attempted"]:
                raise BenchError(f"{workload}: not every trial completed at the reference seed")
            reference[workload] = report["medians"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(TRIALS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--write-reference", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not (SRC / "ttinherit" / "__init__.py").is_file():
            raise BenchError(f"no ttinherit package under {SRC}")
        if args.write_reference:
            write_reference(ROOT / ".perfbench" / f"run-{os.getpid()}")
            return 0
        contract = load_contract()
        workloads = sorted(TRIALS) if args.workload == "all" else [args.workload]
        correct = True
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), contract)
            correct = correct and result["correct"]
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
