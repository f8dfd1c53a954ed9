"""One benchmark run in a fresh interpreter.

Builds the workload's ExperimentConfig, calls ``run_experiment(config,
write=True)`` into OUTPUT_DIR, applies the correctness gate and writes a
JSON report to REPORT.  With ``--trace`` the calls between ttinherit's
modules are wrapped first and the spans go to REPORT.spans; with
``--setup-only`` it reports when the config was built and stops there.
run.py starts this script; it is not meant to be run by hand.

    python3 perfbench/child.py WORKLOAD SEED OUTPUT_DIR REPORT [--trace | --setup-only]
"""

import json
import os
import resource
import sys
import time
import traceback

from workloads import REFERENCE_SEED, build_config

RTOL = 1e-8  # reference medians must match to this relative tolerance
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def medians(result) -> dict:
    return {kind: {label: s.median for label, s in per.items()} for kind, per in result.summaries.items()}


def close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * abs(want)


def gate(result, attempted: int, workload: str, seed: int) -> list[str]:
    """Every reason the run's outputs are wrong; empty when they are right."""
    problems = []
    if result.bound_violations:
        problems.append(f"{result.bound_violations} bound violations")
    if result.hypothesis_failures:
        problems.append(f"{result.hypothesis_failures} rank-hypothesis failures")
    if len(result.results) != attempted:
        problems.append(f"{len(result.results)} of {attempted} trials completed")
    if seed == REFERENCE_SEED:
        try:
            with open(REFERENCE, encoding="utf-8") as f:
                reference = json.load(f).get(workload)
        except FileNotFoundError:
            reference = None
        if reference is None:
            return problems + [f"reference.json has no entry for {workload!r}"]
        got = medians(result)
        for kind, per in reference.items():
            for label, want in per.items():
                value = got.get(kind, {}).get(label)
                if value is None or not close(value, want):
                    problems.append(f"median {kind}/{label} = {value}, reference {want}")
    return problems


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    from ttinherit.experiment import resolve_workers, version_stamp

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "TT_INHERIT_THREADS": os.environ.get("TT_INHERIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "resolve_workers": resolve_workers(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "version_stamp": version_stamp(),
        "seed": seed,
    }


def output_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name)) for root, _dirs, names in os.walk(path) for name in names
    )


def main(argv) -> None:
    workload, seed, out_dir, report_path = argv[:4]
    seed = int(seed)
    config = build_config(workload, seed, out_dir)
    built_at = time.monotonic()
    if "--setup-only" in argv:
        with open(report_path, "w", encoding="utf-8") as f:
            json.dump({"built_at": built_at}, f)
        return

    tracer = None
    if "--trace" in argv:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    from ttinherit import experiment

    attempted = len(config.generators) * config.trials
    report = {"built_at": built_at, "attempted": attempted}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = experiment.run_experiment(config, write=True)
    except Exception:  # a run that raises is a failed run, not a crashed benchmark
        wall = time.perf_counter() - t0
        report.update(completed=0, problems=["run raised:\n" + traceback.format_exc()])
    else:
        wall = time.perf_counter() - t0
        report.update(
            completed=len(result.results),
            problems=gate(result, attempted, workload, seed),
            medians=medians(result),
            trial_s=[r.wall_time_s for r in result.results],
            checks=sum(len(rec.checks) for r in result.results for rec in r.records_rows + r.records_cols),
        )
    report.update(
        wall_s=wall,
        cpu_s=time.process_time() - cpu0,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        out_bytes=output_bytes(out_dir),
        env=environment(seed),
    )
    if tracer is not None:
        tracer.dump(report_path + ".spans")
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f)


if __name__ == "__main__":
    main(sys.argv[1:])
