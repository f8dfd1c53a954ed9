"""The benchmark's workloads and how each builds its ExperimentConfig.

Every workload runs all three generators.  Why each workload exists is
recorded in BENCHMARK.json and README.md.  Trial counts are fixed per
workload so that one run_experiment call takes a few seconds at most and
the committed reference medians (reference.json) stay valid.
"""

from __future__ import annotations

REFERENCE_SEED = 42  # the presets' master seed; reference.json holds its medians

# trials per generator in one run_experiment call
TRIALS = {
    "paper": 4,
    "desk": 40,
    "deep": 10,
}


def build_config(workload: str, seed: int, output_dir: str):
    """The workload's ExperimentConfig with master seed ``seed``."""
    from ttinherit.experiment import ExperimentConfig, desk_preset, paper_preset
    from ttinherit.generators import KINDS

    trials = TRIALS[workload]
    if workload == "paper":
        return paper_preset(master_seed=seed, trials=trials, output_dir=output_dir)
    if workload == "desk":
        return desk_preset(master_seed=seed, trials=trials, output_dir=output_dir)
    ranks = (2, 3, 4, 3, 2)
    return ExperimentConfig(
        shape=(10,) * 6,
        ranks=ranks,
        generators=KINDS,
        trials=trials,
        master_seed=seed,
        sample_sizes_I=ranks,
        sample_sizes_J=ranks,
        # hadamard cores redraw up to 55 times at one level (200 seeds scanned);
        # the default budget of 25 would fail a trial at about 1 seed in 20
        max_resample=200,
        output_dir=output_dir,
    )
