"""Command-line interface: subcommands, overrides, exit codes."""

import argparse
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ttinherit.cli as cli_mod
import ttinherit.experiment as experiment_mod
from ttinherit import load_tt, run_experiment
from ttinherit.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, build_parser, load_config, main

from conftest import coherent_config, serve_coherent_tensor


@pytest.fixture()
def config_path(tmp_path):
    cfg = {
        "shape": [6, 6, 6, 6],
        "ranks": [2, 3, 2],
        "generators": ["gaussian"],
        "trials": 2,
        "sample_sizes_I": [4, 6, 4],
        "sample_sizes_J": [4, 6, 4],
        "master_seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------- run


def test_run_writes_artifacts_and_exits_zero(config_path, tmp_path, capsys):
    rc = main(["run", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "bound violations: 0" in out
    out_dir = tmp_path / "out"
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "boxplot_gaussian.svg").exists()


def test_run_output_dir_and_no_svg_flags(config_path, tmp_path):
    other = tmp_path / "elsewhere"
    rc = main(["run", "--config", str(config_path), "--output-dir", str(other), "--no-svg"])
    assert rc == EXIT_OK
    assert (other / "trials.csv").exists()
    assert not list(other.glob("*.svg"))


def test_run_seed_and_trials_overrides(config_path, tmp_path):
    rc = main(["run", "--config", str(config_path), "--seed", "123", "--trials", "1"])
    assert rc == EXIT_OK
    with open(tmp_path / "out" / "summary.json") as f:
        doc = json.load(f)
    assert doc["config"]["master_seed"] == 123
    assert doc["config"]["trials"] == 1
    assert doc["trials_completed"] == 1


def test_run_reports_failures_with_exit_one(config_path, monkeypatch, capsys):
    real = run_experiment

    def with_synthetic_failure(cfg, write=True):
        res = real(cfg, write=False)
        res.failures.append({"generator": "gaussian", "trial": 99, "error": "boom"})
        return res

    monkeypatch.setattr(cli_mod, "run_experiment", with_synthetic_failure)
    rc = main(["run", "--config", str(config_path)])
    assert rc == EXIT_VIOLATIONS
    assert "failed trials: 1" in capsys.readouterr().out


def test_run_makes_its_output_directory_before_the_first_trial(config_path, tmp_path,
                                                               monkeypatch, capsys):
    calls = []
    real = experiment_mod.run_trial

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiment_mod, "run_trial", counted)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["run", "--config", str(config_path), "--output-dir", str(blocker / "sub")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert calls == []


# ---------------------------------------------------------------- verify


def test_verify_ok_writes_nothing(config_path, tmp_path, capsys):
    rc = main(["verify", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "VERIFY: OK" in out
    assert not (tmp_path / "out").exists()


def test_verify_fail_exits_one(config_path, monkeypatch, capsys):
    real = run_experiment

    def with_synthetic_failure(cfg, write=True):
        res = real(cfg, write=False)
        res.failures.append({"generator": "gaussian", "trial": 99, "error": "boom"})
        return res

    monkeypatch.setattr(cli_mod, "run_experiment", with_synthetic_failure)
    rc = main(["verify", "--config", str(config_path)])
    assert rc == EXIT_VIOLATIONS
    assert "VERIFY: FAIL" in capsys.readouterr().out


def _one_failed_trial_config(tmp_path):
    """A config of which exactly one trial fails: hadamard trial 3 of this
    tiny geometry finds no full-rank draw."""
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "shape": [2, 2, 2, 2],
                "ranks": [2, 2, 2],
                "generators": ["gaussian", "hadamard"],
                "trials": 4,
                "sample_sizes_I": [2, 2, 2],
                "sample_sizes_J": [2, 2, 2],
                "master_seed": 3,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    return path


def test_verify_failed_generation_exits_one_and_keeps_trials(tmp_path, capsys):
    path = _one_failed_trial_config(tmp_path)
    with pytest.warns(RuntimeWarning, match="excluded"):
        rc = main(["verify", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == EXIT_VIOLATIONS
    assert "failed trials: 1" in out
    assert "gaussian  4 trials" in out and "hadamard  3 trials" in out
    assert "VERIFY: FAIL" in out


def test_verify_exits_one_when_a_coherent_tensor_exhausts_its_redraws(tmp_path, monkeypatch, capsys):
    cfg = coherent_config()
    serve_coherent_tensor(monkeypatch, cfg)
    path = tmp_path / "coherent.json"
    path.write_text(json.dumps(cfg.to_dict()))
    with pytest.warns(RuntimeWarning, match="excluded"):
        rc = main(["verify", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == EXIT_VIOLATIONS
    assert "failed trials: 1" in out
    assert "VERIFY: FAIL" in out


def test_a_failed_rank_hypothesis_exits_one_in_run_verify_and_report(tmp_path, monkeypatch,
                                                                      capsys):
    real = experiment_mod.check_row_sampling_bounds

    def one_failed_hypothesis(t, nested, *args, **kwargs):
        records = real(t, nested, *args, **kwargs)
        records[0] = dataclasses.replace(records[0], checks=())
        return records

    monkeypatch.setattr(experiment_mod, "check_row_sampling_bounds", one_failed_hypothesis)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"shape": [6, 6, 6], "ranks": [2, 2], "generators": ["gaussian"],
                                "trials": 1, "master_seed": 0,
                                "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(path)]) == EXIT_VIOLATIONS
    assert "rank-hypothesis failures: 1" in capsys.readouterr().out
    assert main(["verify", "--config", str(path)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "rank-hypothesis failures: 1" in out and "VERIFY: FAIL" in out
    assert main(["report", "--in", str(tmp_path / "out")]) == EXIT_VIOLATIONS


# ---------------------------------------------------------------- generate


def test_generate_writes_loadable_container(config_path, tmp_path, capsys):
    out_file = tmp_path / "tensor.ttc"
    rc = main(["generate", "--config", str(config_path), "--out", str(out_file)])
    assert rc == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    t, meta = load_tt(out_file)
    assert t.shape == (6, 6, 6, 6) and t.ranks == (2, 3, 2)
    assert meta["generator"] == "gaussian"
    assert meta["seed"] == 7
    assert meta["version"].startswith("0.1.0")


def test_generate_honors_generator_and_seed(config_path, tmp_path):
    a_path = tmp_path / "a.ttc"
    b_path = tmp_path / "b.ttc"
    assert main(["generate", "--config", str(config_path), "--out", str(a_path),
                 "--generator", "hadamard", "--seed", "5"]) == EXIT_OK
    assert main(["generate", "--config", str(config_path), "--out", str(b_path),
                 "--generator", "hadamard", "--seed", "5"]) == EXIT_OK
    a, meta_a = load_tt(a_path)
    b, _ = load_tt(b_path)
    assert meta_a["generator"] == "hadamard" and meta_a["seed"] == 5
    assert all(float(x) in (-1.0, 1.0) for core in a.cores for x in core.ravel())
    assert all((ca == cb).all() for ca, cb in zip(a.cores, b.cores))


# ---------------------------------------------------------------- report


def test_report_rebuilds_summaries(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out_dir = tmp_path / "out"
    (out_dir / "summary.json").unlink()
    (out_dir / "boxplot_gaussian.svg").unlink()
    rc = main(["report", "--in", str(out_dir)])
    assert rc == EXIT_OK
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "boxplot_gaussian.svg").exists()
    with open(out_dir / "summary.json") as f:
        doc = json.load(f)
    assert "gaussian" in doc["summaries"]
    assert "alpha_1_1" in doc["summaries"]["gaussian"]


def test_report_counts_nan_values_instead_of_failing(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    csv_path = tmp_path / "out" / "trials.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    # the first alpha_2 row gets the NaN a failed rank hypothesis records
    k = next(n for n, line in enumerate(lines) if ",alpha_2," in line)
    fields = lines[k].split(",")
    fields[5] = "nan"
    lines[k] = ",".join(fields)
    csv_path.write_text("".join(lines))
    assert main(["report", "--in", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "summary.json") as f:
        doc = json.load(f)
    assert doc["summaries"]["gaussian"]["alpha_2"]["excluded"] == 1
    assert doc["summaries"]["gaussian"]["alpha_1_1"]["excluded"] == 0


def test_report_flags_recorded_violations(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    csv_path = tmp_path / "out" / "trials.csv"
    text = csv_path.read_text()
    assert ",true," in text
    csv_path.write_text(text.replace(",true,", ",false,", 1))
    rc = main(["report", "--in", str(tmp_path / "out")])
    assert rc == EXIT_VIOLATIONS
    assert "bound failures present" in capsys.readouterr().out


def test_report_exits_one_when_the_run_record_lists_failed_trials(tmp_path, capsys):
    path = _one_failed_trial_config(tmp_path)
    with pytest.warns(RuntimeWarning, match="excluded"):
        assert main(["run", "--config", str(path)]) == EXIT_VIOLATIONS
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path / "out")]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "failed trials: 1" in out
    assert "bound failures present" not in out


def test_report_keeps_the_run_record(config_path, tmp_path):
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out_dir = tmp_path / "out"
    run_doc = json.loads((out_dir / "summary.json").read_text())
    run_svg = (out_dir / "boxplot_gaussian.svg").read_bytes()
    assert main(["report", "--in", str(out_dir)]) == EXIT_OK
    doc = json.loads((out_dir / "summary.json").read_text())
    for key in ("config", "threads", "trials_failed", "bound_violations",
                "rank_hypothesis_failures"):
        assert doc[key] == run_doc[key]
    assert list(doc) == list(run_doc)
    assert doc["summaries"] == run_doc["summaries"]
    assert (out_dir / "boxplot_gaussian.svg").read_bytes() == run_svg


@pytest.mark.parametrize(
    "field, bad, message",
    [
        (5, "abc", "value 'abc' is not a number"),
        (8, None, "fewer than 9 fields"),
        (6, "no", "bound_pass 'no' is not true or false"),
        pytest.param(5, "1" * 131_073, "field larger than field limit (131072)",
                     id="oversized field"),
        pytest.param(0, "gauss\0ian", "generator 'gauss\\x00ian' holds a path separator or NUL",
                     id="NUL in generator"),
        pytest.param(0, "gauss/ian", "generator 'gauss/ian' holds a path separator or NUL",
                     id="separator in generator"),
    ],
)
def test_report_malformed_trials_csv_is_usage_error(config_path, tmp_path, capsys,
                                                    field, bad, message):
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out_dir = tmp_path / "out"
    csv_path = out_dir / "trials.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    fields = lines[3].rstrip("\n").split(",")
    lines[3] = ",".join(fields[:field] + ([] if bad is None else [bad]) + fields[field + 1:]) + "\n"
    csv_path.write_text("".join(lines))
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert main(["report", "--in", str(out_dir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"trials.csv, line 4: {message}" in err
    # refused before anything is written
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files


def test_report_malformed_summary_json_is_usage_error(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    (tmp_path / "out" / "summary.json").write_text("[1, 2]")
    assert main(["report", "--in", str(tmp_path / "out")]) == EXIT_USAGE
    assert "summary.json: not a JSON object" in capsys.readouterr().err


def test_report_missing_csv_is_usage_error(tmp_path, capsys):
    rc = main(["report", "--in", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def _config_that_is_a_directory(tmp_path):
    return ["run", "--config", str(tmp_path)]


def _config_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"output_dir": "sortie-\u00e9"}'.encode("latin-1"))
    return ["run", "--config", str(path)]


def _trials_csv_that_is_a_directory(tmp_path):
    (tmp_path / "trials.csv").mkdir()
    return ["report", "--in", str(tmp_path)]


@pytest.mark.parametrize(
    "argv_in",
    [_config_that_is_a_directory, _config_that_is_not_utf8, _trials_csv_that_is_a_directory],
)
def test_a_file_that_cannot_be_read_is_usage_error(tmp_path, capsys, argv_in):
    rc = main(argv_in(tmp_path))
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------- usage errors


def test_bad_trials_override_is_usage_error(config_path, capsys):
    rc = main(["run", "--config", str(config_path), "--trials", "0"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_negative_seed_is_usage_error(config_path, capsys):
    rc = main(["run", "--config", str(config_path), "--seed", "-4"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(config_path, capsys):
    rc = main(["run", "--config", str(config_path), "--frobnicate"])
    assert rc == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["run", "--config", str(path)])
    assert rc == EXIT_USAGE
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_config_field_is_usage_error(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"shape": [6, 6], "ranks": [2], "trials": 1,
                                "master_seed": 0, "wat": 1}))
    rc = main(["run", "--config", str(path)])
    assert rc == EXIT_USAGE
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", "x"),
        ("rank_tol", "a"),
        ("max_resample", [1]),
        ("sample_sizes_I", ["a", 1, 2]),
        # values int()/float()/bool() would truncate or cast rather than refuse
        ("trials", 2.7),
        ("trials", True),
        ("master_seed", False),
        ("max_resample", 1.5),
        ("shape", [6.9, 6, 6, 6]),
        ("ranks", [2, True, 2]),
        ("sample_sizes_J", [4, 6.5, 4]),
        ("rank_tol", False),
        ("emit_svg", "false"),
        ("emit_svg", 0),
        ("output_dir", ""),
    ],
)
def test_malformed_config_value_is_usage_error(config_path, capsys, field, value):
    raw = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**raw, field: value}))
    rc = main(["run", "--config", str(config_path)])
    assert rc == EXIT_USAGE
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (config_path.parent / "out").exists()


def test_usage_lines_name_every_option_of_their_subcommand():
    lines = {
        line.split()[1]: line
        for line in cli_mod.__doc__.splitlines()
        if line.lstrip().startswith("ttinherit ")
    }
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(lines) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        options = set(re.findall(r"--[\w-]+", sub.format_usage()))
        assert set(re.findall(r"--[\w-]+", lines[name])) == options, name


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "usage: ttinherit" in capsys.readouterr().out


# ---------------------------------------------------------------- scale overlay


def test_scale_overlay_replaces_geometry(config_path):
    parser = build_parser()
    args = parser.parse_args(["verify", "--config", str(config_path), "--scale", "desk"])
    cfg = load_config(args)
    assert tuple(cfg.shape) == (20, 20, 20, 20)
    assert cfg.ranks == (2, 3, 2)
    assert cfg.sample_sizes_I == (8, 12, 8) and cfg.sample_sizes_J == (8, 12, 8)
    assert cfg.master_seed == 7  # non-geometry fields keep the config's values
    args = parser.parse_args(["verify", "--config", str(config_path), "--scale", "paper"])
    assert tuple(load_config(args).shape) == (100, 100, 100, 100)


# ---------------------------------------------------------------- entry points


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ttinherit", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "usage: ttinherit" in proc.stdout


def _declared_script_target(name):
    """The `module:attr` that pyproject.toml declares for a console script,
    or None when no TOML reader is available (tomllib is stdlib from 3.11)."""
    try:
        import tomllib
    except ModuleNotFoundError:
        try:
            import tomli as tomllib
        except ModuleNotFoundError:
            return None
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_console_script_entry_point():
    # An installed `ttinherit` on PATH is run as it is.  The `ttinherit`
    # executable exists only after an install, so the script that
    # pyproject.toml declares is also run through the body that installers
    # write into the wrapper, which needs no install.
    commands = []
    if shutil.which("ttinherit"):
        commands.append(["ttinherit", "--help"])
    target = _declared_script_target("ttinherit")
    if target is not None:
        module, _, attr = target.partition(":")
        wrapper = (
            "import sys\n"
            f"from {module} import {attr}\n"
            "sys.argv[0] = 'ttinherit'\n"
            f"sys.exit({attr}())\n"
        )
        commands.append([sys.executable, "-c", wrapper, "--help"])
    if not commands:
        pytest.skip("no ttinherit on PATH, and neither tomllib nor tomli to read pyproject.toml")
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "usage: ttinherit" in proc.stdout
