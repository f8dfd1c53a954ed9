"""In-memory spans around the calls between ttinherit's modules, and the
arithmetic that turns them into per-layer metrics.

A span is ``[sid, name, start, end, parent, trial, attrs]``.  The parent is
the innermost open span on the same thread, so trials running on the pool
keep separate call trees; ``trial`` is ``"generator:trial"`` inside
``run_trial`` and ``None`` outside it.  Spans are appended to a list while
the program runs and written out only when it ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Records one span per call of every function it wraps, raising or not."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
        return local

    def wrap(self, name, fn, trial_of=None, attrs_of=None):
        """``fn`` recording a span named ``name`` per call.

        ``trial_of(args)`` names the trial the call starts; ``attrs_of(args,
        result)`` returns extra fields, computed after the span has ended.
        """
        clock = time.perf_counter
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._state()
            stack = local.stack
            outer_trial = local.trial
            if trial_of is not None:
                local.trial = trial_of(args)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = [sid, name, start, end, parent, local.trial, None]
                spans.append(span)
                local.trial = outer_trial
            if attrs_of is not None:
                span[6] = attrs_of(args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _tensor_key(t) -> str:
    """Identity of a TT tensor within a trial: its shape and first core.

    Subtensors share the parent's trailing cores, and redrawn tensors share
    the parent's shape, so both parts are needed.
    """
    h = hashlib.blake2b(repr(t.shape).encode(), digest_size=8)
    h.update(t.cores[0].tobytes())
    return h.hexdigest()


def _interface_attrs(side):
    def attrs_of(args, result):
        return {"side": side, "i": int(args[1]), "key": _tensor_key(args[0]), "bytes": int(result.nbytes)}

    return attrs_of


# (calling module, attribute, span name).  Each callee is wrapped under the
# name its caller looks it up by, so a span sits on the boundary between two
# modules; the span name is the callee's module and function.  Only callees
# some metric reads are wrapped; the rest (properties.alpha_it,
# linalg.numerical_rank, ...) count as their caller's self time.
TARGETS = (
    ("experiment", "run_trial", "experiment.run_trial"),
    ("experiment", "_sample_level", "experiment.sample"),
    ("experiment", "summarize_boxplot", "experiment.summarize_boxplot"),
    ("experiment", "write_outputs", "experiment.write_outputs"),
    ("experiment", "write_boxplot_svg", "svgplot.write_boxplot_svg"),
    ("experiment", "generate", "generators.generate"),
    ("experiment", "unfolding_svd", "tt.unfolding_svd"),
    ("experiment", "check_row_sampling_bounds", "properties.row_bounds"),
    ("experiment", "check_column_sampling_bounds", "properties.col_bounds"),
    ("experiment", "kron_extend", "multiindex.kron_extend"),
    ("experiment", "derived_rng", "multiindex.derived_rng"),
    ("experiment", "derived_seed", "multiindex.derived_seed"),
    ("experiment", "sample_without_replacement", "multiindex.sample_without_replacement"),
    ("generators", "tt_rank_numerical", "tt.tt_rank_numerical"),
    ("generators", "derived_rng", "multiindex.derived_rng"),
    ("tt", "left_interface", "tt.left_interface"),
    ("tt", "right_interface", "tt.right_interface"),
    ("tt", "unfolding_svd", "tt.unfolding_svd"),
    ("tt", "ThinSVD", "linalg.ThinSVD"),
    ("properties", "row_restrict", "tt.row_restrict"),
    ("properties", "submatrix_svd", "tt.submatrix_svd"),
    ("properties", "unfolding_svd", "tt.unfolding_svd"),
    ("properties", "pinv_spectral_norm", "linalg.pinv_spectral_norm"),
    ("properties", "kron_extend", "multiindex.kron_extend"),
)


def instrument(tracer: Tracer):
    """Replace every target in ttinherit's module namespaces by its wrapper.

    Returns a function that puts the originals back.
    """
    special = {
        "experiment.run_trial": {"trial_of": lambda args: f"{args[1]}:{args[2]}"},
        "tt.left_interface": {"attrs_of": _interface_attrs("L")},
        "tt.right_interface": {"attrs_of": _interface_attrs("R")},
    }
    originals = []
    for module, attr, name in TARGETS:
        mod = importlib.import_module(f"ttinherit.{module}")
        fn = getattr(mod, attr)
        originals.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(name, fn, **special.get(name, {})))

    def restore():
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)

    return restore


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    (spans running concurrently under one parent) are counted once.
    """
    children = defaultdict(list)
    for sid, _name, start, end, parent, _trial, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _trial, _attrs in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples)``: the value is the eleventh
    largest sample, so ten samples rank above it, and its percentile is
    ``100 * (n - 10) / n``.  With ten samples or fewer no such percentile
    exists and the maximum is returned at percentile 100; with none, NaN.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return float("nan"), float("nan"), 0
    if n <= 10:
        return 100.0, xs[-1], n
    return 100.0 * (n - 10) / n, xs[n - 11], n


# counters that must repeat exactly between runs at one seed; later changes
# that remove waste claim on these
WASTE_COUNTERS = (
    "tt.interface.calls",
    "tt.unfolding_svd.calls",
    "generators.attempts",
    "experiment.sample.draws",
)


def layer_totals(spans) -> dict[str, float]:
    """Whole-run counts and self times, keyed by metric stem."""
    self_s = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    for span in spans:
        calls[span[1]] += 1
        self_by_name[span[1]] += self_s[span[0]]

    def parent_name(span):
        parent = by_id.get(span[4])
        return parent[1] if parent is not None else None

    interfaces = [s for s in spans if s[1] in ("tt.left_interface", "tt.right_interface")]
    distinct = {(s[5], s[6]["key"], s[6]["side"], s[6]["i"]) for s in interfaces}
    trial_spans = [s for s in spans if s[1] == "experiment.run_trial"]
    return {
        "trials": len(trial_spans),
        "experiment.run_trial.total_s": sum(s[3] - s[2] for s in trial_spans),
        "experiment.run_trial.self_s": self_by_name["experiment.run_trial"],
        "tt.interface.calls": len(interfaces),
        "tt.interface.left": calls["tt.left_interface"],
        "tt.interface.right": calls["tt.right_interface"],
        "tt.interface.distinct": len(distinct),
        "tt.interface.bytes": sum(s[6]["bytes"] for s in interfaces),
        "tt.interface.s": self_by_name["tt.left_interface"] + self_by_name["tt.right_interface"],
        "tt.unfolding_svd.calls": calls["tt.unfolding_svd"],
        "tt.submatrix_svd.calls": calls["tt.submatrix_svd"],
        "tt.factor.s": self_by_name["tt.unfolding_svd"] + self_by_name["tt.submatrix_svd"],
        "tt.row_restrict.s": self_by_name["tt.row_restrict"],
        "generators.generate.s": self_by_name["generators.generate"],
        "generators.attempts": sum(
            1 for s in spans if s[1] == "tt.tt_rank_numerical" and parent_name(s) == "generators.generate"
        ),
        "linalg.ThinSVD.calls": calls["linalg.ThinSVD"],
        "linalg.ThinSVD.s": self_by_name["linalg.ThinSVD"],
        "linalg.pinv_spectral_norm.calls": calls["linalg.pinv_spectral_norm"],
        "linalg.pinv_spectral_norm.s": self_by_name["linalg.pinv_spectral_norm"],
        "multiindex.kron_extend.calls": calls["multiindex.kron_extend"],
        "multiindex.derived_rng.calls": calls["multiindex.derived_rng"],
        "multiindex.s": sum(v for k, v in self_by_name.items() if k.startswith("multiindex.")),
        "properties.row_bounds.s": self_by_name["properties.row_bounds"],
        "properties.col_bounds.s": self_by_name["properties.col_bounds"],
        "experiment.sample.calls": calls["experiment.sample"],
        "experiment.sample.draws": sum(
            1
            for s in spans
            if s[1] == "multiindex.sample_without_replacement" and parent_name(s) == "experiment.sample"
        ),
        "experiment.sample.s": self_by_name["experiment.sample"],
        "experiment.write_outputs.s": self_by_name["experiment.write_outputs"],
        "experiment.summarize_boxplot.s": self_by_name["experiment.summarize_boxplot"],
        "svgplot.write_boxplot_svg.s": self_by_name["svgplot.write_boxplot_svg"],
    }
