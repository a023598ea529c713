"""Per-layer spans by interposition on tiltkit's public functions.

Nothing in tiltkit is instrumented.  While a :class:`Tracer` is installed,
module attributes are replaced by timing wrappers; ``uninstall`` restores
them.  A function is patched on every module that calls it through its own
global name: ``from .logio import parse_log`` in ``cli`` binds a second
name, so patching ``tiltkit.logio.parse_log`` alone would miss the CLI's
calls.  The same holds for ``tuning.run_filter_arrays`` and
``model.correction_pipeline_step``.

Each span records name, start, end, its parent span and the job it belongs
to.  Calls made once per sample (the correction step and ``motion_terms``)
are aggregated into a call count and busy time on the innermost open span,
because recording a span each would cost more than the call.
"""

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from math import isfinite
from statistics import median
from time import perf_counter

VARIANTS = ("wob", "wb", "abtg", "wa_a", "wa_b", "complementary", "kalman", "kalman_star")
TARGETS = ("lowpass", "wb", "wa_b", "kalman_star")
COMMANDS = ("simulate", "run", "eval", "spectrum", "tune")

# (module, attribute, span name): one span per call.
SPANS = (
    ("cli", "load_config", "config.load_config"),
    ("config", "load_config", "config.load_config"),
    ("cli", "parse_log", "logio.parse_log"),
    ("cli", "read_columns", "logio.read_columns"),
    ("cli", "write_log", "logio.write_log"),
    ("cli", "write_truth", "logio.write_truth"),
    ("logio", "write_log", "logio.write_log"),
    ("logio", "write_truth", "logio.write_truth"),
    ("cli", "simulate_run", "model.simulate_run"),
    ("model", "simulate_run", "model.simulate_run"),
    ("cli", "run_correction", "correction.run_correction"),
    ("tuning", "run_correction_arrays", "correction.run_correction_arrays"),
    ("filters", "make_filter", "filters.make_filter"),
    ("tuning", "make_filter", "filters.make_filter"),
    ("filters", "run_filter", "filters.run_filter"),
    ("filters", "run_filter_arrays", "filters.run_filter_arrays"),
    ("tuning", "run_filter_arrays", "filters.run_filter_arrays"),
    ("tuning", "check_stability", "filters.check_stability"),
    ("tuning", "tune_filter", "tuning.tune_filter"),
    ("tuning", "tune_time_constants", "tuning.tune_time_constants"),
    ("analysis", "mse", "analysis.mse"),
    ("tuning", "mse", "analysis.mse"),
    ("analysis", "noise_spectrum", "analysis.noise_spectrum"),
)

# (module, attribute, counter name): called once per sample, aggregated.
COUNTED = (
    ("model", "correction_pipeline_step", "model.shadow_step"),
    ("model", "motion_terms", "model.motion_terms"),
    ("correction", "correction_pipeline_step", "correction.pipeline_step"),
    ("correction", "motion_terms", "correction.motion_terms"),
)

# What each span records about its call, from its arguments and result.
_INFO = {
    "logio.parse_log": lambda a, r: {"rows": len(r), "bytes": os.path.getsize(a[0])},
    "logio.read_columns": lambda a, r: {"rows": len(next(iter(r.values()), ())),
                                        "bytes": os.path.getsize(a[0])},
    "logio.write_log": lambda a, r: {"rows": len(a[1]), "bytes": os.path.getsize(a[0])},
    "logio.write_truth": lambda a, r: {"rows": len(a[1]), "bytes": os.path.getsize(a[0])},
    "model.simulate_run": lambda a, r: {"samples": len(r[1])},
    "correction.run_correction": lambda a, r: {"samples": len(a[0])},
    "correction.run_correction_arrays": lambda a, r: {"samples": len(a[0])},
    "filters.run_filter": lambda a, r: {"variant": a[0].variant, "samples": len(r)},
    "tuning.tune_filter": lambda a, r: {"target": r.variant, "mse": r.training_mse,
                                        "iterations": r.iterations},
    "tuning.tune_time_constants": lambda a, r: {"target": "lowpass", "mse": r.mse,
                                                "iterations": r.opt.iterations},
    "tuning.objective": lambda a, r: {"rejected": not isfinite(r)},
}

TUNE_SPANS = ("tuning.tune_filter", "tuning.tune_time_constants")


class Span:
    __slots__ = ("sid", "job", "name", "parent", "start", "end", "attrs", "aggs")

    def __init__(self, sid, job, name, parent, start):
        self.sid = sid
        self.job = job
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = {}
        self.aggs = {}  # counter name -> [calls, busy seconds]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory spans of one process; ``job`` tags the spans opened next."""

    def __init__(self):
        self.spans = []
        self.job = "setup"
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(len(self.spans), self.job, name, parent, perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp):
        sp.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code (job, CLI command)."""
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _wrap(self, name, fn):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if info is not None:
                sp.attrs = info(args, result)
            return result
        return traced

    def _count(self, name, fn):
        stack = self._stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            agg = stack[-1].aggs.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += perf_counter() - t0
            return result
        return counted

    def _wrap_nelder_mead(self, fn):
        # The objective is a closure inside each tuner; wrapping it where
        # nelder_mead receives it also counts the f0 probe nelder_mead makes
        # outside scipy on every restart.
        def nelder_mead(objective, *args, **kwargs):
            return fn(self._wrap("tuning.objective", objective), *args, **kwargs)
        return self._wrap("tuning.nelder_mead", nelder_mead)

    def _patch(self, module, attr, make):
        mod = importlib.import_module(f"tiltkit.{module}")
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._wrap(name, fn))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, name=name: self._count(name, fn))
        self._patch("tuning", "nelder_mead", self._wrap_nelder_mead)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def repeats_exactly(name):
    """True for counts and other values that must repeat exactly from job to
    job, and from run to run with one seed; false for times and rates."""
    return name.endswith((".calls", ".evals", ".rejected", ".iterations", "_per_sample",
                          ".bytes_written", ".bytes_read", ".mse_deg2", ".useful_ratio"))


def unit(name):
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[1][:-len("_per_s")] + "/s"
    if name.endswith("_per_sample"):
        return "calls/sample"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith((".bytes_written", ".bytes_read")):
        return "B"
    if name.endswith(".mse_deg2"):
        return "deg2"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def _by_name(spans):
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
    return by_name


def _per_job(spans, kids):
    """Per-job values: busy and self times, call counts, tuner statistics."""
    def self_time(sp):
        return sp.duration - sum(c.duration for c in kids[sp.sid])

    by_name = _by_name(spans)

    def busy(name):
        return sum(sp.duration for sp in by_name[name])

    def calls(name):
        return len(by_name[name])

    root = by_name["job"][0]
    cli_spans = [sp for sp in spans if sp.name.startswith("cli.")]
    cli_ids = {sp.sid for sp in cli_spans}
    v = {}
    for cmd in COMMANDS:
        v[f"cli.{cmd}.busy_s"] = busy(f"cli.{cmd}")
        v[f"cli.{cmd}.self_s"] = sum(self_time(sp) for sp in by_name[f"cli.{cmd}"])
    v["cli.self_s"] = sum(self_time(sp) for sp in cli_spans)
    v["config.load_config.busy_s"] = busy("config.load_config")
    v["logio.parse_log.calls"] = calls("logio.parse_log")
    for key, fns in (("bytes_written", ("write_log", "write_truth")),
                     ("bytes_read", ("parse_log", "read_columns"))):
        v[f"logio.{key}"] = sum(sp.attrs.get("bytes", 0) for fn in fns
                                for sp in by_name[f"logio.{fn}"])
    v["correction.run_correction_arrays.calls"] = calls("correction.run_correction_arrays")
    v["filters.run_filter_arrays.calls"] = calls("filters.run_filter_arrays")
    v["filters.check_stability.calls"] = calls("filters.check_stability")
    v["analysis.mse.calls"] = calls("analysis.mse")
    v["analysis.mse.busy_s"] = busy("analysis.mse")
    v["analysis.noise_spectrum.busy_s"] = busy("analysis.noise_spectrum")

    index = {sp.sid: sp for sp in spans}

    def tune_ancestor(sp):
        while sp is not None and sp.name not in TUNE_SPANS:
            sp = index.get(sp.parent)
        return sp

    evals = defaultdict(int)
    rejected = defaultdict(int)
    for sp in by_name["tuning.objective"]:
        owner = tune_ancestor(sp)
        target = owner.attrs.get("target", "failed") if owner is not None else "other"
        evals[target] += 1
        rejected[target] += sp.attrs.get("rejected", True)  # raised: no value
    tune_spans = {sp.attrs.get("target", "failed"): sp
                  for name in TUNE_SPANS for sp in by_name[name]}
    for t in TARGETS:
        sp = tune_spans.get(t)
        v[f"tuning.{t}.busy_s"] = sp.duration if sp else 0.0
        v[f"tuning.{t}.evals"] = evals[t]
        v[f"tuning.{t}.rejected"] = rejected[t]
        v[f"tuning.{t}.useful_ratio"] = 1.0 - rejected[t] / evals[t] if evals[t] else 0.0
        v[f"tuning.{t}.iterations"] = sp.attrs.get("iterations", 0) if sp else 0
        v[f"tuning.{t}.mse_deg2"] = float(sp.attrs.get("mse", 0.0)) if sp else 0.0
    v["tuning.self_s"] = sum(self_time(sp) for sp in spans if sp.name.startswith("tuning."))

    top = sum(sp.duration for sp in kids[root.sid])
    layer = sum(sp.duration for sp in spans if sp.parent in cli_ids)
    v["trace.top_level_coverage"] = top / root.duration
    v["trace.uncovered_s"] = root.duration - top
    v["trace.layer_coverage"] = layer / root.duration
    return v


def summarize(tracer, traced_walls, untraced_walls, variant_mse):
    """The full per-layer table, plus the names of counts that changed
    between jobs.  Rates and per-sample ratios pool every traced call, set-up
    included (set-up is where replay and tune simulate); counts and busy
    times are per job, medians over the traced jobs."""
    spans = tracer.spans
    kids = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            kids[sp.parent].append(sp)
    by_name = _by_name(spans)

    def rate(spans_, key):
        t = sum(sp.duration for sp in spans_)
        return sum(sp.attrs.get(key, 0) for sp in spans_) / t if t > 0 else 0.0

    def us_per_call(name):
        ss = by_name[name]
        return 1e6 * sum(sp.duration for sp in ss) / len(ss) if ss else 0.0

    def agg(spans_, *names):
        calls = sum(sp.aggs.get(n, (0, 0.0))[0] for sp in spans_ for n in names)
        busy = sum(sp.aggs.get(n, (0, 0.0))[1] for sp in spans_ for n in names)
        return calls, busy

    m = {}
    sims = by_name["model.simulate_run"]
    sim_samples = sum(sp.attrs.get("samples", 0) for sp in sims)
    m["model.simulate_run.samples_per_s"] = rate(sims, "samples")
    m["model.self_s"] = (median(sp.duration - agg([sp], "model.shadow_step",
                                                  "model.motion_terms")[1] for sp in sims)
                         if sims else 0.0)
    m["model.shadow_steps_per_sample"] = (agg(sims, "model.shadow_step")[0] / sim_samples
                                          if sim_samples else 0.0)
    m["model.motion_terms_per_sample"] = (
        agg(sims, "model.motion_terms", "correction.motion_terms")[0] / sim_samples
        if sim_samples else 0.0)
    for fn in ("write_log", "write_truth", "parse_log", "read_columns"):
        m[f"logio.{fn}.rows_per_s"] = rate(by_name[f"logio.{fn}"], "rows")
    m["correction.run_correction.samples_per_s"] = rate(by_name["correction.run_correction"],
                                                        "samples")
    m["correction.run_correction_arrays.samples_per_s"] = rate(
        by_name["correction.run_correction_arrays"], "samples")
    steps, step_busy = agg(spans, "model.shadow_step", "correction.pipeline_step")
    m["correction.pipeline_step.us_per_call"] = 1e6 * step_busy / steps if steps else 0.0
    for v in VARIANTS:
        m[f"filters.run_filter.{v}.samples_per_s"] = rate(
            [sp for sp in by_name["filters.run_filter"] if sp.attrs.get("variant") == v], "samples")
        m[f"filters.{v}.mse_deg2"] = float(variant_mse.get(v, 0.0))
    for fn in ("run_filter_arrays", "check_stability", "make_filter"):
        m[f"filters.{fn}.us_per_call"] = us_per_call(f"filters.{fn}")

    jobs = sorted({sp.job for sp in spans if sp.job != "setup"})
    per_job = [_per_job([sp for sp in spans if sp.job == j], kids) for j in jobs]
    flags = []
    for name in per_job[0]:
        values = [v[name] for v in per_job]
        if repeats_exactly(name):
            if any(x != values[0] for x in values):
                flags.append(name)
            m[name] = values[0]
        else:
            m[name] = median(values)
    m["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    return m, flags
