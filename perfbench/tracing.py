"""Outside-in tracing of respscreen's layers.

The benchmark wraps each layer's public functions by patching module
attributes from outside the package. A function reached through a name
re-bound by `from ... import` (for example `evaluate.grid_search`) is
patched at every such binding, so each call passes through exactly one
wrapper. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "respscreen"

# Layer -> public functions wrapped by the traced run.
LAYERS = {
    "audio_io": ("decode_wav", "resample", "trim_silence"),
    "dsp": ("stft", "frame_signal", "mel_filterbank", "dct_ii"),
    "features": ("extract_handcrafted", "onset_envelope", "frame_features",
                 "mfcc_features", "summarize"),
    "augment": ("augment_six", "pitch_speed", "add_white_noise"),
    "model": ("grid_search", "fit_pipeline", "fit_pca", "fit_lr", "fit_svm_rbf", "rbf_kernel"),
    "embeddings": ("load_embeddings", "pool", "combine"),
    "metrics": ("roc_auc", "precision_recall"),
    "dataset": ("load_manifest", "split_users", "balance"),
    "synth": ("generate_cohort", "generate_embeddings"),
    "evaluate": ("run_nested_cv", "sweep", "unit_vector", "FeatureStore.handcrafted"),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Ratios computed from the spans of one job (name -> unit).
RATIOS = {
    "dsp.stft.per_recording": "calls/rec",
    "dsp.mel_filterbank.per_recording": "calls/rec",
    "evaluate.feature_cache.hit_ratio": "ratio",
}
# Calls per feature extraction at the commit that added the benchmark. The
# traced run prints the current counts beside them; ROADMAP item 2 is meant
# to lower the first two, so they are reported, not enforced.
SEED_PER_EXTRACTION = {"dsp.stft": 5, "dsp.mel_filterbank": 3, "features.summarize": 43}
# Measured around whole jobs rather than from spans.
PROCESS_METRICS = {"process.cpu_s": "s", "trace.overhead_s": "s"}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.ms"] = "ms"
        units[f"{fn}.self_ms"] = "ms"
    units.update(RATIOS)
    units.update(PROCESS_METRICS)
    return units


def _package_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield name.rsplit(".", 1)[-1], module


def _bindings(function: str):
    """(owner, attribute, binding name) for every place `function` is bound.

    A method has a single binding, on its class. A module-level function
    is bound in its own module and in every module that imported it by
    name.
    """
    layer, qualname = function.split(".", 1)
    module = sys.modules[f"{PACKAGE}.{layer}"]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        return cls.__dict__[attr], [(cls, attr, function)]
    original = getattr(module, qualname)
    found = []
    for short, mod in _package_modules():
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr, f"{short}.{attr}"))
    return original, found


class Tracer:
    """Patches the wrapped functions while recording and keeps the spans.

    A span is [id, parent id, function name, run id, start ns, end ns];
    spans of one job share its run id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.binding_calls: Counter[str] = Counter()
        self._stack: list[int] = []
        self._run_id: str | None = None
        self._patches = []  # (owner, attribute, original, wrapper)
        self.bindings: dict[str, list[str]] = {}
        for function in FUNCTIONS:
            original, found = _bindings(function)
            self.bindings[function] = [b for _, _, b in found]
            for owner, attr, binding in found:
                self._patches.append((owner, attr, original, self._wrap(function, binding, original)))

    def _wrap(self, function: str, binding: str, original):
        spans, stack, calls = self.spans, self._stack, self.binding_calls

        @functools.wraps(original)
        def traced(*args, **kwargs):
            calls[binding] += 1
            span = [len(spans), stack[-1] if stack else None, function, self._run_id,
                    time.perf_counter_ns(), 0]
            spans.append(span)
            stack.append(span[0])
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = time.perf_counter_ns()

        return traced

    @contextmanager
    def recording(self, run_id: str):
        """Route calls through the wrappers, tagging spans with `run_id`."""
        self._run_id = run_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._run_id = None

    def coverage_problems(self, expected_bindings) -> list[str]:
        """Bindings the workload must call that are missing or saw no call."""
        known = {b for bs in self.bindings.values() for b in bs}
        problems = []
        for binding in expected_bindings:
            if binding not in known:
                problems.append(f"trace coverage: {binding} is not bound to a wrapped function")
            elif self.binding_calls[binding] == 0:
                problems.append(f"trace coverage: {binding} was wrapped but never called")
        return problems

    def run_totals(self) -> dict[str, dict[str, list[int]]]:
        """run id -> function -> [calls, total ns, self ns]."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0, 0]))
        for span_id, _, name, run, start, end in self.spans:
            entry = totals[run][name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[span_id]
        return totals

    def cache_misses(self) -> Counter[str]:
        """run id -> feature extractions made on a FeatureStore cache miss."""
        misses: Counter[str] = Counter()
        for _, parent, name, run, _, _ in self.spans:
            if (name == "features.extract_handcrafted" and parent is not None
                    and self.spans[parent][2] == "evaluate.FeatureStore.handcrafted"):
                misses[run] += 1
        return misses

    def per_layer(self, setup_run: str, job_runs: list[str]) -> dict[str, float]:
        """Per-layer values for one job: the set-up's share plus the median
        over traced jobs. Ratios are medians over traced jobs."""
        totals = self.run_totals()
        misses = self.cache_misses()
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            for i, suffix, scale in ((0, "calls", 1), (1, "ms", 1e-6), (2, "self_ms", 1e-6)):
                jobs = statistics.median(totals[r][fn][i] for r in job_runs)
                out[f"{fn}.{suffix}"] = (totals[setup_run][fn][i] + jobs) * scale

        def calls(fn):
            return lambda run: totals[run][fn][0]

        def job_ratio(num, den):
            return statistics.median(num(r) / den(r) if den(r) else 0.0 for r in job_runs)

        extractions = calls("features.extract_handcrafted")
        lookups = calls("evaluate.FeatureStore.handcrafted")
        out["dsp.stft.per_recording"] = job_ratio(calls("dsp.stft"), extractions)
        out["dsp.mel_filterbank.per_recording"] = job_ratio(calls("dsp.mel_filterbank"), extractions)
        out["evaluate.feature_cache.hit_ratio"] = job_ratio(lambda r: lookups(r) - misses[r], lookups)
        return out

    def write_spans(self, path) -> None:
        t0 = self.spans[0][4] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, run, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "run": run,
                                     "start_ns": start - t0, "end_ns": end - t0}) + "\n")
