"""In-memory spans around armle's public functions, installed from outside.

A span is ``[name, start, end, parent]`` with times from ``time.perf_counter``
and ``parent`` the index of the enclosing span (-1 at the top). Wrappers are
bound wherever a caller module looks the name up: every ``armle`` module
attribute that holds the original function is replaced, so
``armle.cli.filter_observations`` and ``armle.state.filter_observations`` both
record. Methods are replaced on their class. ``uninstall`` restores everything.
A target the package no longer defines is skipped and reports zero.
"""
from __future__ import annotations

import functools
import sys
import time

#: Span name -> (defining module, attribute path). Names double as the prefix
#: of the per-layer metrics.
TARGETS = {
    "cli.main": ("armle.cli", "main"),
    "state.filter_observations": ("armle.state", "filter_observations"),
    "state.log_likelihood": ("armle.state", "log_likelihood"),
    "ar.simulate_series": ("armle.ar", "simulate_series"),
    "ar.require_stable": ("armle.ar", "require_stable"),
    "ar.apply_ar": ("armle.ar", "apply_ar"),
    "ar.fisher_info": ("armle.ar", "fisher_info"),
    "noise.sample_noise": ("armle.noise", "sample_noise"),
    "filtering.pacf_and_variances": ("armle.filtering", "pacf_and_variances"),
    "inference.mle": ("armle.inference", "mle"),
    "inference.lr_test": ("armle.inference", "lr_test"),
    "inference.chi2_quantile": ("armle.inference", "chi2_quantile"),
    "rng.substream": ("armle.rng", "substream"),
    "rng.standard_normals": ("armle.rng", "standard_normals"),
    "experiments.run_experiment": ("armle.experiments", "run_experiment"),
    "experiments.validate": ("armle.experiments", "ExperimentConfig.validate"),
    "experiments.aggregate": ("armle.experiments", "aggregate"),
    "experiments.write": ("armle.experiments", "ExperimentReport.write"),
}

#: Spans whose self time (duration minus wrapped children) is reported.
SELF_TIMES = {
    "cli.main": "cli.self_s",
    "experiments.run_experiment": "experiments.replicate_self_s",
}


def metric_names() -> list[str]:
    names = []
    for name in TARGETS:
        names += [f"{name}_s", f"{name}.calls"]
    return names + list(SELF_TIMES.values())


class Tracer:
    """Records spans while installed; ``rollup`` sums them per name."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "armle" or k.startswith("armle.")]
        for name, (modname, path) in TARGETS.items():
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:  # a name the package no longer has records nothing
                continue
            wrapper = self._wrap(name, original)
            if outer:  # a method: replace it on its class
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def rollup(self) -> dict[str, float]:
        """Total inclusive seconds and calls per span name, plus self times."""
        out = {m: 0.0 for m in metric_names()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[f"{name}_s"] += end - start
            out[f"{name}.calls"] += 1
            if name in SELF_TIMES:
                out[SELF_TIMES[name]] += end - start - covered
        return out
