"""Spans around the program's layers, recorded from outside the program.

`Tracer.install()` wraps the public functions and methods named in `LAYERS`
wherever a module of the program holds them (``from .x import f`` makes a
second reference), and `uninstall()` puts the originals back.  Each call of
a wrapped function records one span: name, start, end, the enclosing span
on the same thread, the command (request) it ran under, and a little data
taken from the call (columns per operator apply, iterations and residuals
per eigensolve).  Spans stay in memory until `dump` writes them out.

`layer_metrics` turns the spans of the traced passes into the per-layer
metrics, each per pass.  A layer's time counts only its outermost spans, so
a function that calls itself through another wrapped name is not counted
twice; self times subtract the child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: span name -> the (module, attribute path) of every function it wraps
LAYERS = {
    "cli.main": [("paneitzlab.cli", "main")],
    "specfile.load": [("paneitzlab.specfile", "load_manifold_spec")],
    "catalog.spectrum": [("paneitzlab.catalog", "paneitz_spectrum")],
    "bounds.verify": [("paneitzlab.bounds", name) for name in (
        "verify_thm_1_1", "verify_cor_1_1", "verify_thm_1_2", "verify_cor_3_1",
        "verify_thm_1_3", "verify_intro_bounds", "diagnose_equality")],
    "bounds.summarize": [("paneitzlab.bounds", "summarize_bundle")],
    "replay.analytic": [("paneitzlab.replay", "replay_proof_analytic")],
    "replay.numerical": [("paneitzlab.replay", "replay_proof")],
    "report.dump": [("paneitzlab.report", name)
                    for name in ("build_report", "dump_report", "sweep_csv")],
    "discrete.bundle": [("paneitzlab.discrete", "build_bundle")],
    "fourier.jet": [("paneitzlab.fourier", "FourierImmersion.jet")],
    "geometry.curvature": [("paneitzlab.geometry", "induced_metric"),
                           ("paneitzlab.geometry", "curvature_point")],
    "discrete.apply": [("paneitzlab.discrete", "PaneitzOperator.apply")],
    "discrete.penalty_estimate": [("paneitzlab.discrete", "PaneitzOperator.estimate_top")],
    "discrete.assembly": [("paneitzlab.discrete", "assemble_dense")],
    "eigensolve.spectrum": [("paneitzlab.eigensolve", "spectrum")],
    "eigensolve.dense": [("paneitzlab.eigensolve", "dense_spectrum")],
    "eigensolve.iterative": [("paneitzlab.eigensolve", "lanczos_smallest")],
}

#: layers whose time is reported as <name>_s
TIMED = ("discrete.apply", "discrete.penalty_estimate", "discrete.assembly",
         "eigensolve.dense", "eigensolve.iterative", "fourier.jet",
         "geometry.curvature", "discrete.bundle", "bounds.summarize",
         "replay.numerical", "specfile.load", "catalog.spectrum", "bounds.verify",
         "replay.analytic", "report.dump")

#: every per-layer metric with its unit, in report order
PER_LAYER = (
    [(f"{layer}_s", "s") for layer in TIMED]
    + [("discrete.apply_calls", "count"), ("discrete.apply_columns", "count"),
       ("eigensolve.iterative_self_s", "s"), ("eigensolve.iterations", "count"),
       ("eigensolve.worst_residual", "1"), ("fourier.jet_calls", "count"),
       ("cli.self_s", "s"), ("trace.spans", "count"), ("trace.overhead_s", "s")]
)


def _span_data(name: str, args, result) -> dict | None:
    """What a span keeps from its call beyond the timing."""
    if name == "discrete.apply":
        op, field = args[0], args[1]
        return {"columns": field.size // op.size}
    if name == "eigensolve.spectrum":
        return {"method": result.method, "iterations": result.iterations,
                "worst_residual": float(max(result.residuals, default=0.0))}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, request, thread, data)
        self.request = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- patching

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            if name == "cli.main":
                tracer.request += 1
            stack.append(span_id)
            start = time.perf_counter()
            data = None
            try:
                result = fn(*args, **kwargs)
                data = _span_data(name, args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.request,
                                     threading.get_ident(), data))

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        """Wrap every layer function in every loaded module of the program."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "paneitzlab" or key.startswith("paneitzlab.")]
        for name, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                if cls_path:        # a method: patch the class attribute only
                    self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                original = inspect.unwrap(getattr(owner, attr))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if callable(value) and inspect.unwrap(value) is original:
                            self._patch(module, key, self._wrap(name, value))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ---------------------------------------------------------------- output

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request", "thread", "data")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts are whole passes' worth)."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append(s)

        def outermost(s) -> bool:
            parent = s[4]
            while parent is not None:
                if by_id[parent][1] == s[1]:
                    return False
                parent = by_id[parent][4]
            return True

        totals = defaultdict(float)
        for s in self.spans:
            if outermost(s):
                totals[s[1]] += s[3] - s[2]
        out = {f"{layer}_s": totals[layer] / passes for layer in TIMED}

        applies = [s for s in self.spans if s[1] == "discrete.apply" and s[7]]
        solves = [s for s in self.spans if s[1] == "eigensolve.spectrum" and s[7]]
        out["discrete.apply_calls"] = len(applies) / passes
        out["discrete.apply_columns"] = sum(s[7]["columns"] for s in applies) / passes
        out["eigensolve.iterative_self_s"] = sum(
            (s[3] - s[2]) - sum(c[3] - c[2] for c in children[s[0]])
            for s in self.spans if s[1] == "eigensolve.iterative") / passes
        out["eigensolve.iterations"] = sum(s[7]["iterations"] or 0 for s in solves) / passes
        out["eigensolve.worst_residual"] = max(
            (s[7]["worst_residual"] for s in solves), default=0.0)
        out["fourier.jet_calls"] = sum(s[1] == "fourier.jet" for s in self.spans) / passes
        out["cli.self_s"] = self._cli_self() / passes
        out["trace.spans"] = len(self.spans) / passes
        return out

    def _cli_self(self) -> float:
        """Time in cli.main not covered by any layer span of the same command.

        Sweep samples run on pool threads, so a command's spans can overlap;
        the covered time is the union of their intervals.
        """
        covered = set(TIMED)
        by_request = defaultdict(list)
        for s in self.spans:
            if s[1] in covered:
                by_request[s[5]].append((s[2], s[3]))
        total = 0.0
        for s in self.spans:
            if s[1] != "cli.main":
                continue
            busy, reach = 0.0, s[2]
            for start, end in sorted(by_request[s[5]]):
                start, end = max(start, reach), min(end, s[3])
                if end > start:
                    busy += end - start
                    reach = end
            total += (s[3] - s[2]) - busy
        return total

    def solves(self) -> list[dict]:
        """One record per eigensolve: method, iterations, applies, seconds."""
        by_id = {s[0]: s for s in self.spans}
        out = {}
        for s in self.spans:
            if s[1] == "eigensolve.spectrum" and s[7]:
                out[s[0]] = dict(s[7], applies=0, seconds=s[3] - s[2])
        for s in self.spans:
            if s[1] != "discrete.apply":
                continue
            parent = s[4]
            while parent is not None and parent not in out:
                parent = by_id[parent][4]
            if parent is not None:
                out[parent]["applies"] += 1
        return [out[k] for k in sorted(out)]
