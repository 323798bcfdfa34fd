"""Span tracing of surrokit from outside the package.

`Tracer.installed()` wraps the public functions and methods that each layer
exposes and patches every name under which surrokit looks them up (a name
bound by ``from .x import f`` lives in the importing module too), so no
file of the package changes. Each wrapped call records one span: name,
start, end and parent span. Spans stay in memory; `reduce_pass` turns the
spans of one workload pass into the per-layer metrics, and `dump` writes
them out at the end of a run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from surrokit import (bee_colony, cli, design_space, metamodel, metrics,
                      mofa, oracles, training, vams_codegen)

PREDICT_FAMILIES = {"ann": metamodel.AnnModel, "rbf": metamodel.RbfModel,
                    "poly": metamodel.PolyModel}
CLI_COMMANDS = {"sample": "cmd_sample", "train": "cmd_train",
                "optimize-mofa": "cmd_optimize_mofa",
                "optimize-abc": "cmd_optimize_abc",
                "emit-vams": "cmd_emit_vams"}

# (module, attribute) -> span name; the layer is the span name's first part
FUNCTION_SPANS = [
    (design_space, "lhs_sample", "design_space.lhs_sample"),
    (design_space, "lhs_disjoint", "design_space.lhs_disjoint"),
    (oracles, "evaluate", "oracles.evaluate"),
    (oracles, "save_csv", "oracles.csv"),
    (oracles, "load_csv", "oracles.csv"),
    (training, "train_ann", "training.train_ann"),
    (training, "train_rbf", "training.train_rbf"),
    (training, "fit_polynomial", "training.fit_polynomial"),
    (metrics, "fit_report", "metrics.fit_report"),
    (mofa, "mofa_optimize", "mofa.mofa_optimize"),
    (mofa, "non_dominated", "mofa.non_dominated"),
    (bee_colony, "abc_optimize", "bee_colony.abc_optimize"),
    (vams_codegen, "export_weights", "vams_codegen.export_weights"),
    (vams_codegen, "emit_vams_module", "vams_codegen.emit_vams_module"),
] + [(cli, fn, f"cli.{cmd}") for cmd, fn in CLI_COMMANDS.items()]
METHOD_SPANS = [(cls, "predict", f"metamodel.{fam}.predict")
                for fam, cls in PREDICT_FAMILIES.items()]
METHOD_SPANS.append((bee_colony.FomProblem, "evaluate",
                     "bee_colony.FomProblem.evaluate"))
# hot helpers that are only counted, not timed
COUNTERS = [(training, "ann_loss_and_gradient", "training.ann_epochs"),
            (mofa, "move_vector", "mofa.move_vector.calls")]

LAYERS = ("design_space", "oracles", "training", "metamodel", "metrics",
          "mofa", "bee_colony", "vams_codegen", "cli")

# name -> (unit, better); the fixed list every traced run reports
PER_LAYER = {
    "design_space.lhs_sample.s": ("s", "lower"),
    "design_space.lhs_disjoint.s": ("s", "lower"),
    "design_space.rows": ("count", "lower"),
    "oracles.evaluate.s": ("s", "lower"),
    "oracles.evaluate.rows": ("count", "lower"),
    "oracles.csv.s": ("s", "lower"),
    "training.train_ann.s": ("s", "lower"),
    "training.ann_epochs": ("count", "lower"),
    "training.ann_epoch_us": ("us", "lower"),
    "training.train_rbf.s": ("s", "lower"),
    "training.rbf_neurons": ("count", "lower"),
    "training.fit_polynomial.s": ("s", "lower"),
    "training.poly_candidates": ("count", "lower"),
    "training.poly_terms_kept": ("count", "lower"),
    **{f"metamodel.{fam}.predict.{what}": unit
       for fam in PREDICT_FAMILIES
       for what, unit in (("s", ("s", "lower")), ("calls", ("count", "lower")),
                          ("rows", ("count", "lower")),
                          ("rows_per_call", ("rows/call", "higher")))},
    "metrics.fit_report.s": ("s", "lower"),
    "mofa.mofa_optimize.s": ("s", "lower"),
    "mofa.non_dominated.s": ("s", "lower"),
    "mofa.non_dominated.calls": ("count", "lower"),
    "mofa.non_dominated.max_n": ("count", "lower"),
    "mofa.move_vector.calls": ("count", "lower"),
    "mofa.moves_per_attempt": ("ratio", "higher"),
    "bee_colony.abc_optimize.s": ("s", "lower"),
    "bee_colony.FomProblem.evaluate.calls": ("count", "lower"),
    "bee_colony.FomProblem.evaluate.rows": ("count", "lower"),
    "vams_codegen.export_weights.s": ("s", "lower"),
    "vams_codegen.emit_vams_module.s": ("s", "lower"),
    "vams_codegen.bytes_written": ("bytes", "lower"),
    **{f"cli.{cmd}.{what}": ("s", "lower")
       for cmd in CLI_COMMANDS for what in ("s", "self_s")},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


def _rows(x) -> int:
    shape = getattr(x, "shape", None) or np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.passes: list[tuple[list, dict]] = []
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _span_wrapper(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(key)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every lookup site for the wrapped names; undo on exit."""
        after = _AFTER_HOOKS
        patches = []
        targets = [(m, a, self._span_wrapper(n, getattr(m, a), after.get(n)))
                   for m, a, n in FUNCTION_SPANS]
        targets += [(m, a, self._counter_wrapper(k, getattr(m, a)))
                    for m, a, k in COUNTERS]
        modules = [mod for name, mod in sys.modules.items()
                   if name == "surrokit" or name.startswith("surrokit.")]
        for _, attr, wrapper in targets:
            original = wrapper.__wrapped__
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for cls, attr, name in METHOD_SPANS:
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self._span_wrapper(name, original,
                                                  after.get(name)))
        try:
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    @contextmanager
    def traced_pass(self):
        """Record one workload pass under a root `bench.pass` span."""
        self.spans, self.counts, self._stack = [], {}, []
        with self.installed():
            root = self._open("bench.pass")
            try:
                yield
            finally:
                self._close(root)
        self.passes.append((self.spans, self.counts))

    # -- reduction ---------------------------------------------------------

    def reduce_pass(self, spans, counts) -> dict[str, float]:
        """Per-layer metrics of one traced pass (zero where unused)."""
        n = len(spans)
        dur = np.array([s[2] - s[1] for s in spans])
        parent = np.array([s[3] for s in spans], dtype=int)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        names = [self.names[s[0]] for s in spans]

        total, self_by_name, calls = {}, {}, {}
        for name, d, st in zip(names, dur, self_time):
            total[name] = total.get(name, 0.0) + d
            self_by_name[name] = self_by_name.get(name, 0.0) + st
            calls[name] = calls.get(name, 0) + 1

        out = {key: 0.0 for key in PER_LAYER}
        for key in ("design_space.lhs_sample", "design_space.lhs_disjoint",
                    "oracles.evaluate", "oracles.csv", "training.train_ann",
                    "training.train_rbf", "training.fit_polynomial",
                    "metrics.fit_report", "mofa.mofa_optimize",
                    "mofa.non_dominated", "bee_colony.abc_optimize",
                    "vams_codegen.export_weights",
                    "vams_codegen.emit_vams_module"):
            out[f"{key}.s"] = total.get(key, 0.0)
        for fam in PREDICT_FAMILIES:
            key = f"metamodel.{fam}.predict"
            out[f"{key}.s"] = total.get(key, 0.0)
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.rows"] = counts.get(f"{key}.rows", 0)
            if out[f"{key}.calls"]:
                out[f"{key}.rows_per_call"] = (out[f"{key}.rows"]
                                               / out[f"{key}.calls"])
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = total.get(f"cli.{cmd}", 0.0)
            out[f"cli.{cmd}.self_s"] = self_by_name.get(f"cli.{cmd}", 0.0)
        out["mofa.non_dominated.calls"] = calls.get("mofa.non_dominated", 0)
        out["bee_colony.FomProblem.evaluate.calls"] = calls.get(
            "bee_colony.FomProblem.evaluate", 0)
        for key in ("design_space.rows", "oracles.evaluate.rows",
                    "training.ann_epochs", "training.rbf_neurons",
                    "training.poly_candidates", "training.poly_terms_kept",
                    "mofa.non_dominated.max_n", "mofa.move_vector.calls",
                    "bee_colony.FomProblem.evaluate.rows",
                    "vams_codegen.bytes_written"):
            out[key] = counts.get(key, 0)
        if out["training.ann_epochs"]:
            out["training.ann_epoch_us"] = (out["training.train_ann.s"] * 1e6
                                            / out["training.ann_epochs"])
        if out["mofa.move_vector.calls"]:
            out["mofa.moves_per_attempt"] = (counts["mofa.attempts"]
                                             / out["mofa.move_vector.calls"])

        for name, st in self_by_name.items():
            layer = name.split(".", 1)[0]
            if layer == "bench":
                out["bench.self_s"] += st
            else:
                out[f"{layer}.self_s"] += st
        wall = float(dur[0])
        out["trace.wall_s"] = wall
        out["trace.accounted_frac"] = 1.0 - out["bench.self_s"] / wall
        out["trace.spans"] = n
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every recorded pass's spans (times in µs from pass start)."""
        passes = []
        for spans, counts in self.passes:
            t0 = spans[0][1]
            passes.append({
                "counts": counts,
                "spans": [[s[0], round((s[1] - t0) * 1e6, 1),
                           round((s[2] - t0) * 1e6, 1), s[3]] for s in spans],
            })
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "span_fields": ["name", "start_us", "end_us", "parent"],
                       "passes": passes}, fh)


# -- per-call counters, run after the wrapped call returns -----------------

def _after_lhs(tracer, args, kwargs, result):
    tracer.count("design_space.rows", result.shape[0])


def _after_evaluate(tracer, args, kwargs, result):
    tracer.count("oracles.evaluate.rows", result.n_rows)


def _after_rbf(tracer, args, kwargs, result):
    tracer.count("training.rbf_neurons", result[0].n_neurons)


def _after_poly(tracer, args, kwargs, result):
    model = result[0]
    # every monomial of total degree <= d in n variables is a candidate
    tracer.count("training.poly_candidates",
                 math.comb(model.input_dim + model.degree, model.degree))
    tracer.count("training.poly_terms_kept", model.n_parameters)


def _after_mofa(tracer, args, kwargs, result):
    params = kwargs.get("params", args[3] if len(args) > 3 else None)
    tracer.count("mofa.attempts", params.K * params.t_max)


def _after_non_dominated(tracer, args, kwargs, result):
    n = _rows(np.atleast_2d(args[0])) if np.size(args[0]) else 0
    tracer.counts["mofa.non_dominated.max_n"] = max(
        tracer.counts.get("mofa.non_dominated.max_n", 0), n)


def _after_fom(tracer, args, kwargs, result):
    tracer.count("bee_colony.FomProblem.evaluate.rows", len(result[0]))


def _after_export(tracer, args, kwargs, result):
    tracer.count("vams_codegen.bytes_written",
                 sum(len(p.encode()) for p in
                     (result.w1, result.w2, result.b1, result.b2)))


def _after_emit(tracer, args, kwargs, result):
    tracer.count("vams_codegen.bytes_written", len(result.encode()))


def _after_predict(family):
    key = f"metamodel.{family}.predict.rows"

    def hook(tracer, args, kwargs, result):
        tracer.count(key, _rows(args[1]))
    return hook


_AFTER_HOOKS = {
    "design_space.lhs_sample": _after_lhs,
    "design_space.lhs_disjoint": _after_lhs,
    "oracles.evaluate": _after_evaluate,
    "training.train_rbf": _after_rbf,
    "training.fit_polynomial": _after_poly,
    "mofa.mofa_optimize": _after_mofa,
    "mofa.non_dominated": _after_non_dominated,
    "bee_colony.FomProblem.evaluate": _after_fom,
    "vams_codegen.export_weights": _after_export,
    "vams_codegen.emit_vams_module": _after_emit,
    **{f"metamodel.{fam}.predict": _after_predict(fam)
       for fam in PREDICT_FAMILIES},
}
