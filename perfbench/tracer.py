"""Layer spans recorded from outside the package.

`Tracer.install` replaces each public function at every binding the package
calls it through (module attributes and `from ... import` copies alike) with
a wrapper that records one span per call: name, start, end, parent span,
op id and the exception type if the call raised. Counts come from call
arguments and return values only. Spans stay in memory until `write`.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter


def _count_iterations(tracer, args, kwargs, result):
    tracer.counts["estimator.iterations"] += result.iterations


def _count_fit(tracer, args, kwargs, result):
    tracer.counts["model.fit.iterations"] += result[1].n_iterations


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["dynamics.rk4_steps"] += len(args[0].time)


def _record_search_key(tracer, args, kwargs, result):
    # Every input the search reads: assumed system, template ramp, tuning,
    # edge and steps per period. Float reprs round-trip exactly.
    tracer.search_keys.append(repr((args, sorted(kwargs.items()))))


# (module, attribute, span name, counter)
BINDINGS = [
    ("iaspec.cli", "load_scenario", "scenario.load", None),
    ("iaspec.cli", "ias_run", "estimator.run", _count_iterations),
    ("iaspec.cli", "fit_avoided_crossing", "model.fit", _count_fit),
    ("iaspec.cli", "run_perturbation_experiment", "sensing.experiment", None),
    ("iaspec.sensing", "ias_run", "estimator.run", _count_iterations),
    ("iaspec.sensing", "acquire_trace", "ramsey.trace", None),
    ("iaspec.estimator", "acquire_trace", "ramsey.trace", None),
    ("iaspec.estimator", "estimate_peak", "estimator.estimate", None),
    ("iaspec.pulse", "optimize_correction", "pulse.search", _record_search_key),
    ("iaspec.pulse", "plan_edge_steps", "pulse.plan_steps", None),
    ("iaspec.pulse", "build_edge_waveform", "pulse.waveform", None),
    ("iaspec.dynamics", "edge_propagator", "dynamics.propagate", _count_steps),
    ("iaspec.dynamics", "simulate_ringdown", "dynamics.ringdown", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, error]
        self.counts: Counter = Counter()
        self.search_keys: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attribute, name, count in BINDINGS:
            module = importlib.import_module(module_name)
            setattr(module, attribute, self.wrap(name, getattr(module, attribute), count))
        # fit-spectrum reads its input through the CSV constructor, not load_scenario.
        from iaspec.model import SpectroscopyData

        from_csv = SpectroscopyData.__dict__["from_csv"].__func__
        SpectroscopyData.from_csv = classmethod(self.wrap("scenario.load", from_csv))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op,error\n")
            for name, start, end, parent, op, error in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op},{error or ''}\n")

    def layers(self) -> dict:
        """{span name: {"calls", "s", "self_s"}} over every traced op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _error in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict = {}
        for index, (name, start, end, _parent, _op, _error) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[index]
        return table

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, summed over every traced op."""
        table = self.layers()
        calls = Counter({name: row["calls"] for name, row in table.items()})
        total = Counter({name: row["s"] for name, row in table.items()})
        self_s = Counter({name: row["self_s"] for name, row in table.items()})
        errors = Counter((span[0], span[5]) for span in self.spans if span[5])
        evals = sum(
            1 for span in self.spans
            if span[0] == "dynamics.propagate" and self._inside(span[3], "pulse.search")
        )

        op_s = total["cli"]
        steps = self.counts["dynamics.rk4_steps"]
        shots = calls["dynamics.ringdown"]
        estimates = calls["estimator.estimate"]
        keys = self.search_keys

        def share(layer):
            return total[layer] / op_s if op_s else 0.0

        return {
            "cli.self_s": self_s["cli"],
            "scenario.load.s": total["scenario.load"],
            "sensing.experiment.self_s": self_s["sensing.experiment"],
            "pulse.search.calls": calls["pulse.search"],
            "pulse.search.s": total["pulse.search"],
            "pulse.search.self_s": self_s["pulse.search"],
            "pulse.search.evals": evals,
            "pulse.search.distinct_ratio": len(set(keys)) / len(keys) if keys else 0.0,
            "pulse.search.share": share("pulse.search"),
            "pulse.plan_steps.s": total["pulse.plan_steps"],
            "pulse.waveform.s": total["pulse.waveform"],
            "dynamics.propagate.calls": calls["dynamics.propagate"],
            "dynamics.propagate.s": total["dynamics.propagate"],
            "dynamics.propagate.share": share("dynamics.propagate"),
            "dynamics.rk4_steps": steps,
            "dynamics.ns_per_rk4_step": 1e9 * total["dynamics.propagate"] / steps if steps else 0.0,
            "dynamics.ringdown.calls": shots,
            "dynamics.ringdown.s": total["dynamics.ringdown"],
            "dynamics.readouts_lost": errors["dynamics.ringdown", "ReadoutError"],
            "ramsey.trace.calls": calls["ramsey.trace"],
            "ramsey.trace.self_s": self_s["ramsey.trace"],
            "ramsey.trace.share": share("ramsey.trace"),
            "ramsey.us_per_shot": 1e6 * total["ramsey.trace"] / shots if shots else 0.0,
            "estimator.iterations": self.counts["estimator.iterations"],
            "estimator.estimate.calls": estimates,
            "estimator.us_per_estimate": 1e6 * total["estimator.estimate"] / estimates if estimates else 0.0,
            "estimator.no_peak": errors["estimator.estimate", "NoPeakError"],
            "model.fit.calls": calls["model.fit"],
            "model.fit.s": total["model.fit"],
            "model.fit.iterations": self.counts["model.fit.iterations"],
            "model.fit.share": share("model.fit"),
        }

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
