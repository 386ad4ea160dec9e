"""Spans around the calls the CLI makes into each consopt module.

The package is not changed: ``instrument`` swaps the module and class
attributes that the ``cli``, ``scenario`` and ``engine`` modules look up at
call time (``consopt.cli.load_scenario``, ``consopt.engine.run``,
``RandomSchedule.matrix_at`` ...) for wrappers that record one span per call
and restores them afterwards.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, result)`` adds fields."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), open_[-1] if open_ else None, name, 0, 0)
            spans.append(span)
            open_.append(span.id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                open_.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def write(self, fh) -> None:
        for s in self.spans:
            fh.write(json.dumps({
                "trace": self.trace_id, "id": s.id, "parent": s.parent, "name": s.name,
                "start_ns": s.start_ns, "end_ns": s.end_ns, "attrs": s.attrs,
            }) + "\n")


def _run_attrs(args, trace) -> dict:
    return {"iterations": args[0].n_iterations, "records": trace.n_records}


def _written_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _targets():
    """(owner, attribute, span name, attrs) for every wrapped call site."""
    from consopt import analysis, cli, engine, network, privacy, scenario

    return (
        (cli, "load_scenario", "scenario.load", None),
        (cli, "validate_scenario", "scenario.validate", None),
        (cli, "execute_run", "cli.execute_run", None),
        (scenario, "verify_sum_convexity", "problem.convexity_check", None),
        (scenario, "estimate_bounds", "problem.bound_estimate", None),
        (privacy, "partition_problem", "privacy.transform", None),
        (privacy, "random_function_sharing", "privacy.transform", None),
        (engine, "run", "engine.run", _run_attrs),
        (engine, "write_trace_jsonl", "engine.write_trace", _written_bytes),
        (engine, "write_trace_csv", "engine.write_trace", _written_bytes),
        (engine, "read_trace_jsonl", "engine.read_trace", None),
        (analysis, "centralized_solve", "analysis.oracle", None),
        (analysis, "check_disagreement_bound", "analysis.bound_check", None),
        (analysis, "verdict", "analysis.verdict", None),
        (network.StaticSchedule, "matrix_at", "network.matrix_at", None),
        (network.CyclicSchedule, "matrix_at", "network.matrix_at", None),
        (network.RandomSchedule, "matrix_at", "network.matrix_at", None),
        (network.WeightSchedule, "contraction_sup", "network.contraction_sup", None),
    )


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every call site for the duration of the block.

    A call site the package no longer defines is reported on stderr and
    left out, so its metrics read 0 rather than stopping the run.
    """
    patched = []
    try:
        for owner, attr, name, attrs in _targets():
            fn = vars(owner).get(attr)
            if fn is None:
                sys.stderr.write(f"perfbench: {owner.__name__}.{attr} not found; "
                                 f"{name} is not traced\n")
                continue
            setattr(owner, attr, tracer.wrap(name, fn, attrs))
            patched.append((owner, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration_ns
        self_ns[s.name] += s.duration_ns
        if s.parent is not None:
            self_ns[spans[s.parent].name] -= s.duration_ns

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)

    iters = attr_sum("engine.run", "iterations")
    engine_self_s = self_ns["engine.run"] / 1e9
    return {
        "engine.run.calls": calls["engine.run"],
        "engine.run.self_s": engine_self_s,
        "engine.self_us_per_iter": engine_self_s / iters * 1e6 if iters else 0.0,
        "engine.iters": iters,
        "engine.records": attr_sum("engine.run", "records"),
        "engine.write_trace.s": total["engine.write_trace"] / 1e9,
        "engine.write_trace.bytes": attr_sum("engine.write_trace", "bytes"),
        "engine.read_trace.s": total["engine.read_trace"] / 1e9,
        "network.matrix_at.calls": calls["network.matrix_at"],
        "network.matrix_at.s": total["network.matrix_at"] / 1e9,
        "network.matrix_at.per_iter": calls["network.matrix_at"] / iters if iters else 0.0,
        "network.contraction_sup.s": total["network.contraction_sup"] / 1e9,
        "cli.execute_run.self_s": self_ns["cli.execute_run"] / 1e9,
        "scenario.load.calls": calls["scenario.load"],
        "scenario.load.s": total["scenario.load"] / 1e9,
        "scenario.validate.s": total["scenario.validate"] / 1e9,
        "problem.convexity_check.s": total["problem.convexity_check"] / 1e9,
        "problem.bound_estimate.s": total["problem.bound_estimate"] / 1e9,
        "privacy.transform.s": total["privacy.transform"] / 1e9,
        "analysis.oracle.calls": calls["analysis.oracle"],
        "analysis.oracle.s": total["analysis.oracle"] / 1e9,
        "analysis.bound_check.s": total["analysis.bound_check"] / 1e9,
        "analysis.verdict.s": total["analysis.verdict"] / 1e9,
    }
