#!/usr/bin/env python3
"""Regenerate the shipped scenario library under src/consopt/scenarios/.

Every scenario is emitted deterministically from the builders in the
library itself, so matrices and declared bounds in the JSON files match
what the code would construct at runtime.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from consopt import (
    Problem, Box, build_metropolis, complete_graph, graph, problem_to_dict,
    quadratic, polynomial, ring_graph,
)
from consopt.privacy import SIX_VIRTUAL_PATTERN

OUT = Path(__file__).resolve().parents[1] / "src" / "consopt" / "scenarios"

TRIANGLE_EDGES = [[0, 1], [0, 2], [1, 2]]


def triangle_problem() -> Problem:
    fs = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    comps = (
        quadratic("f0", [[1.0, 0.0], [0.0, 0.5]], [0.25, 0.0], 0.0, bounds_for=fs),
        quadratic("f1", [[0.5, 0.0], [0.0, 1.0]], [0.0, 0.25], 0.1, bounds_for=fs),
        quadratic("f2", [[0.75, 0.25], [0.25, 0.75]], [-0.125, -0.125], 0.0, bounds_for=fs),
    )
    return Problem(2, comps, fs)


def nonconvex_d1() -> Problem:
    fs = Box(np.array([-1.0]), np.array([1.0]))
    comps = (
        quadratic("f0", [[1.5]], [0.25], 0.0, bounds_for=fs),
        quadratic("f1", [[-0.5]], [0.25], 0.0, bounds_for=fs),  # concave piece
    )
    return Problem(1, comps, fs)


def nonconvex_d2() -> Problem:
    fs = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    comps = (
        quadratic("f0", [[2.0, 0.0], [0.0, -0.5]], [0.2, 0.0], 0.0, bounds_for=fs),
        quadratic("f1", [[-0.5, 0.0], [0.0, 2.0]], [0.0, 0.2], 0.0, bounds_for=fs),
        quadratic("f2", [[0.0, 0.5], [0.5, 0.0]], [-0.1, -0.1], 0.0, bounds_for=fs),
    )
    return Problem(2, comps, fs)


def nonconvex_d5() -> Problem:
    dim, n_agents = 5, 4
    fs = Box(-np.ones(dim), np.ones(dim))
    rng = np.random.default_rng(42)
    target = 1.5 * np.eye(dim)
    mats = []
    for _ in range(n_agents - 1):
        m = rng.normal(0.0, 0.35, (dim, dim))
        a = 0.5 * (m + m.T)
        a -= np.eye(dim) * (np.trace(a) / dim)  # trace-free, hence indefinite
        mats.append(a)
    mats.append(target - sum(mats))
    for a in mats[:-1]:
        ev = np.linalg.eigvalsh(a)
        assert ev[0] < -1e-6 < 1e-6 < ev[-1], "piece must be indefinite"
    assert np.linalg.eigvalsh(sum(mats))[0] > 0.5, "sum must stay positive definite"
    bs = rng.uniform(-0.15, 0.15, (n_agents, dim))
    comps = tuple(
        quadratic(f"f{i}", mats[i], bs[i], 0.0, bounds_for=fs) for i in range(n_agents)
    )
    return Problem(dim, comps, fs)


def quartic_problem() -> Problem:
    fs = Box(np.array([-2.0]), np.array([2.0]))
    comps = (
        polynomial("f0", [[0.0, 0.0, -3.0, 0.0, 1.0]], bounds_for=fs),  # x^4 - 3x^2
        polynomial("f1", [[0.0, 1.0, 3.0]], bounds_for=fs),             # 3x^2 + x
    )
    return Problem(1, comps, fs)


def metropolis_entries(g) -> list:
    return build_metropolis(g).entries.tolist()


def base(name: str, problem: Problem, schedule: dict, n_iterations: int, **extra) -> dict:
    doc = {
        "schema_version": 1,
        "name": name,
        "problem": problem_to_dict(problem),
        "schedule": schedule,
        "steps": {"a": 1.0, "b": 1.0, "p": 1.0},
        "transform": {"kind": "none"},
        "n_iterations": n_iterations,
        "seeds": {"start": 0, "stop": 20},
        "decimate": max(1, n_iterations // 500),
        "connectivity": {"mode": "per-k"},
        "tolerances": {"consensus": 1e-3, "gap": 1e-3},
        "init": {"kind": "seeded-uniform"},
        "oracle_budget": 200000,
    }
    doc.update(extra)
    return doc


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    tri = triangle_problem()
    tri_sched = {"variant": "static", "matrix": metropolis_entries(complete_graph(3))}
    tri_graph = {"n_agents": 3, "edges": TRIANGLE_EDGES}
    kappa_sched = {
        "variant": "kappa",
        "pattern": [list(row) for row in SIX_VIRTUAL_PATTERN],
        "kappa": 0.25,
    }

    docs = {
        "triangle_quadratic": base(
            "triangle_quadratic", tri, tri_sched, 30000, graph=tri_graph),
        "nonconvex_sum_d1": base(
            "nonconvex_sum_d1", nonconvex_d1(), {
                "variant": "static", "matrix": metropolis_entries(complete_graph(2))},
            20000, graph={"n_agents": 2, "edges": [[0, 1]]}),
        "nonconvex_sum_d2": base(
            "nonconvex_sum_d2", nonconvex_d2(), tri_sched, 30000, graph=tri_graph),
        "nonconvex_sum_d5": base(
            "nonconvex_sum_d5", nonconvex_d5(), {
                "variant": "static", "matrix": metropolis_entries(ring_graph(4))},
            40000, graph={"n_agents": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}),
        "quartic_d1": base(
            "quartic_d1", quartic_problem(), {
                "variant": "static", "matrix": metropolis_entries(complete_graph(2))},
            40000, graph={"n_agents": 2, "edges": [[0, 1]]}),
        "cyclic_q2": base(
            "cyclic_q2", tri, {
                "variant": "cyclic",
                "matrices": [
                    metropolis_entries(graph(3, [(0, 1)])),
                    metropolis_entries(graph(3, [(1, 2)])),
                ]},
            40000, graph=tri_graph, connectivity={"mode": "q-connected", "Q": 2}),
        "random_nonconvex_d2": base(
            "random_nonconvex_d2", nonconvex_d2(), {
                "variant": "random", "n_agents": 3, "edge_probability": 0.6, "seed": 1608},
            8000, graph=tri_graph),
        "partition_virtual6_scale0p1": base(
            "partition_virtual6_scale0p1", tri, kappa_sched, 40000, graph=tri_graph,
            transform={"kind": "partition", "plan": "six-virtual",
                       "perturbation_scale": 0.1, "seed": 11}),
        "partition_virtual6_scale1": base(
            "partition_virtual6_scale1", tri, kappa_sched, 80000, graph=tri_graph,
            transform={"kind": "partition", "plan": "six-virtual",
                       "perturbation_scale": 1.0, "seed": 11}),
        "sharing_scale0p1": base(
            "sharing_scale0p1", tri, tri_sched, 30000, graph=tri_graph,
            transform={"kind": "random_sharing", "scale": 0.1, "seed": 7}),
        "sharing_scale1": base(
            "sharing_scale1", tri, tri_sched, 60000, graph=tri_graph,
            transform={"kind": "random_sharing", "scale": 1.0, "seed": 7}),
    }
    for name, doc in docs.items():
        path = OUT / f"{name}.json"
        with open(path, "w", newline="\n") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
