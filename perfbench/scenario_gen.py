"""Seeded generator of random-schedule scenario configs.

The configs are plain JSON documents in the schema the ``consopt`` CLI
reads.  Nothing here imports the package under test, so the benchmark's
inputs do not depend on the code being measured.

The problem pairs the agents: agent 2j holds ``0.5 x'(cI + P_j)x + b'x`` and
agent 2j+1 holds ``0.5 x'(cI - P_j)x + b'x`` with ``P_j`` a random
trace-free symmetric matrix whose eigenvalues are +-lam, lam > c.  Every
piece is indefinite, the pairs cancel, and the sum has Hessian ``S c I``, so
it is strongly convex.  The mixing schedule is the ``random`` variant: a
fresh connected Erdos-Renyi graph with Metropolis weights at every round.
"""

from __future__ import annotations

import itertools

import numpy as np

N_AGENTS = 8
DIMENSION = 2
EDGE_PROBABILITY = 0.4
CURVATURE = 1.0       # c: mean curvature of every piece
INDEFINITE = 1.5      # lam: eigenvalues of P_j are +-lam, so each piece is indefinite
LINEAR_SPREAD = 0.2   # b entries are uniform on [-spread, spread]


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _component(cid: str, a: np.ndarray, b: np.ndarray) -> dict:
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=a.shape[0])))
    # ||Ax + b|| is convex, so its maximum over the box sits at a corner
    grad_bound = float(np.max(np.linalg.norm(corners @ a + b, axis=1)))
    lipschitz = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return {
        "id": cid,
        "family": "quadratic",
        "params": {"a": a.tolist(), "b": b.tolist(), "c": 0.0},
        "grad_bound": grad_bound,
        "lipschitz": lipschitz,
    }


def random_schedule_config(seed: int, n_iterations: int) -> dict:
    """The scenario config for one workload seed; equal seeds give equal configs."""
    rng = np.random.default_rng([seed, 1608])
    components = []
    for j in range(N_AGENTS // 2):
        r = _rotation(rng.uniform(0.0, np.pi))
        p = r @ np.diag([INDEFINITE, -INDEFINITE]) @ r.T
        p = 0.5 * (p + p.T)  # exactly symmetric, as the config loader requires
        for sign in (1.0, -1.0):
            a = CURVATURE * np.eye(DIMENSION) + sign * p
            b = rng.uniform(-LINEAR_SPREAD, LINEAR_SPREAD, DIMENSION)
            components.append(_component(f"f{len(components)}", a, b))
    return {
        "schema_version": 1,
        "name": f"random_s{N_AGENTS}_seed{seed}",
        "problem": {
            "dimension": DIMENSION,
            "set": {"variant": "box", "lo": [-1.0] * DIMENSION, "hi": [1.0] * DIMENSION},
            "components": components,
        },
        "schedule": {
            "variant": "random",
            "n_agents": N_AGENTS,
            "edge_probability": EDGE_PROBABILITY,
            "seed": int(rng.integers(0, 2**31)),
        },
        "steps": {"a": 1.0, "b": 1.0, "p": 1.0},
        "transform": {"kind": "none"},
        "n_iterations": n_iterations,
        "seeds": {"start": seed, "stop": seed + 1},
        "decimate": max(1, n_iterations // 500),
        "connectivity": {"mode": "per-k"},
        "tolerances": {"consensus": 1e-3, "gap": 1e-3},
        "init": {"kind": "seeded-uniform"},
        "oracle_budget": 200000,
    }
