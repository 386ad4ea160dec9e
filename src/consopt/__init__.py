"""Distributed optimization of a convex sum of non-convex components.

Simulates networks of agents that alternate consensus fusion through doubly
stochastic matrices with projected gradient descent on private objectives,
verifies the theory empirically (contraction coefficients, disagreement
bounds, consensus, convergence to a certified centralized optimum), and
ships two privacy-enhancing transforms that rewrite a problem without
changing its global optimum.
"""

from .problem import (
    Ball, Box, ComponentFunction, ConfigError, FeasibleSet, Problem,
    estimate_bounds, polynomial, problem_from_dict, problem_to_dict,
    quadratic, sine_quadratic, sum_grad, sum_value, verify_sum_convexity,
)
from .network import (
    ConstructionError, CyclicSchedule, Graph, RandomSchedule, StaticSchedule,
    WeightSchedule, build_metropolis, build_two_link_matrix, complete_graph,
    graph, is_connected, is_doubly_stochastic, max_contraction, path_graph,
    ring_graph, schedule_from_dict, support_graph, windows_connected,
)
from .engine import (
    EngineError, RunConfig, RunTrace, StepSchedule, descend, fuse,
    read_trace_jsonl, run, run_batch, write_trace_csv,
)
from .analysis import (
    OracleSolution, VerdictReport, centralized_solve, check_disagreement_bound,
    disagreement_caps, max_delta, max_disagreement, verdict,
)
from .privacy import (
    PartitionPlan, SIX_VIRTUAL_PATTERN, TransformedProblem, certify_equivalence,
    default_plan, partition_problem, random_function_sharing, six_virtual_plan,
    virtual_topology,
)
from .scenario import (
    Scenario, load_scenario, load_shipped,
    shipped_scenario_names, shipped_scenario_path, validate_scenario,
)

__version__ = "0.1.0"
