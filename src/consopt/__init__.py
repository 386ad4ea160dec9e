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
    analytic_bounds, check_gradient, estimate_bounds, eval_component,
    grad_component, polynomial, problem_from_dict, problem_to_dict, project,
    quadratic, sine_quadratic, sum_grad, sum_value, verify_sum_convexity,
)
from .network import (
    ConstructionError, CyclicSchedule, Graph, RandomSchedule, StaticSchedule,
    WeightMatrix, WeightSchedule, build_metropolis, build_two_link_matrix,
    complete_graph, contraction_coefficient, graph, is_connected,
    is_doubly_stochastic, is_q_connected, is_scrambling, path_graph,
    ring_graph, schedule_from_dict, support_graph,
)
from .engine import (
    EngineError, RunConfig, RunTrace, StepSchedule, descend, fuse,
    read_trace_jsonl, run, run_batch, step_size, write_trace_csv, write_trace_jsonl,
)
from .analysis import (
    BoundParams, BoundUnavailableError, OracleSolution, VerdictReport,
    centralized_solve, check_disagreement_bound, disagreement_bound,
    max_delta, max_disagreement, verdict,
)
from .privacy import (
    PartitionPlan, SIX_VIRTUAL_PATTERN, TransformedProblem, certify_equivalence,
    default_plan, partition_problem, random_function_sharing, six_virtual_plan,
    virtual_topology,
)
from .scenario import (
    Scenario, build_run_config, load_scenario, load_shipped,
    shipped_scenario_names, shipped_scenario_path, validate_scenario,
)

__version__ = "0.1.0"
