"""Topologically conditioned constraint satisfaction on semantic graphs.

A 64-dimensional state per graph node is pushed onto data, separation, and
ordering constraint manifolds by an inner projection loop whose steps are
scaled by discrete edge curvature and lengthened by a secant line search
(the rank-one step), while an evolution strategy tunes the loss weights and
the step's gating scalar. A benchmark harness reproduces seed-robustness,
scaling, and ablation studies from the command line.
"""
from .constraints import (ConstraintSet, DEFAULT_WEIGHTS, LossBreakdown,
                          LossWeights, ViolationStats, loss_components,
                          loss_gradient, total_energy,
                          violation_stats, SUCCESS_THRESHOLD)
from .cmaes import (CmaState, OptimizeResult, ParamEncoding, cma_ask,
                    cma_init, cma_optimize, cma_tell)
from .curvature import (all_edge_curvatures, curvature_step_scales,
                        forman_ricci)
from .delta import DeltaParams, delta_step
from .errors import (ConstraintError, DivergenceError, InfeasibleInitError,
                     TopologyError)
from .graphs import STATE_DIM, SemanticGraph, build_graph, edge_weight
from .problems import ProblemInstance, generate_instance, physics_aware_init
from .projection import ProjectionConfig, ProjectionTrace, project_states
from .solver import SolveResult, VariantConfig, solve, variant
from .studies import (StudySpec, derive_seed, run_ablation, run_scaling_study,
                      run_seed_study, run_stability_study)

__version__ = "0.1.0"

__all__ = [
    "ConstraintSet", "DEFAULT_WEIGHTS", "LossBreakdown", "LossWeights",
    "ViolationStats", "loss_components", "loss_gradient",
    "total_energy", "violation_stats", "SUCCESS_THRESHOLD",
    "CmaState", "OptimizeResult", "ParamEncoding", "cma_ask", "cma_init",
    "cma_optimize", "cma_tell",
    "all_edge_curvatures", "curvature_step_scales", "forman_ricci",
    "DeltaParams", "delta_step",
    "ConstraintError", "DivergenceError", "InfeasibleInitError",
    "TopologyError",
    "STATE_DIM", "SemanticGraph", "build_graph", "edge_weight",
    "ProblemInstance", "generate_instance", "physics_aware_init",
    "ProjectionConfig", "ProjectionTrace", "project_states",
    "SolveResult", "VariantConfig", "solve", "variant",
    "StudySpec", "derive_seed", "run_ablation", "run_scaling_study",
    "run_seed_study", "run_stability_study",
]
