"""Scheduling toolkit for a reentrant flexible flowshop with cluster tools."""

from .core import (
    Instance,
    Job,
    Machine,
    Objective,
    RouteChoice,
    big_m,
    eligible_machines,
    load_instance,
    route_options,
    save_instance,
)
from .decoder import JobOrder, cluster_affinity, decode
from .evaluator import (
    Schedule,
    ScheduleMetrics,
    Violation,
    check_feasibility,
    earliest_completion,
    metrics,
)
from .exact import ExactResult, export_milp, solve_exact, write_lp
from .instgen import GenConfig, ReadyScenario, generate_instance
from .search import GAConfig, SPConfig, crossover, mutate, run_ga, run_sp

__all__ = [
    "Instance", "Job", "Machine", "Objective", "RouteChoice",
    "big_m", "eligible_machines", "route_options",
    "load_instance", "save_instance",
    "JobOrder", "cluster_affinity", "decode",
    "Schedule", "ScheduleMetrics", "Violation",
    "check_feasibility", "earliest_completion", "metrics",
    "ExactResult", "export_milp", "solve_exact", "write_lp",
    "GenConfig", "ReadyScenario", "generate_instance",
    "GAConfig", "SPConfig", "crossover", "mutate", "run_ga", "run_sp",
]

__version__ = "0.1.0"
