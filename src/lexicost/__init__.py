"""Learning function-free definite programs that are provably optimal under
lexicographic cost functions, plus the evaluation-metric and statistics
pipeline for benchmarking them."""

from .cost import (
    ALL_SPEC_NAMES,
    CostSpec,
    CostVector,
    LinearComponent,
    NAMED_SPECS,
    evaluate,
    generator_size_bound,
    parse_cost_spec,
)
from .combiner import (
    CombineProblem,
    CombineSolution,
    PromisingEntry,
    optimal_combination,
)
from .engine import LearnOptions, LearnResult, LearnStats, evaluate_on_test, learn
from .evaluator import Confusion, Coverage, confusion, coverage, least_model
from .generator import (
    CandidateGenerator,
    Constraint,
    program_subsumes,
    theta_subsumes,
)
from .kb import (
    Atom,
    Bias,
    Program,
    Rule,
    Task,
    atom,
    parse_program,
    parse_rule,
    parse_task,
    render_program,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SPEC_NAMES",
    "Atom",
    "Bias",
    "CandidateGenerator",
    "CombineProblem",
    "CombineSolution",
    "Confusion",
    "Constraint",
    "CostSpec",
    "CostVector",
    "Coverage",
    "LearnOptions",
    "LearnResult",
    "LearnStats",
    "LinearComponent",
    "NAMED_SPECS",
    "Program",
    "PromisingEntry",
    "Rule",
    "Task",
    "atom",
    "confusion",
    "coverage",
    "evaluate",
    "evaluate_on_test",
    "generator_size_bound",
    "learn",
    "least_model",
    "optimal_combination",
    "parse_cost_spec",
    "parse_program",
    "parse_rule",
    "parse_task",
    "program_subsumes",
    "render_program",
    "theta_subsumes",
]
