"""xalpwb: a workbench for tree-chained problem reductions and the four
equivalent resource-bounded machine acceptance semantics, with brute-force
oracles certifying every construction on desk-scale instances."""

from .instances import (
    CapExceeded,
    CapSettingError,
    FormatError,
    Graph,
    InvariantViolation,
    ListColoringInstance,
    LogTwGraphInstance,
    OrderedTree,
    ResourceBudget,
    TcmcInstance,
    TreeChainedCnf,
    TreeDecomposition,
    XalpwbError,
    validate_decomposition,
)
from .formats import parse_instance, serialize_instance
from .machines import (
    Action,
    MachineSpec,
    RunStats,
    eval_alternating,
    eval_alternating_as_stack,
    eval_balanced,
    eval_stack,
    eval_stack_via_alternation,
    shaped_run,
)
from .reductions import REDUCTION_NAMES, REDUCTIONS, LiftMap, ReductionArtifact

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CapExceeded",
    "CapSettingError",
    "FormatError",
    "Graph",
    "InvariantViolation",
    "LiftMap",
    "ListColoringInstance",
    "LogTwGraphInstance",
    "MachineSpec",
    "OrderedTree",
    "REDUCTIONS",
    "REDUCTION_NAMES",
    "ReductionArtifact",
    "ResourceBudget",
    "RunStats",
    "TcmcInstance",
    "TreeChainedCnf",
    "TreeDecomposition",
    "XalpwbError",
    "eval_alternating",
    "eval_alternating_as_stack",
    "eval_balanced",
    "eval_stack",
    "eval_stack_via_alternation",
    "parse_instance",
    "serialize_instance",
    "shaped_run",
    "validate_decomposition",
]
