"""ER's core: constraint graph, key-data-value selection, iteration."""

from .constraint_graph import ConstraintGraph, WriteChain
from .instrument import InstrumentationResult, instrument
from .minimize import ddmin, minimize_test_case
from .production import Occurrence, ProductionSite
from .reconstructor import ExecutionReconstructor
from .report import IterationRecord, ReconstructionReport, TestCase
from .selection import RecordingItem, RecordingPlan, select_key_values
from .signature import FaultSignature, canonical_signature, \
    normalize_failure

__all__ = [
    "ConstraintGraph",
    "WriteChain",
    "InstrumentationResult",
    "instrument",
    "ddmin",
    "minimize_test_case",
    "Occurrence",
    "ProductionSite",
    "ExecutionReconstructor",
    "IterationRecord",
    "ReconstructionReport",
    "TestCase",
    "RecordingItem",
    "RecordingPlan",
    "select_key_values",
    "FaultSignature",
    "canonical_signature",
    "normalize_failure",
]
