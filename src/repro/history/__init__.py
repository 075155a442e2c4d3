"""Histories, operations, the register spec, and causal structure (Section 2)."""

from repro.history.causality import CausalStructure, build_causal_structure
from repro.history.events import Operation
from repro.history.history import History
from repro.history.recorder import HistoryRecorder
from repro.history.register_spec import (
    explain_illegal,
    is_legal_sequence,
    run_sequentially,
)

__all__ = [
    "CausalStructure",
    "History",
    "HistoryRecorder",
    "Operation",
    "build_causal_structure",
    "explain_illegal",
    "is_legal_sequence",
    "run_sequentially",
]
