"""Out-of-order pipeline substrate: core, ROB, predictor, retire gates."""

from repro.pipeline.branch_predictor import BranchPredictor
from repro.pipeline.gates import ImmediateGate, RetireGate
from repro.pipeline.ooo_core import OoOCore
from repro.pipeline.rob import DynState
from repro.pipeline.tlb_handler import TSB_BASE, handler_sequence
from repro.pipeline.trace import InstrTrace, PipelineTracer

__all__ = [
    "BranchPredictor",
    "DynState",
    "ImmediateGate",
    "InstrTrace",
    "OoOCore",
    "PipelineTracer",
    "RetireGate",
    "TSB_BASE",
    "handler_sequence",
]
