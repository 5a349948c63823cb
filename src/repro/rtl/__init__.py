"""Structural RTL backend: netlist IR, Verilog emitter, passes, lowering.

Netlist lint lives in :func:`repro.analysis.check_netlist`.
"""

from .lowering import lower_design
from .netlist import (
    Assign,
    Instance,
    Module,
    Net,
    Netlist,
    Port,
    PortDir,
    RTLError,
    SyncBlock,
)
from .passes import PASS_PIPELINE_VERSION, PassResult, run_passes
from .sim import RTLSimulator, parse_expression, parse_statement
from .verilog import emit_module, emit_netlist

__all__ = [
    "lower_design",
    "Assign",
    "Instance",
    "Module",
    "Net",
    "Netlist",
    "PASS_PIPELINE_VERSION",
    "PassResult",
    "Port",
    "PortDir",
    "RTLError",
    "SyncBlock",
    "emit_module",
    "emit_netlist",
    "run_passes",
    "RTLSimulator",
    "parse_expression",
    "parse_statement",
]
