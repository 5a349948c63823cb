"""Level 2 golden tests: netlist dataflow lint (STL-NL-*)."""

from repro.analysis import Severity, check_netlist
from repro.analysis.netlist import (
    check_module,
    infer_width,
    lhs_identifiers,
    sequential_assignments,
    WidthEnv,
)
from repro.core import Accelerator, Bounds
from repro.core.dataflow import output_stationary
import pytest

from repro.rtl.lowering import lower_design
from repro.rtl.netlist import (
    Assign,
    Module,
    Net,
    Netlist,
    Port,
    PortDir,
    SyncBlock,
)


def _module(name="m"):
    module = Module(name)
    module.ports.append(Port("clk", PortDir.INPUT, 1))
    return module


def _netlist(module):
    netlist = Netlist(module.name)
    netlist.add(module)
    return netlist


# --- Satellite: chained/else-arm LHS extraction -------------------------


def test_else_arm_assignments_both_extracted():
    stmt = "if (en) a <= x; else b <= y;"
    assert list(sequential_assignments(stmt)) == [("a", "x"), ("b", "y")]
    assert lhs_identifiers(stmt) == ["a", "b"]


def test_chained_sequential_statements_extracted():
    stmt = "a <= x; b <= y; if (go) c <= z;"
    assert [lhs for lhs, _ in sequential_assignments(stmt)] == ["a", "b", "c"]


def test_else_arm_target_counts_as_driven():
    module = _module()
    module.ports.append(Port("en", PortDir.INPUT, 1))
    module.ports.append(Port("a", PortDir.OUTPUT, 8))
    module.ports.append(Port("b", PortDir.OUTPUT, 8))
    module.nets.append(Net("a_r", 8, is_reg=True))
    module.nets.append(Net("b_r", 8, is_reg=True))
    module.assigns.append(Assign("a", "a_r"))
    module.assigns.append(Assign("b", "b_r"))
    module.sync_blocks.append(
        SyncBlock(["if (en) a_r <= 8'd1; else b_r <= 8'd2;"])
    )
    findings = check_module(module, _netlist(module))
    # The old lint missed b_r and would flag nothing here either, but it
    # also failed to attribute the else-arm drive; the analyzer must not
    # report b_r as undriven or either reg as a non-reg drive.
    assert findings == []


# --- Width inference -----------------------------------------------------


def test_width_inference_core_forms():
    module = _module()
    module.nets.append(Net("w8", 8))
    module.nets.append(Net("w16", 16))
    module.nets.append(Net("mem", 32, is_reg=True, depth=4))
    env = WidthEnv(module)
    assert infer_width("8'd3", env) == 8
    assert infer_width("w8 + 8'd1", env) == 8
    assert infer_width("w16[7:0]", env) == 8
    assert infer_width("w16[3]", env) == 1
    assert infer_width("{w8, w8}", env) == 16
    assert infer_width("{4{w8}}", env) == 32
    assert infer_width("w8 == 8'd7", env) == 1
    assert infer_width("mem[w8]", env) == 32


def test_width_mismatch_exact_diagnostic():
    module = _module()
    module.ports.append(Port("out", PortDir.OUTPUT, 8))
    module.nets.append(Net("wide", 16))
    module.assigns.append(Assign("wide", "16'd3"))
    module.assigns.append(Assign("out", "wide"))
    findings = check_module(module, _netlist(module))
    assert [d.code for d in findings] == ["STL-NL-012"]
    diag = findings[0]
    assert diag.severity is Severity.WARNING
    assert diag.location == "m"
    assert diag.message == (
        "width mismatch in assign out: target 'out' is 8 bits but"
        " expression is 16 bits"
    )


def test_combinational_loop_detected():
    module = _module()
    module.nets.append(Net("l1", 4))
    module.nets.append(Net("l2", 4))
    module.assigns.append(Assign("l1", "l2"))
    module.assigns.append(Assign("l2", "l1"))
    findings = check_module(module, _netlist(module))
    codes = [d.code for d in findings]
    assert "STL-NL-013" in codes
    loop = next(d for d in findings if d.code == "STL-NL-013")
    assert loop.severity is Severity.ERROR
    assert "l1" in loop.message and "l2" in loop.message


def test_multiple_sync_drivers_detected():
    module = _module()
    module.nets.append(Net("r", 8, is_reg=True))
    module.sync_blocks.append(SyncBlock(["r <= 8'd1;"]))
    module.sync_blocks.append(SyncBlock(["r <= 8'd2;"]))
    findings = check_module(module, _netlist(module))
    assert "STL-NL-014" in [d.code for d in findings]


def test_dead_net_detected():
    module = _module()
    module.nets.append(Net("unused", 4))
    findings = check_module(module, _netlist(module))
    assert [d.code for d in findings] == ["STL-NL-015"]
    assert findings[0].severity is Severity.WARNING


def test_reset_coverage_warns_only_with_reset_arm():
    module = _module()
    module.nets.append(Net("r1", 8, is_reg=True))
    module.nets.append(Net("r2", 8, is_reg=True))
    module.sync_blocks.append(
        SyncBlock(["r1 <= 8'd1; r2 <= 8'd2;"], reset_statements=["r1 <= 8'd0;"])
    )
    findings = check_module(module, _netlist(module))
    assert [d.code for d in findings] == ["STL-NL-016"]
    assert "r2" in findings[0].message
    # No reset arm at all: nothing to be inconsistent with.
    module.sync_blocks[0] = SyncBlock(["r1 <= 8'd1; r2 <= 8'd2;"])
    assert check_module(module, _netlist(module)) == []


# --- Legacy string format (Netlist.lint) ----------------------------------


def test_legacy_lint_returns_old_strings():
    module = _module()
    module.nets.append(Net("w", 8))
    module.assigns.append(Assign("w", "ghost"))
    assert _netlist(module).lint() == [
        "m: undeclared identifier 'ghost' in assign w"
    ]


def test_legacy_lint_hides_warnings():
    module = _module()
    module.nets.append(Net("unused", 4))
    assert check_module(module, _netlist(module))  # a warning exists
    assert _netlist(module).lint() == []


def test_generated_design_is_clean_and_gate_passes(spec):
    design = Accelerator(
        spec=spec, bounds=Bounds({"i": 4, "j": 4, "k": 4}),
        transform=output_stationary(),
    ).build()
    netlist = lower_design(design.compiled)  # check=True by default
    assert check_netlist(netlist) == []


def test_missing_top_keeps_exact_legacy_string():
    netlist = Netlist("nothing")
    findings = check_netlist(netlist)
    assert [d.code for d in findings] == ["STL-NL-011"]
    assert findings[0].legacy_text() == "top module 'nothing' is missing"
    assert netlist.lint() == ["top module 'nothing' is missing"]
