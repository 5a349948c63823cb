"""Level 2: netlist dataflow lint (``STL-NL-*``).

The original name-level structural checks, extended with dataflow
analyses over the structural RTL IR:

* **bit-width inference** over the expression strings of assigns, sync
  statements, and instance connections, warning on mismatches
  (``STL-NL-012``) -- a recursive-descent evaluator that understands
  based literals, part/bit selects, memory element selects, concats,
  replications, and the usual operators, with Verilog's convention that
  unsized literals adapt to the other operand;
* **combinational-loop detection** (``STL-NL-013``) via a cycle search
  over the per-module continuous-assign dependency graph (registers
  break cycles);
* **multiple-driver detection** (``STL-NL-014``), range-aware so the
  generated arrays -- which drive disjoint slices of one bus from many
  PE instances -- stay clean;
* **dead-net detection** (``STL-NL-015``) for declared-but-unreferenced
  nets;
* **reset-coverage checks** (``STL-NL-016``) for regs driven in a sync
  block whose reset arm forgets them (memory arrays are exempt -- SRAM
  macros are not reset);
* **part-select range checks** (``STL-NL-017``) during width inference.

The original structural checks keep their semantics under codes
``STL-NL-001`` .. ``STL-NL-011``; :meth:`repro.rtl.netlist.Netlist.lint`
renders the error-severity diagnostics in the legacy string format.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rtl.netlist import Module, Netlist, PortDir, expression_identifiers
from .diagnostics import Diagnostic, Severity, suppress as _suppress

_IDENT_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)")
_WORD_IF = re.compile(r"^if\b")
_WORD_ELSE = re.compile(r"^else\b")
_LHS_SELECT = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:\[\s*(\d+)\s*(?::\s*(\d+)\s*)?\])?\s*$"
)


# ---------------------------------------------------------------------------
# Statement parsing
# ---------------------------------------------------------------------------


def strip_guard(statement: str) -> str:
    """Drop a leading ``if (...)`` guard (balanced parens) from a statement."""
    text = statement.lstrip()
    if not _WORD_IF.match(text):
        return text
    start = text.find("(")
    if start < 0:
        return text
    depth = 0
    for pos in range(start, len(text)):
        if text[pos] == "(":
            depth += 1
        elif text[pos] == ")":
            depth -= 1
            if depth == 0:
                return text[pos + 1:].lstrip()
    return text


def sequential_assignments(statement: str) -> Iterator[Tuple[str, str]]:
    """Yield every ``(lhs, rhs)`` nonblocking assignment in a sequential
    statement, handling chained and else-arm forms such as
    ``if (c) a <= x; else b <= y;`` (both ``a`` and ``b`` are targets)."""
    for fragment in statement.split(";"):
        fragment = fragment.strip()
        while True:
            if _WORD_ELSE.match(fragment):
                fragment = fragment[4:].lstrip()
                continue
            if _WORD_IF.match(fragment):
                stripped = strip_guard(fragment)
                if stripped != fragment:
                    fragment = stripped
                    continue
            break
        if "<=" in fragment:
            lhs, rhs = fragment.split("<=", 1)
            if lhs.strip():
                yield lhs.strip(), rhs.strip()


def lhs_identifiers(statement: str) -> List[str]:
    """Every identifier assigned by a sequential statement."""
    names = []
    for lhs, _ in sequential_assignments(statement):
        match = _IDENT_RE.match(lhs)
        if match:
            names.append(match.group(1))
    return names


def leading_identifier(text: str) -> str:
    match = _IDENT_RE.match(text)
    return match.group(1) if match else ""


# ---------------------------------------------------------------------------
# Width inference
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<based>\d+'[bdh][0-9a-fA-FxzXZ_]+)"
    r"|(?P<num>\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><<<|>>>|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^~!<>()\[\]{},:?])"
    r"|(?P<ws>\s+)"
)

_COMPARISON_OPS = frozenset({"==", "!=", "<", ">", "<=", ">=", "&&", "||"})
_SHIFT_OPS = frozenset({"<<", ">>", "<<<", ">>>"})


class _ParseAbort(Exception):
    """Internal: the expression uses syntax the inferencer does not model;
    width checking is skipped for it (never an error)."""


class WidthEnv:
    """Declared widths of one module, as the width inferencer sees them."""

    def __init__(self, module: Module):
        self.widths: Dict[str, int] = {}
        self.memories: Set[str] = set()
        for port in module.ports:
            self.widths[port.name] = port.width
        for net in module.nets:
            self.widths[net.name] = net.width
            if net.depth > 0:
                self.memories.add(net.name)


class _WidthParser:
    """Recursive-descent width evaluator over one expression string.

    Returns ``(bits, value)`` pairs: ``bits`` is ``None`` for unsized
    literals (they adapt to the other operand, as in Verilog) and for
    subexpressions the model cannot size; ``value`` is only tracked for
    literal constants (needed for part-select bounds and replication
    counts).
    """

    def __init__(self, text: str, env: WidthEnv, report):
        self.tokens: List[Tuple[str, str]] = []
        pos = 0
        for match in _TOKEN_RE.finditer(text):
            if match.start() != pos:
                raise _ParseAbort()
            pos = match.end()
            if match.lastgroup != "ws":
                self.tokens.append((match.lastgroup, match.group(0)))
        if pos != len(text):
            raise _ParseAbort()
        self.pos = 0
        self.env = env
        self.report = report

    # -- token plumbing -------------------------------------------------
    def _peek(self) -> Optional[Tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise _ParseAbort()
        self.pos += 1
        return token

    def _accept(self, text: str) -> bool:
        token = self._peek()
        if token is not None and token[1] == text:
            self.pos += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if not self._accept(text):
            raise _ParseAbort()

    # -- grammar --------------------------------------------------------
    def parse(self) -> Tuple[Optional[int], Optional[int]]:
        result = self._ternary()
        if self._peek() is not None:
            raise _ParseAbort()
        return result

    def _ternary(self) -> Tuple[Optional[int], Optional[int]]:
        condition = self._binary(0)
        if self._accept("?"):
            true_arm = self._ternary()
            self._expect(":")
            false_arm = self._ternary()
            return _merge(true_arm[0], false_arm[0]), None
        return condition

    _LEVELS: Tuple[Tuple[str, ...], ...] = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>", "<<<", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def _binary(self, level: int) -> Tuple[Optional[int], Optional[int]]:
        if level >= len(self._LEVELS):
            return self._unary()
        left = self._binary(level + 1)
        while True:
            token = self._peek()
            if token is None or token[1] not in self._LEVELS[level]:
                return left
            op = self._next()[1]
            right = self._binary(level + 1)
            if op in _COMPARISON_OPS:
                left = (1, None)
            elif op in _SHIFT_OPS:
                left = (left[0], None)
            else:
                left = (_merge(left[0], right[0]), None)

    def _unary(self) -> Tuple[Optional[int], Optional[int]]:
        token = self._peek()
        if token is not None and token[1] in ("!", "~", "-", "+", "&", "|", "^"):
            op = self._next()[1]
            operand = self._unary()
            if op in ("!", "&", "|", "^"):
                return (1, None)
            return (operand[0], None)
        return self._primary()

    def _primary(self) -> Tuple[Optional[int], Optional[int]]:
        token = self._next()
        kind, text = token
        if text == "(":
            inner = self._ternary()
            self._expect(")")
            return inner
        if text == "{":
            return self._concat()
        if kind == "based":
            width_text, _, value_text = text.partition("'")
            try:
                value = int(value_text[1:].replace("_", ""), _base(value_text[0]))
            except ValueError:
                value = None
            return int(width_text), value
        if kind == "num":
            return None, int(text)
        if kind == "id":
            return self._identifier(text)
        raise _ParseAbort()

    def _concat(self) -> Tuple[Optional[int], Optional[int]]:
        first = self._ternary()
        if self._accept("{"):
            # Replication {N{expr}}: the count must be a known constant.
            inner = self._ternary()
            self._expect("}")
            self._expect("}")
            if first[1] is None or inner[0] is None:
                return None, None
            return first[1] * inner[0], None
        widths = [first[0]]
        while self._accept(","):
            widths.append(self._ternary()[0])
        self._expect("}")
        if any(w is None for w in widths):
            return None, None
        return sum(widths), None

    def _identifier(self, name: str) -> Tuple[Optional[int], Optional[int]]:
        width = self.env.widths.get(name)
        element_pending = name in self.env.memories
        first = True
        while self._peek() is not None and self._peek()[1] == "[":
            self._next()
            index = self._ternary()
            if self._accept(":"):
                low = self._ternary()
                self._expect("]")
                hi, lo = index[1], low[1]
                if hi is None or lo is None:
                    width = None
                elif hi < lo:
                    self.report(
                        f"part-select [{hi}:{lo}] of {name!r} is reversed"
                    )
                    width = None
                else:
                    if width is not None and hi >= width:
                        self.report(
                            f"part-select [{hi}:{lo}] exceeds the"
                            f" {width}-bit width of {name!r}"
                        )
                    width = hi - lo + 1
            else:
                self._expect("]")
                if first and element_pending:
                    pass  # memory element select keeps the element width
                else:
                    if (
                        width is not None
                        and index[1] is not None
                        and index[1] >= width
                    ):
                        self.report(
                            f"bit-select [{index[1]}] exceeds the"
                            f" {width}-bit width of {name!r}"
                        )
                    width = 1
            first = False
        return width, None


def _merge(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Width of a context-determined binary result; unsized adapts."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _base(marker: str) -> int:
    return {"b": 2, "d": 10, "h": 16}[marker]


def infer_width(
    expression: str, env: WidthEnv, report=lambda message: None
) -> Optional[int]:
    """Inferred bit width of an expression, or None when unknown.

    ``report`` receives messages for range violations found on the way
    (out-of-bounds part/bit selects).
    """
    try:
        return _WidthParser(expression, env, report).parse()[0]
    except _ParseAbort:
        return None


# ---------------------------------------------------------------------------
# Module-level checks
# ---------------------------------------------------------------------------


def check_module(module: Module, netlist: Netlist) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    loc = module.name
    declared = module.declared_names()
    env = WidthEnv(module)
    outputs = {p.name for p in module.ports if p.direction is PortDir.OUTPUT}
    inputs = {p.name for p in module.ports if p.direction is PortDir.INPUT}
    regs = {n.name for n in module.nets if n.is_reg}
    wires = {n.name for n in module.nets if not n.is_reg}
    driven: Set[str] = set()
    # Continuous drivers per signal: (lo, hi, description); hi None when the
    # driven range is not statically known (skipped by overlap detection).
    cont_drivers: Dict[str, List[Tuple[int, Optional[int], str]]] = {}

    def emit(code, severity, message, suggestion=""):
        diagnostics.append(
            Diagnostic(code, severity, "netlist", message, loc, suggestion)
        )

    def check_refs(expression: str, where: str) -> None:
        for name in expression_identifiers(expression):
            if name not in declared:
                emit(
                    "STL-NL-001",
                    Severity.ERROR,
                    f"undeclared identifier {name!r} in {where}",
                )

    def width_of(expression: str, where: str) -> Optional[int]:
        def report(message: str) -> None:
            emit("STL-NL-017", Severity.ERROR, f"{message} in {where}")

        return infer_width(expression, env, report)

    def check_widths(lhs: str, rhs: str, where: str) -> None:
        lhs_width = width_of(lhs, where)
        rhs_width = width_of(rhs, where)
        if lhs_width is not None and rhs_width is not None and lhs_width != rhs_width:
            emit(
                "STL-NL-012",
                Severity.WARNING,
                f"width mismatch in {where}: target {lhs!r} is"
                f" {lhs_width} bits but expression is {rhs_width} bits",
                suggestion="resize one side or slice the wider value",
            )

    def record_driver(lhs: str, description: str) -> None:
        match = _LHS_SELECT.match(lhs)
        if not match:
            name = leading_identifier(lhs)
            if name:
                cont_drivers.setdefault(name, []).append((0, None, description))
            return
        name, hi_text, lo_text = match.groups()
        if hi_text is None:
            width = env.widths.get(name, 1)
            cont_drivers.setdefault(name, []).append((0, width - 1, description))
        elif lo_text is None:
            bit = int(hi_text)
            cont_drivers.setdefault(name, []).append((bit, bit, description))
        else:
            cont_drivers.setdefault(name, []).append(
                (int(lo_text), int(hi_text), description)
            )

    # --- Continuous assigns --------------------------------------------
    for assign in module.assigns:
        name = leading_identifier(assign.lhs)
        where = f"assign {assign.lhs}"
        if name in regs:
            emit(
                "STL-NL-002",
                Severity.ERROR,
                f"assign drives reg {name!r} (must use a sync block)",
            )
        elif name not in wires | outputs:
            emit("STL-NL-004", Severity.ERROR, f"assign drives undeclared {name!r}")
        driven.add(name)
        record_driver(assign.lhs, where)
        check_refs(assign.rhs, where)
        if name in declared:
            check_widths(assign.lhs, assign.rhs, where)

    # --- Sync blocks ----------------------------------------------------
    sync_block_of: Dict[str, int] = {}
    for block_index, block in enumerate(module.sync_blocks):
        block_driven: Set[str] = set()
        for stmt in list(block.statements) + list(block.reset_statements):
            check_refs(stmt, "sync block")
            for lhs, rhs in sequential_assignments(stmt):
                name = leading_identifier(lhs)
                if not name:
                    continue
                if name not in regs:
                    emit(
                        "STL-NL-003",
                        Severity.ERROR,
                        f"sync block drives non-reg {name!r}",
                    )
                driven.add(name)
                block_driven.add(name)
                if name in declared:
                    check_widths(lhs, rhs, f"sync statement {lhs} <= ...")
        for name in sorted(block_driven):
            previous = sync_block_of.get(name)
            if previous is not None and previous != block_index:
                emit(
                    "STL-NL-014",
                    Severity.ERROR,
                    f"reg {name!r} is driven from multiple sync blocks",
                )
            sync_block_of[name] = block_index
        if block.reset_statements:
            reset_covered: Set[str] = set()
            for stmt in block.reset_statements:
                reset_covered.update(lhs_identifiers(stmt))
            for name in sorted(block_driven - reset_covered - env.memories):
                emit(
                    "STL-NL-016",
                    Severity.WARNING,
                    f"reg {name!r} is driven in a sync block but missing"
                    " from its reset arm",
                    suggestion="add a reset statement or drop the reset arm",
                )

    # --- Instances ------------------------------------------------------
    for inst in module.instances:
        child = netlist.modules.get(inst.module_name)
        if child is None:
            emit(
                "STL-NL-007",
                Severity.ERROR,
                f"instance {inst.instance_name!r} of unknown module"
                f" {inst.module_name!r}",
            )
            continue
        child_inputs = {
            p.name for p in child.ports if p.direction is PortDir.INPUT
        }
        for port_name, signal in inst.connections.items():
            where = f"instance {inst.instance_name}.{port_name}"
            if not child.has_port(port_name):
                emit(
                    "STL-NL-008",
                    Severity.ERROR,
                    f"{inst.instance_name} connects missing port"
                    f" {port_name!r} of {child.name}",
                )
                continue
            check_refs(signal, where)
            port = child.port(port_name)
            signal_width = width_of(signal, where)
            if signal_width is not None and signal_width != port.width:
                emit(
                    "STL-NL-012",
                    Severity.WARNING,
                    f"width mismatch in {where}: port is {port.width} bits"
                    f" but {signal!r} is {signal_width} bits",
                )
            if port.direction is PortDir.OUTPUT:
                name = leading_identifier(signal)
                if name:
                    driven.add(name)
                    record_driver(signal, where)
        for port_name in sorted(child_inputs - set(inst.connections)):
            emit(
                "STL-NL-009",
                Severity.ERROR,
                f"{inst.instance_name} leaves input {port_name!r} of"
                f" {child.name} unconnected",
            )

    # --- Driven-set consistency ----------------------------------------
    for name in sorted(outputs - driven):
        emit("STL-NL-005", Severity.ERROR, f"output {name!r} is never driven")
    for name in sorted(driven & inputs):
        emit("STL-NL-006", Severity.ERROR, f"input port {name!r} is driven internally")

    # --- Multiple continuous drivers (range-aware) ----------------------
    for name, ranges in sorted(cont_drivers.items()):
        known = sorted(r for r in ranges if r[1] is not None)
        for (lo_a, hi_a, desc_a), (lo_b, hi_b, desc_b) in zip(known, known[1:]):
            if lo_b <= hi_a:
                emit(
                    "STL-NL-014",
                    Severity.ERROR,
                    f"{name!r} bits [{max(lo_a, lo_b)}:{min(hi_a, hi_b)}]"
                    f" have multiple drivers ({desc_a} and {desc_b})",
                )
                break

    # --- Combinational loops over the assign graph ----------------------
    diagnostics.extend(_check_comb_loops(module, regs, env.memories, loc))

    # --- Dead nets -------------------------------------------------------
    used: Set[str] = set()
    for assign in module.assigns:
        used.update(expression_identifiers(assign.lhs))
        used.update(expression_identifiers(assign.rhs))
    for block in module.sync_blocks:
        for stmt in list(block.statements) + list(block.reset_statements):
            used.update(expression_identifiers(stmt))
    for inst in module.instances:
        for signal in inst.connections.values():
            used.update(expression_identifiers(signal))
    for net in module.nets:
        if net.name not in used:
            emit(
                "STL-NL-015",
                Severity.WARNING,
                f"net {net.name!r} is declared but never used",
                suggestion="delete the declaration",
            )

    return diagnostics


def _check_comb_loops(
    module: Module, regs: Set[str], memories: Set[str], loc: str
) -> List[Diagnostic]:
    """Cycles in the continuous-assign dependency graph are combinational
    loops; registers (sync-driven) legally break feedback paths."""
    sequential = regs | memories
    edges: Dict[str, List[str]] = {}
    for assign in module.assigns:
        target = leading_identifier(assign.lhs)
        if not target or target in sequential:
            continue
        deps = [
            name
            for name in expression_identifiers(assign.rhs)
            if name not in sequential
        ]
        edges.setdefault(target, []).extend(deps)

    diagnostics: List[Diagnostic] = []
    state: Dict[str, int] = {}

    def visit(name: str, stack: List[str]) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            cycle = stack[stack.index(name):] + [name]
            diagnostics.append(
                Diagnostic(
                    "STL-NL-013",
                    Severity.ERROR,
                    "netlist",
                    "combinational loop: " + " -> ".join(cycle),
                    loc,
                    suggestion="break the loop with a register",
                )
            )
            return
        state[name] = 1
        for dep in edges.get(name, ()):
            visit(dep, stack + [name])
        state[name] = 2

    for name in sorted(edges):
        visit(name, [])
    return diagnostics


# ---------------------------------------------------------------------------
# Netlist-level checks
# ---------------------------------------------------------------------------


def check_netlist(
    netlist: Netlist, suppress: Iterable[str] = ()
) -> List[Diagnostic]:
    """Run every netlist check over every module of a design."""
    diagnostics: List[Diagnostic] = []
    if netlist.top_name not in netlist.modules:
        diagnostics.append(
            Diagnostic(
                "STL-NL-011",
                Severity.ERROR,
                "netlist",
                f"top module {netlist.top_name!r} is missing",
            )
        )
        return _suppress(diagnostics, suppress)

    for module in netlist.modules.values():
        diagnostics.extend(check_module(module, netlist))

    # Cycle check over the instantiation graph.
    state: Dict[str, int] = {}

    def visit(name: str, stack: List[str]) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            diagnostics.append(
                Diagnostic(
                    "STL-NL-010",
                    Severity.ERROR,
                    "netlist",
                    "instantiation cycle: " + " -> ".join(stack + [name]),
                )
            )
            return
        state[name] = 1
        module = netlist.modules.get(name)
        if module is not None:
            for inst in module.instances:
                visit(inst.module_name, stack + [name])
        state[name] = 2

    visit(netlist.top_name, [])
    return _suppress(diagnostics, suppress)
