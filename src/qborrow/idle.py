"""Idle-qubit analysis: which qubits a statement leaves untouched.

The statement forms below extend the parsed language with the
measurement-guarded constructs needed by the structural rules; they exist
for analysis only and carry no executable semantics here.  Qubit operands
may be any hashable values, so tests can model machines larger than one
program's declaration set.  No command imports this module.
"""

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Init:
    """Reset one qubit to |0>."""

    qubit: object


@dataclass(frozen=True)
class Unitary:
    qubits: frozenset

    def __init__(self, qubits: Iterable):
        object.__setattr__(self, "qubits", frozenset(qubits))


@dataclass(frozen=True)
class Seq:
    first: "ExtStmt"
    second: "ExtStmt"


@dataclass(frozen=True)
class IfMeasure:
    measured: frozenset
    then_branch: "ExtStmt"
    else_branch: "ExtStmt"

    def __init__(self, measured: Iterable, then_branch, else_branch):
        object.__setattr__(self, "measured", frozenset(measured))
        object.__setattr__(self, "then_branch", then_branch)
        object.__setattr__(self, "else_branch", else_branch)


@dataclass(frozen=True)
class WhileMeasure:
    measured: frozenset
    body: "ExtStmt"

    def __init__(self, measured: Iterable, body):
        object.__setattr__(self, "measured", frozenset(measured))
        object.__setattr__(self, "body", body)


@dataclass(frozen=True)
class BorrowBlock:
    placeholder: object
    body: "ExtStmt"


ExtStmt = Skip | Init | Unitary | Seq | IfMeasure | WhileMeasure | BorrowBlock


def seq(*stmts: ExtStmt) -> ExtStmt:
    """Right-fold a statement list into nested Seq (empty -> Skip)."""
    if not stmts:
        return Skip()
    result = stmts[-1]
    for s in reversed(stmts[:-1]):
        result = Seq(s, result)
    return result


def idle(s: ExtStmt, universe: frozenset | set) -> frozenset:
    """Qubits of `universe` untouched by `s`, by structural induction.

    Borrow placeholders are transparent: a BorrowBlock contributes exactly
    what its body contributes, and operands outside `universe` (such as the
    placeholders themselves) simply do not subtract anything.
    """
    universe = frozenset(universe)
    if isinstance(s, Skip):
        return universe
    if isinstance(s, Init):
        return universe - {s.qubit}
    if isinstance(s, Unitary):
        return universe - s.qubits
    if isinstance(s, Seq):
        return idle(s.first, universe) & idle(s.second, universe)
    if isinstance(s, IfMeasure):
        return (idle(s.then_branch, universe) & idle(s.else_branch, universe)) - s.measured
    if isinstance(s, WhileMeasure):
        return idle(s.body, universe) - s.measured
    if isinstance(s, BorrowBlock):
        return idle(s.body, universe)
    raise TypeError(f"not a statement: {s!r}")
