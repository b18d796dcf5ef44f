"""Safety checker for programs that borrow qubits in unknown states.

The library parses a small imperative gate language, tracks each qubit's
value as a Boolean formula, and decides with a SAT solver whether borrowed
qubits are restored exactly, independent of their initial state. A
brute-force simulator over basis permutations, in `qborrow.oracle`, provides
the tests' ground truth at small sizes; it is the only module that needs
numpy, and no command imports it.

Typical use:

    from qborrow import elaborate_source, verify_circuit
    report = verify_circuit(elaborate_source(text))
"""

__version__ = "0.1.0"

from .frontend import parse_source, print_program, tokenize
from .elaborator import ElabError, elaborate, elaborate_source
from .boolform import (
    BoolStore,
    apply_gate,
    cond_restore_plus,
    cond_restore_zero,
    count_nodes,
    evaluate,
    init_state,
    to_prefix,
    track,
    variables,
)
from .satcore import (
    Cnf,
    check_sat,
    emit_dimacs,
    emit_smtlib,
    parse_dimacs,
    solve,
    tseitin,
)
from .verify import verify_circuit

__all__ = [
    "tokenize",
    "parse_source",
    "print_program",
    "ElabError",
    "elaborate",
    "elaborate_source",
    "BoolStore",
    "init_state",
    "track",
    "apply_gate",
    "evaluate",
    "variables",
    "count_nodes",
    "to_prefix",
    "cond_restore_zero",
    "cond_restore_plus",
    "Cnf",
    "tseitin",
    "solve",
    "check_sat",
    "emit_dimacs",
    "parse_dimacs",
    "emit_smtlib",
    "verify_circuit",
]
