"""Verification driver: decide the safety of every borrowed qubit.

For each borrow-verified qubit of an elaborated circuit, build cond1 and
then cond2 from the tracked formulas and decide them, with the internal CDCL
solver or an external SMT-LIB2 solver.  The first satisfiable condition means
Unsafe, and cond2 is then built only to be emitted; both unsatisfiable means
Safe; a budget that runs out means Unknown.
"""

import json
import math
import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .boolform import BoolExpr, cond_restore_plus, cond_restore_zero, count_nodes, track
from .elaborator import FlatCircuit, QubitId, simulate
from .errors import ResourceLimit, SelfCheckError, UsageError
from .satcore import (
    DEFAULT_BUDGET_CONFLICTS,
    DEFAULT_BUDGET_SECONDS,
    emit_dimacs,
    emit_smtlib,
    solve,
    tseitin,
)

# process exit codes, documented in cli.py
EXIT_SAFE = 0
EXIT_UNSAFE = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3
EXIT_DISAGREE = 4

# most qubits `exact_safe` enumerates: its columns take 2^n bits each
EXHAUSTIVE_CAP = 20


@dataclass
class Verdict:
    qubit: str
    status: str  # safe | unsafe | skipped | unknown
    violated: str | None = None  # cond1 | cond2
    witness: dict[str, bool] | None = None
    budget: str | None = None
    solve_ms: float = 0.0
    formula_nodes: int = 0
    cnf_vars: int = 0
    cnf_clauses: int = 0

    def to_dict(self):
        return {
            "qubit": self.qubit,
            "status": self.status,
            "violated": self.violated,
            "witness": self.witness,
            "budget": self.budget,
            "solve_ms": round(self.solve_ms, 3),
            "formula_nodes": self.formula_nodes,
            "cnf_vars": self.cnf_vars,
            "cnf_clauses": self.cnf_clauses,
        }


@dataclass
class Report:
    program: str
    n_qubits: int
    n_gates: int
    verdicts: list[Verdict] = field(default_factory=list)
    total_ms: float = 0.0
    version: str = __version__
    config: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "program": self.program,
            "version": self.version,
            "qubits": self.n_qubits,
            "gates": self.n_gates,
            "config": self.config,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "total_ms": round(self.total_ms, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def report_exit_code(report: Report) -> int:
    statuses = [v.status for v in report.verdicts]
    if "unsafe" in statuses:
        return EXIT_UNSAFE
    if "unknown" in statuses:
        return EXIT_UNKNOWN
    return EXIT_SAFE


# ---------------------------------------------------------------------------
# deciding one condition


@dataclass
class Decision:
    """The outcome of one condition: sat, unsat, or unknown with the reason
    of the ResourceLimit that ended it."""

    status: str  # sat | unsat | unknown
    witness: dict[str, bool] | None = None  # internal sat answers only
    budget: str | None = None
    cnf_vars: int = 0
    cnf_clauses: int = 0


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _decide_internal(e: BoolExpr, encoded, budget_conflicts: int, budget_seconds: float) -> Decision:
    """Decide `e`, reusing its Tseitin encoding `(cnf, root)` when given."""
    cnf, root = encoded or tseitin(e)
    res = solve(cnf, root, budget_conflicts=budget_conflicts, budget_seconds=budget_seconds)
    witness = {q.label: v for q, v in res.model.items()} if res.is_sat else None
    return Decision(res.status, witness, cnf_vars=cnf.n_vars, cnf_clauses=len(cnf.clauses))


def _run_solver(argv: list[str], budget_seconds: float) -> Decision:
    """Run an external solver; it must print a line that is exactly `sat`
    or `unsat`."""
    try:
        # a byte that is not UTF-8 decodes to U+FFFD, so its line is no verdict
        proc = subprocess.run(
            argv, capture_output=True, text=True, errors="replace", timeout=budget_seconds
        )
    except subprocess.TimeoutExpired:
        raise ResourceLimit("time", f"solver ran past {budget_seconds}s")
    except OSError as exc:
        raise ResourceLimit("exec", f"solver did not start: {exc}")
    # match whole lines: "unsat" contains "sat" as a substring
    for line in proc.stdout.splitlines():
        if line.strip() in ("sat", "unsat"):
            return Decision(line.strip())
    raise ResourceLimit("output", "solver printed no line that is exactly sat or unsat")


def _decide_external(
    e: BoolExpr, cmd: list[str], budget_seconds: float, script_path: Path | None
) -> Decision:
    """Decide with an external solver on an emitted script.  Without a
    script path the script goes to a temporary file, removed afterwards."""
    if script_path is not None:
        return _run_solver(cmd + [str(script_path)], budget_seconds)
    tmp = tempfile.NamedTemporaryFile(mode="w", suffix=".smt2", delete=False, prefix="qborrow.")
    try:
        with tmp:
            tmp.write(emit_smtlib(e))
        return _run_solver(cmd + [tmp.name], budget_seconds)
    finally:
        os.unlink(tmp.name)


# ---------------------------------------------------------------------------
# the driver


def _violations(c: FlatCircuit, q: QubitId, columns, m: int) -> tuple[int, int]:
    """Run the circuit once on the m input patterns of `columns` (q's own
    column is ignored), with q at 0 in patterns 0..m-1 and at 1 in patterns
    m..2m-1.  Returns the masks of those 2m inputs that violate cond1 (q's
    output bit differs from its input bit) and cond2 (some other output bit
    changes with q)."""
    ones = (1 << m) - 1
    cols = [col | col << m for col in columns]
    cols[q.gid] = ones << m
    out = simulate(c, cols, ones | ones << m)
    leak = 0
    for i, col in enumerate(out):
        if i != q.gid:
            leak |= (col ^ col >> m) & ones
    return out[q.gid] ^ ones << m, leak | leak << m


def witness_violates(c: FlatCircuit, q: QubitId, witness: dict[str, bool], which: str) -> bool:
    """Replay a SAT witness through the classical semantics.

    cond1 witnesses must show bit q changing; cond2 witnesses must show some
    other output bit depending on the input value of q."""
    by_label = {qq.label: qq for qq in c.qubits}
    bits = [0] * c.n_qubits
    for label, val in witness.items():
        bits[by_label[label].gid] = 1 if val else 0
    cond1, cond2 = _violations(c, q, bits, 1)
    return bool((cond1 if which == "cond1" else cond2) >> bits[q.gid] & 1)


def exact_safe(c: FlatCircuit, q: QubitId) -> int:
    """Decide q on every input at once; returns the mask of violating inputs,
    0 exactly when q is safe.  Bit v * 2^(n-1) + e stands for the input with
    q = v and the other qubits, in gid order, spelling e in binary from its
    highest bit down."""
    n = c.n_qubits
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"{n} qubits exceed the exhaustive cap of {EXHAUSTIVE_CAP}")
    columns, m = [0] * n, 1
    for gid in reversed([i for i in range(n) if i != q.gid]):  # the last is bit 0 of e
        columns = [col | col << m for col in columns]  # a second copy of every pattern
        columns[gid] = ((1 << m) - 1) << m  # 0 in the first copy, 1 in the second
        m *= 2
    cond1, cond2 = _violations(c, q, columns, m)
    return cond1 | cond2


def _verdict(circuit: FlatCircuit, q: QubitId, state, write, decide) -> Verdict:
    """Build, write (when `write` is given) and decide cond1, then cond2.
    The first sat condition settles the verdict; cond2 is then built only
    to be written.  The stats sum over the decided conditions."""
    v = Verdict(q.label, "safe")
    # the builders are looked up per call, so wrappers set on this module see them
    for name, build in (("cond1", cond_restore_zero), ("cond2", cond_restore_plus)):
        if v.status == "unsafe":  # settled by cond1
            if write is not None:
                write(build(q, state), q, name)
            break
        e = build(q, state)
        written = write(e, q, name) if write is not None else (None, None)
        t0 = time.perf_counter()
        # Unknown only when deciding; a size cap met building or writing ends the run
        try:
            d = decide(e, written)
        except ResourceLimit as exc:
            d = Decision("unknown", budget=exc.reason)
        v.solve_ms += _ms_since(t0)
        v.formula_nodes += count_nodes(e)
        v.cnf_vars += d.cnf_vars
        v.cnf_clauses += d.cnf_clauses
        if d.status == "sat":
            if d.witness is not None and not witness_violates(circuit, q, d.witness, name):
                raise SelfCheckError(f"{q.label}: {name} witness {d.witness} does not replay")
            v.status, v.violated, v.witness, v.budget = "unsafe", name, d.witness, None
        elif d.status == "unknown" and v.status == "safe":
            v.status, v.budget = "unknown", d.budget
    return v


def verify_circuit(
    circuit: FlatCircuit,
    *,
    program: str = "<memory>",
    solver: str = "internal",
    emit_dimacs_dir=None,
    emit_smtlib_dir=None,
    budget_conflicts: int = DEFAULT_BUDGET_CONFLICTS,
    budget_seconds: float = DEFAULT_BUDGET_SECONDS,
) -> Report:
    """Decide safety of every borrow-verified qubit of an elaborated circuit."""
    t_start = time.perf_counter()
    external = None
    if solver.startswith("cmd:"):
        try:
            external = shlex.split(solver[4:])
        except ValueError as exc:  # an unbalanced quote
            raise UsageError(str(exc))
        if not external:
            raise UsageError("empty external solver command")
    elif solver != "internal":
        raise UsageError(f"unknown solver {solver!r} (expected internal or cmd:<exe>)")
    if not 0 <= budget_seconds < math.inf:  # also false for nan
        raise UsageError(f"time budget must be finite and >= 0 seconds, got {budget_seconds}")
    if budget_conflicts < 0:
        raise UsageError(f"conflict budget must be >= 0, got {budget_conflicts}")

    state = track(circuit)
    stem = Path(program).stem if program != "<memory>" else "circuit"
    for d in (emit_dimacs_dir, emit_smtlib_dir):
        if d is not None:
            Path(d).mkdir(parents=True, exist_ok=True)

    def write(e: BoolExpr, q: QubitId, name: str) -> tuple:
        """Write one condition's files; returns the Tseitin encoding made for
        the `.cnf` file and the SMT-LIB2 script path, each None if unwritten."""
        base = f"{stem}.{q.label}.{name}"
        encoded = path = None
        if emit_dimacs_dir is not None:
            encoded = tseitin(e)
            (Path(emit_dimacs_dir) / f"{base}.cnf").write_text(emit_dimacs(*encoded))
        if emit_smtlib_dir is not None:
            path = Path(emit_smtlib_dir) / f"{base}.smt2"
            path.write_text(emit_smtlib(e))
        return encoded, path

    def decide(e: BoolExpr, written: tuple) -> Decision:
        encoded, script = written
        if external is None:
            return _decide_internal(e, encoded, budget_conflicts, budget_seconds)
        return _decide_external(e, external, budget_seconds, script)

    emitting = emit_dimacs_dir is not None or emit_smtlib_dir is not None
    verdicts = [
        _verdict(circuit, q, state, write if emitting else None, decide)
        for q in circuit.verify_qubits()
    ]
    verdicts.extend(Verdict(q.label, "skipped") for q in circuit.skipped_qubits())

    total_ms = _ms_since(t_start)
    config = {
        "solver": solver,
        "budget_conflicts": budget_conflicts,
        "budget_seconds": budget_seconds,
    }
    return Report(
        program=program,
        n_qubits=circuit.n_qubits,
        n_gates=len(circuit.gates),
        verdicts=verdicts,
        total_ms=total_ms,
        config=config,
    )
