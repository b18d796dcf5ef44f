"""Verification driver: decide the safety of every borrowed qubit.

For each borrow-verified qubit of an elaborated circuit, `verify_circuit`
takes cond1 and then cond2 down one path: build it from the tracked
formulas, write it when an emit directory is given, decide it with the
internal CDCL solver or an external SMT-LIB2 solver, and fold the outcome
into the qubit's verdict, built as one `Verdict` when the qubit is settled.
A condition that folded to `false` is unsat without a solver call, unless
the solver is external.  So with the internal solver and no emit directory,
a qubit that `restored_gids` names (its output is its own variable, which
no other output holds) gets the verdict of two folded conditions without
either being built.  The first satisfiable condition means Unsafe,
and cond2 is then built only to be written; both unsatisfiable means Safe; a
budget that runs out means Unknown.  `cross_check` compares the decided
verdicts with exhaustive enumeration (`exact_safe`), for `--oracle`.
"""

import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .boolform import (
    BoolExpr,
    cond_restore_plus,
    cond_restore_zero,
    count_nodes,
    restored_gids,
    track,
)
from .elaborator import FlatCircuit, QubitId, QubitRole, simulate
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


class Verdict:
    """One qubit's outcome; mutable, so a caller may replace its witness."""

    __slots__ = (
        "qubit", "status", "violated", "witness", "budget",
        "solve_ms", "formula_nodes", "cnf_vars", "cnf_clauses",
    )

    def __init__(
        self,
        qubit: str,
        status: str,  # safe | unsafe | skipped | unknown
        violated: str | None = None,  # cond1 | cond2
        witness: dict[str, bool] | None = None,
        budget: str | None = None,
        solve_ms: float = 0.0,
        formula_nodes: int = 0,
        cnf_vars: int = 0,
        cnf_clauses: int = 0,
    ):
        self.qubit = qubit
        self.status = status
        self.violated = violated
        self.witness = witness
        self.budget = budget
        self.solve_ms = solve_ms
        self.formula_nodes = formula_nodes
        self.cnf_vars = cnf_vars
        self.cnf_clauses = cnf_clauses

    def __eq__(self, other):
        if type(other) is not Verdict:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in Verdict.__slots__)

    def to_dict(self):
        doc = {k: getattr(self, k) for k in Verdict.__slots__}
        doc["solve_ms"] = round(self.solve_ms, 3)
        return doc


class Report:
    __slots__ = ("program", "n_qubits", "n_gates", "verdicts", "total_ms", "version", "config")

    def __init__(
        self,
        program: str,
        n_qubits: int,
        n_gates: int,
        verdicts: list[Verdict] | None = None,  # a new [] by default
        total_ms: float = 0.0,
        version: str = __version__,
        config: dict | None = None,  # a new {} by default
    ):
        self.program = program
        self.n_qubits = n_qubits
        self.n_gates = n_gates
        self.verdicts = [] if verdicts is None else verdicts
        self.total_ms = total_ms
        self.version = version
        self.config = {} if config is None else config

    def __eq__(self, other):
        if type(other) is not Report:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in Report.__slots__)

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
        import json  # only a run that writes a report needs it

        return json.dumps(self.to_dict(), indent=2) + "\n"


def report_exit_code(report: Report) -> int:
    statuses = [v.status for v in report.verdicts]
    if "unsafe" in statuses:
        return EXIT_UNSAFE
    if "unknown" in statuses:
        return EXIT_UNKNOWN
    return EXIT_SAFE


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


# ---------------------------------------------------------------------------
# external solvers


def _run_solver(argv: list[str], budget_seconds: float) -> str:
    """Run an external solver; returns the first line it prints that is
    exactly `sat` or `unsat`.  It runs in its own process group, which is
    killed whole when the time budget runs out, so a wrapper script leaves
    no child."""
    import signal
    import subprocess  # only cmd: solvers need these two

    try:
        # a byte that is not UTF-8 decodes to U+FFFD, so its line is no verdict
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            errors="replace",
            start_new_session=True,
        )
    except OSError as exc:
        raise ResourceLimit("exec", f"solver did not start: {exc}")
    with proc:
        try:
            stdout, _ = proc.communicate(timeout=budget_seconds)
        except subprocess.TimeoutExpired:
            # the leader is not reaped yet, so its group id is still taken
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ResourceLimit("time", f"solver ran past {budget_seconds}s")
    # match whole lines: "unsat" contains "sat" as a substring
    for line in stdout.splitlines():
        if line.strip() in ("sat", "unsat"):
            return line.strip()
    raise ResourceLimit("output", "solver printed no line that is exactly sat or unsat")


def _decide_external(
    e: BoolExpr, cmd: list[str], budget_seconds: float, script_path: Path | None
) -> str:
    """Decide with an external solver on an emitted script.  Without a
    script path the script goes to a temporary file, removed afterwards."""
    if script_path is not None:
        return _run_solver(cmd + [str(script_path)], budget_seconds)
    import tempfile  # only a cmd: solver without a script path needs it

    tmp = tempfile.NamedTemporaryFile(mode="w", suffix=".smt2", delete=False, prefix="qborrow.")
    try:
        with tmp:
            tmp.write(emit_smtlib(e))
        return _run_solver(cmd + [tmp.name], budget_seconds)
    finally:
        os.unlink(tmp.name)


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
    0 exactly when q is safe.  Clean (alloc) qubits start at 0, as in
    tracking, so only the d other dirty qubits vary: bit v * 2^d + e stands
    for the input with q = v and those qubits, in gid order, spelling e in
    binary from its highest bit down."""
    n = c.n_qubits
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"{n} qubits exceed the exhaustive cap of {EXHAUSTIVE_CAP}")
    clean = QubitRole.CLEAN
    dirty = [i for i, role in enumerate(c.roles) if i != q.gid and role is not clean]
    columns, m = [0] * n, 1
    for gid in reversed(dirty):  # the last is bit 0 of e
        columns = [col | col << m for col in columns]  # a second copy of every pattern
        columns[gid] = ((1 << m) - 1) << m  # 0 in the first copy, 1 in the second
        m *= 2
    cond1, cond2 = _violations(c, q, columns, m)
    return cond1 | cond2


def cross_check(circuit: FlatCircuit, report: Report) -> bool:
    """Compare every decided verdict against exhaustive enumeration.

    Returns False (and explains on stderr) on any disagreement."""
    if circuit.n_qubits > EXHAUSTIVE_CAP:
        print(
            f"warning: oracle cross-check skipped ({circuit.n_qubits} qubits "
            f"exceed the cap of {EXHAUSTIVE_CAP})",
            file=sys.stderr,
        )
        return True
    by_label = {q.label: q for q in circuit.qubits}
    ok = True
    for v in report.verdicts:
        if v.status in ("skipped", "unknown"):
            continue
        q = by_label[v.qubit]
        safe = not exact_safe(circuit, q)
        if safe != (v.status == "safe"):
            print(
                f"oracle disagreement on {v.qubit}: solver says {v.status}, "
                f"enumeration says {'safe' if safe else 'unsafe'}",
                file=sys.stderr,
            )
            ok = False
    return ok


# ---------------------------------------------------------------------------
# the driver


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
    """Decide safety of every borrow-verified qubit of an elaborated circuit:
    build, write (given an emit directory) and decide cond1, then cond2."""
    t_start = time.perf_counter()
    external = None
    if solver.startswith("cmd:"):
        import shlex

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
    emitting = emit_dimacs_dir is not None or emit_smtlib_dir is not None
    if emitting:
        stem = Path(program).stem if program != "<memory>" else "circuit"
        dimacs_dir, smtlib_dir = (
            None if d is None else Path(d) for d in (emit_dimacs_dir, emit_smtlib_dir)
        )
        for d in (dimacs_dir, smtlib_dir):
            if d is not None:
                d.mkdir(parents=True, exist_ok=True)
    # the layers are looked up per call, so wrappers set on this module see them
    conds = (("cond1", cond_restore_zero), ("cond2", cond_restore_plus))
    # both conditions of a restored qubit fold to false, which the internal
    # solver answers without a call, so neither is built; an external
    # solver and an emit directory are still given both
    verified = circuit.verify_qubits()
    restored = restored_gids(state, verified) if external is None and not emitting else ()
    verdicts = []
    for q in verified:
        if q.gid in restored:  # the verdict of two folded conditions
            verdicts.append(Verdict(q.label, "safe", None, None, None, 0.0, 2, 0, 2))
            continue
        status, violated, witness, budget = "safe", None, None, None
        solve_ms, nodes, n_vars, n_clauses = 0.0, 0, 0, 0
        for name, build in conds:
            if status == "unsafe" and not emitting:  # settled by cond1
                break
            e = build(q, state)
            encoded = script = None  # the Tseitin encoding and .smt2 file written
            if emitting:
                base = f"{stem}.{q.label}.{name}"
                if dimacs_dir is not None:
                    encoded = tseitin(e)
                    (dimacs_dir / f"{base}.cnf").write_text(emit_dimacs(*encoded))
                if smtlib_dir is not None:
                    script = smtlib_dir / f"{base}.smt2"
                    script.write_text(emit_smtlib(e))
                if status == "unsafe":  # cond2 was built only to be written
                    break
            if e.op == "false" and external is None:  # what most conditions fold to
                nodes += 1
                n_clauses += 1  # the empty clause
                continue
            t0 = time.perf_counter()
            model = None  # internal sat answers only
            # Unknown only when deciding; a size cap met building or writing
            # ends the run.  The sizes count the CNF a solve was given, even
            # one whose budget ran out.
            try:
                if external is not None:
                    result = _decide_external(e, external, budget_seconds, script)
                else:
                    cnf, root = encoded or tseitin(e)
                    n_vars += cnf.n_vars
                    n_clauses += len(cnf.clauses)
                    if root is None:  # `true`: the empty CNF
                        result, model = "sat", {}
                    else:
                        res = solve(cnf, root, budget_conflicts, budget_seconds)
                        result = res.status
                        if res.is_sat:
                            model = {x.label: b for x, b in res.model.items()}
            except ResourceLimit as exc:
                result, reason = "unknown", exc.reason
            solve_ms += _ms_since(t0)
            nodes += count_nodes(e) if e.args else 1
            if result == "sat":
                if model is not None and not witness_violates(circuit, q, model, name):
                    raise SelfCheckError(f"{q.label}: {name} witness {model} does not replay")
                status, violated, witness, budget = "unsafe", name, model, None
            elif result == "unknown" and status == "safe":
                status, budget = "unknown", reason
        verdicts.append(
            Verdict(q.label, status, violated, witness, budget, solve_ms, nodes, n_vars, n_clauses)
        )
    verdicts += [Verdict(q.label, "skipped") for q in circuit.skipped_qubits()]

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
