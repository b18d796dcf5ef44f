"""Satisfiability core: Tseitin CNF conversion, a CDCL solver, and emitters.

The solver is deliberately minimal but complete: two-watched-literal
propagation, first-UIP clause learning, activity-based branching with decay,
geometric restarts and phase saving.  Every satisfiable answer is validated
against the source expression before being returned.
"""

import heapq
import time
from dataclasses import dataclass, field

from .boolform import BoolExpr, _postorder, evaluate, variables
from .elaborator import QubitId
from .errors import ResourceLimit, SelfCheckError

DEFAULT_BUDGET_CONFLICTS = 100_000_000
DEFAULT_BUDGET_SECONDS = 600.0
DEFAULT_MAX_CLAUSES = 10_000_000


@dataclass
class Cnf:
    clauses: list[list[int]]
    n_vars: int
    var_map: dict[QubitId, int] = field(default_factory=dict)  # input vars only
    source: BoolExpr | None = None


@dataclass
class SolveResult:
    status: str  # 'sat' | 'unsat'
    model: dict[QubitId, bool] | None = None  # input variables only

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


# --------------------------------------------------------------------------
# Tseitin conversion
# --------------------------------------------------------------------------


def tseitin(e: BoolExpr) -> tuple[Cnf, int | None]:
    """Encode a canonical expression; (CNF, root literal to assert).

    The root is None for constant expressions: an always-false input becomes
    the empty clause, an always-true input becomes the empty CNF.  Every
    internal DAG node gets one fresh variable; shared nodes are encoded once.
    """
    if e.op == "false":
        return Cnf([[]], 0, {}, e), None
    if e.op == "true":
        return Cnf([], 0, {}, e), None

    inputs = variables(e)
    var_map = {q: i + 1 for i, q in enumerate(inputs)}
    next_var = len(inputs)
    clauses: list[list[int]] = []

    def fresh() -> int:
        nonlocal next_var
        next_var += 1
        return next_var

    def emit(clause: list[int]) -> None:
        if len(clauses) >= DEFAULT_MAX_CLAUSES:
            raise ResourceLimit("size", f"CNF exceeded the {DEFAULT_MAX_CLAUSES}-clause cap")
        clauses.append(clause)

    lit: dict[BoolExpr, int] = {}
    for node in _postorder([e]):
        if node.op == "var":
            lit[node] = var_map[node.qubit]
        elif node.op == "not":
            lit[node] = -lit[node.args[0]]
        elif node.op == "and":
            v = fresh()
            child_lits = [lit[c] for c in node.args]
            for cl in child_lits:
                emit([-v, cl])
            emit([v] + [-cl for cl in child_lits])
            lit[node] = v
        elif node.op == "xor":
            child_lits = [lit[c] for c in node.args]
            acc = child_lits[0]
            for b in child_lits[1:]:
                w = fresh()
                emit([-w, acc, b])
                emit([-w, -acc, -b])
                emit([w, -acc, b])
                emit([w, acc, -b])
                acc = w
            lit[node] = acc
        else:
            raise SelfCheckError(f"constant below the root in canonical expr: {node.op}")
    return Cnf(clauses, next_var, var_map, e), lit[e]


# --------------------------------------------------------------------------
# CDCL solver
# --------------------------------------------------------------------------


class _Cdcl:
    VAR_DECAY = 0.95
    RESTART_BASE = 100
    RESTART_FACTOR = 1.5
    RESCALE_AT = 1e100

    def __init__(self, n_vars: int, budget_conflicts: int, budget_seconds: float):
        self.n = n_vars
        self.budget_conflicts = budget_conflicts
        self.budget_seconds = budget_seconds
        self.assign = [0] * (n_vars + 1)  # 0 unknown / 1 true / -1 false
        self.level = [0] * (n_vars + 1)
        self.reason: list[list[int] | None] = [None] * (n_vars + 1)
        self.activity = [0.0] * (n_vars + 1)
        self.phase = [False] * (n_vars + 1)
        self.var_inc = 1.0
        self.order: list[tuple[float, int]] = []  # lazy max-activity heap
        self.watches: dict[int, list[list[int]]] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.conflicts = 0
        self.ok = True
        for v in range(1, n_vars + 1):
            heapq.heappush(self.order, (0.0, v))

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits: list[int]) -> None:
        if not self.ok:
            return
        seen: set[int] = set()
        clause: list[int] = []
        for l in lits:
            if -l in seen:
                return  # tautology
            if l not in seen:
                seen.add(l)
                clause.append(l)
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            if not self.enqueue(clause[0], None):
                self.ok = False
            return
        self.attach(clause)

    def attach(self, clause: list[int]) -> None:
        self.watches.setdefault(clause[0], []).append(clause)
        self.watches.setdefault(clause[1], []).append(clause)

    def enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self.value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def propagate(self) -> list[int] | None:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            ws = self.watches.get(false_lit)
            if not ws:
                continue
            self.watches[false_lit] = []
            keep = self.watches[false_lit]
            i = 0
            while i < len(ws):
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                if self.value(c[0]) == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    if self.value(c[k]) != -1:
                        c[1], c[k] = c[k], c[1]
                        self.watches.setdefault(c[1], []).append(c)
                        break
                else:
                    keep.append(c)
                    if not self.enqueue(c[0], c):
                        keep.extend(ws[i:])
                        return c
        return None

    def bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > self.RESCALE_AT:
            for u in range(1, self.n + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.order, (-self.activity[v], v))

    def analyze(self, confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen: set[int] = set()
        counter = 0
        p = 0  # 0 = consider every literal of the conflict clause
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        c = confl
        while True:
            for q in c:
                if q == p:
                    continue
                v = abs(q)
                if v in seen or self.level[v] == 0:
                    continue
                seen.add(v)
                self.bump(v)
                if self.level[v] == cur_level:
                    counter += 1
                else:
                    learnt.append(q)
            while abs(self.trail[index]) not in seen:
                index -= 1
            p = self.trail[index]
            seen.discard(abs(p))
            index -= 1
            counter -= 1
            if counter == 0:
                break
            c = self.reason[abs(p)]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        pos = max(range(1, len(learnt)), key=lambda k: self.level[abs(learnt[k])])
        learnt[1], learnt[pos] = learnt[pos], learnt[1]
        return learnt, back

    def cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for lit in reversed(self.trail[bound:]):
            v = abs(lit)
            self.phase[v] = self.assign[v] > 0
            self.assign[v] = 0
            self.reason[v] = None
            heapq.heappush(self.order, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def decide(self) -> int | None:
        while self.order:
            neg_act, v = heapq.heappop(self.order)
            if self.assign[v] == 0 and -neg_act == self.activity[v]:
                return v if self.phase[v] else -v
        for v in range(1, self.n + 1):  # heap exhausted by stale entries
            if self.assign[v] == 0:
                return v if self.phase[v] else -v
        return None

    def search(self) -> bool:
        if not self.ok:
            return False
        start = time.monotonic()
        restart_limit = float(self.RESTART_BASE)
        since_restart = 0
        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                if self.conflicts >= self.budget_conflicts:
                    raise ResourceLimit(
                        "conflicts", f"conflict budget of {self.budget_conflicts} exhausted"
                    )
                if self.conflicts % 256 == 0:
                    if time.monotonic() - start > self.budget_seconds:
                        raise ResourceLimit(
                            "time", f"time budget of {self.budget_seconds}s exhausted"
                        )
                if not self.trail_lim:
                    return False
                learnt, back = self.analyze(confl)
                self.cancel_until(back)
                if len(learnt) > 1:
                    self.attach(learnt)
                    self.enqueue(learnt[0], learnt)
                else:
                    self.enqueue(learnt[0], None)
                self.var_inc /= self.VAR_DECAY
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit *= self.RESTART_FACTOR
                    self.cancel_until(0)
            else:
                lit = self.decide()
                if lit is None:
                    return True
                self.trail_lim.append(len(self.trail))
                self.enqueue(lit, None)


def solve(
    c: Cnf,
    root: int | None = None,
    budget_conflicts: int = DEFAULT_BUDGET_CONFLICTS,
    budget_seconds: float = DEFAULT_BUDGET_SECONDS,
) -> SolveResult:
    """Decide the CNF with the root literal asserted (when present).

    Raises ResourceLimit when a budget runs out; the caller reports that as
    an Unknown verdict, never as Safe or Unsafe.  A sat model is checked
    against every clause and against the source expression before returning.
    """
    if c.n_vars:
        solver = _Cdcl(c.n_vars, budget_conflicts, budget_seconds)
        for clause in c.clauses:
            solver.add_clause(list(clause))
        if root is not None:
            solver.add_clause([root])
        if not solver.search():
            return SolveResult("unsat")
        full = {v: solver.assign[v] > 0 for v in range(1, c.n_vars + 1)}
    elif [] in c.clauses:  # a constant condition needs no search
        return SolveResult("unsat")
    else:
        full = {}
    for clause in c.clauses:
        if not any(full[abs(l)] == (l > 0) for l in clause):
            raise SelfCheckError("sat model violates a clause")
    if root is not None and full[abs(root)] != (root > 0):
        raise SelfCheckError("sat model violates the root assertion")
    model = {q: full[idx] for q, idx in c.var_map.items()}
    if c.source is not None and not evaluate(c.source, model):
        raise SelfCheckError("sat model fails the source expression")
    return SolveResult("sat", model)


def check_sat(
    e: BoolExpr,
    budget_conflicts: int = DEFAULT_BUDGET_CONFLICTS,
    budget_seconds: float = DEFAULT_BUDGET_SECONDS,
) -> SolveResult:
    """Convenience wrapper: Tseitin-encode then solve."""
    cnf, root = tseitin(e)
    return solve(cnf, root, budget_conflicts, budget_seconds)


# --------------------------------------------------------------------------
# Emitters
# --------------------------------------------------------------------------


def emit_dimacs(c: Cnf, root: int | None) -> str:
    """Standard DIMACS CNF with the root as a trailing unit clause."""
    lines = []
    for q, idx in sorted(c.var_map.items(), key=lambda kv: kv[1]):
        lines.append(f"c var {idx} = {q.label}")
    n_clauses = len(c.clauses) + (1 if root is not None else 0)
    lines.append(f"p cnf {c.n_vars} {n_clauses}")
    for clause in c.clauses:
        lines.append(" ".join(str(l) for l in clause + [0]))
    if root is not None:
        lines.append(f"{root} 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Read back a DIMACS file: (variable count, clause list)."""
    n_vars = 0
    clauses = []
    current: list[int] = []
    saw_header = False
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            n_vars = int(parts[2])
            saw_header = True
            continue
        for tok in line.split():
            l = int(tok)
            if l == 0:
                clauses.append(current)
                current = []
            else:
                current.append(l)
    if not saw_header:
        raise ValueError("missing DIMACS header")
    if current:
        clauses.append(current)
    return n_vars, clauses


def emit_smtlib(e: BoolExpr) -> str:
    """SMT-LIB2 script over the Bool core: declarations, one assert, check-sat."""
    lines = [f"(declare-const {q.label} Bool)" for q in variables(e)]
    parts: list[str] = []
    stack: list = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        if item.op == "false":
            parts.append("false")
        elif item.op == "true":
            parts.append("true")
        elif item.op == "var":
            parts.append(item.qubit.label)
        else:
            pieces: list = [f"({item.op}"]
            for a in item.args:
                pieces.append(" ")
                pieces.append(a)
            pieces.append(")")
            stack.extend(reversed(pieces))
    lines.append(f"(assert {''.join(parts)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
