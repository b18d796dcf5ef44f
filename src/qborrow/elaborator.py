"""Elaboration of parsed programs into flat gate lists.

Folds `let` bindings, unrolls `for` loops (bounds evaluated once, direction
inferred from their values), enforces the borrow/release discipline and
resolves every register reference to a concrete qubit.  A loop whose body is
gates only is unrolled by affine index arithmetic: each operand index is
folded once to a*i + b in the loop index i, and its range, overflow and
distinctness are checked at the loop's two endpoints rather than at every
iteration (the bounds-check elimination of Bodik, Gupta & Sarkar, "ABCD:
eliminating array bounds checks on demand", PLDI 2000).  That path is taken
only when no check can fail; otherwise the loop is interpreted statement by
statement, which raises the first error where it occurs.  Both charge the
same unroll steps and give the same gates.
"""

import enum
import gc
from functools import partial
from itertools import chain, repeat
from typing import Mapping, NamedTuple

from . import frontend
from .errors import SourceError
from .frontend import INT64_MAX, Expr, Loc, ProgramAst, RegRef, Stmt

INT64_MIN = -(2**63)

# Elaboration caps, checked before anything is allocated or unrolled: qubits
# in all registers, and unroll steps (one per gate and one per loop iteration).
MAX_QUBITS = 2**20
MAX_UNROLL_STEPS = 2**21


def without_gc(fn, *args):
    """fn(*args) with Python's cyclic garbage collector paused, restoring
    the caller's collector state on every exit, exceptions included.  The
    gate list and the formula DAG are acyclic, so reference counting frees
    all of them and the collector's passes would only rescan live objects
    as they grow.  The collector is process-wide, so other threads see the
    pause too."""
    if not gc.isenabled():
        return fn(*args)
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


class ElabError(SourceError):
    pass


class UnboundIdentifier(ElabError):
    pass


class ArithmeticOverflow(ElabError):
    pass


class IndexOutOfRange(ElabError):
    pass


class DuplicateOperand(ElabError):
    pass


class UseAfterRelease(ElabError):
    pass


class RedeclaredRegister(ElabError):
    pass


class NonPositiveSize(ElabError):
    pass


class RedefinedName(ElabError):
    pass


class ElabLimitExceeded(ElabError):
    pass


# --------------------------------------------------------------------------
# Circuit data model
# --------------------------------------------------------------------------


class QubitRole(enum.Enum):
    BORROW_VERIFY = "borrow"  # dirty, must be proven safe
    BORROW_SKIP = "borrow@"  # dirty, verification skipped on request
    CLEAN = "alloc"  # starts in |0>


class QubitId:
    """One qubit of a circuit, equal only to a QubitId with the same fields."""

    __slots__ = ("name", "index", "gid", "label")

    def __init__(self, name: str, index: int, gid: int, label: str):
        self.name = name  # register name
        self.index = index  # 1-based position within the register
        self.gid = gid  # dense global id, declaration order
        self.label = label  # display name: 'a.3', or bare 'anc' for size-1 registers

    def __eq__(self, other):
        if type(other) is not QubitId:
            return NotImplemented
        return (self.name, self.index, self.gid, self.label) == (
            other.name, other.index, other.gid, other.label
        )

    def __hash__(self):  # gid alone names a qubit
        return self.gid

    def __repr__(self):
        return f"QubitId({self.label})"


class McxGate(NamedTuple):
    """NOT on `target` when every control is 1; X is the gate with no controls."""

    controls: tuple[QubitId, ...]  # pairwise distinct (elaboration checks), target excluded
    target: QubitId


class RegisterInfo(NamedTuple):
    name: str
    size: int
    role: QubitRole
    first_gid: int
    indexed: bool  # declared with [size] brackets


class FlatCircuit(NamedTuple):
    qubits: tuple[QubitId, ...]  # indexed by gid
    roles: tuple[QubitRole, ...]  # parallel to qubits
    registers: tuple[RegisterInfo, ...]
    gates: tuple[McxGate, ...]
    lifetimes: dict[str, tuple[int, int]]  # register -> [start, end) gate indices
    warnings: tuple[str, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def verify_qubits(self) -> list[QubitId]:
        """Dirty qubits whose safe uncomputation must be proven."""
        role = QubitRole.BORROW_VERIFY  # an Enum member lookup is slow; once per call
        return [q for q, r in zip(self.qubits, self.roles) if r is role]

    def skipped_qubits(self) -> list[QubitId]:
        role = QubitRole.BORROW_SKIP
        return [q for q, r in zip(self.qubits, self.roles) if r is role]

    def register(self, name: str) -> RegisterInfo:
        for r in self.registers:
            if r.name == name:
                return r
        raise KeyError(name)

    def qubit(self, name: str, index: int = 1) -> QubitId:
        r = self.register(name)
        if not 1 <= index <= r.size:
            raise KeyError(f"{name}[{index}]")
        return self.qubits[r.first_gid + index - 1]


def simulate(c: FlatCircuit, columns, ones: int) -> list[int]:
    """Run the circuit on many inputs at once, bit-sliced (Biham, FSE 1997).

    `columns[i]` holds the input bit of the qubit with global id i, one bit
    per input pattern; `ones` marks the patterns in use.  Returns the output
    columns in the same layout."""
    cols = list(columns)
    for g in c.gates:
        fire = ones
        for ctrl in g.controls:
            fire &= cols[ctrl.gid]
        cols[g.target.gid] ^= fire
    return cols


def apply_classical(c: FlatCircuit, x: tuple[int, ...]) -> tuple[int, ...]:
    """Run the circuit as a classical function on one bit tuple (bit i is
    the value of the qubit with global id i)."""
    if len(x) != c.n_qubits:
        raise ValueError(f"expected {c.n_qubits} bits, got {len(x)}")
    return tuple(simulate(c, x, 1))


def dump_gates(c: FlatCircuit) -> str:
    """One gate per line, e.g. `CCNOT a.1 q.2 a.2`."""
    lines = []
    for g in c.gates:
        n = len(g.controls)
        name = ("X", "CNOT", "CCNOT")[n] if n < 3 else f"C{n}NOT"
        lines.append(" ".join([name] + [q.label for q in g.controls + (g.target,)]))
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# Compile-time arithmetic
# --------------------------------------------------------------------------


def _check64(value: int, loc: Loc) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise ArithmeticOverflow(loc[0], loc[1], f"arithmetic overflow: {value}")
    return value


def eval_expr(e: Expr, env: Mapping[str, int]) -> int:
    """Evaluate a compile-time expression under 64-bit signed semantics."""
    if isinstance(e, frontend.Num):
        return e.value
    if isinstance(e, frontend.Name):
        if e.ident not in env:
            raise UnboundIdentifier(e.loc[0], e.loc[1], f"unbound identifier '{e.ident}'")
        return env[e.ident]
    if isinstance(e, frontend.Neg):
        return _check64(-eval_expr(e.operand, env), e.loc)
    if isinstance(e, frontend.BinOp):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        if e.op == "+":
            return _check64(left + right, e.loc)
        if e.op == "-":
            return _check64(left - right, e.loc)
        return _check64(left * right, e.loc)
    raise TypeError(f"not an expression: {e!r}")


def _affine(e: Expr, var: str, env: Mapping[str, int]) -> tuple[int, int] | None:
    """Fold `e` to (a, b) with e = a*var + b, every other name constant;
    None when a name is unbound or both factors of a product depend on var."""
    if isinstance(e, frontend.Num):
        return 0, e.value
    if isinstance(e, frontend.Name):
        if e.ident == var:
            return 1, 0
        return (0, env[e.ident]) if e.ident in env else None
    if isinstance(e, frontend.Neg):
        f = _affine(e.operand, var, env)
        return None if f is None else (-f[0], -f[1])
    left = _affine(e.left, var, env)
    right = _affine(e.right, var, env)
    if left is None or right is None:
        return None
    (a1, b1), (a2, b2) = left, right
    if e.op == "+":
        return a1 + a2, b1 + b2
    if e.op == "-":
        return a1 - a2, b1 - b2
    if a1 and a2:
        return None
    return a1 * b2 + a2 * b1, b1 * b2


def loop_range(start: int, stop: int) -> range:
    """Inclusive range; counts down when start > stop."""
    if start <= stop:
        return range(start, stop + 1)
    return range(start, stop - 1, -1)


def _in_range(index: Expr, env: Mapping[str, int], var: str, lo: int, hi: int, size: int) -> bool:
    """Does an affine `index` evaluate without overflow and within 1..size
    at var = lo and var = hi (hence, being monotone, everywhere between)?"""
    try:
        return all(1 <= eval_expr(index, {**env, var: v}) <= size for v in (lo, hi))
    except ElabError:
        return False


def _meets(a1: int, b1: int, a2: int, b2: int, lo: int, hi: int) -> bool:
    """Is a1*i + b1 == a2*i + b2 for some integer i in lo..hi?"""
    if a1 == a2:
        return b1 == b2
    i, r = divmod(b2 - b1, a1 - a2)
    return r == 0 and lo <= i <= hi


# --------------------------------------------------------------------------
# Elaboration
# --------------------------------------------------------------------------

class _Elaborator:
    def __init__(self):
        self.values: dict[str, int] = {}  # let bindings and live loop indices
        self.registers: dict[str, RegisterInfo] = {}
        self.released: set[str] = set()
        self.qubits: list[QubitId] = []
        self.roles: list[QubitRole] = []
        self.gates: list[McxGate] = []
        self.lifetimes: dict[str, tuple[int, int]] = {}
        self.starts: dict[str, int] = {}
        self.warnings: list[str] = []
        self.steps_left = MAX_UNROLL_STEPS

    def run(self, ast: ProgramAst) -> FlatCircuit:
        # the collector resumes before the FlatCircuit is allocated, so its
        # one catch-up pass, over the gates and the circuit's tuples, is
        # charged to elaboration and not to whoever allocates next
        return FlatCircuit(**without_gc(self.fields, ast.statements))

    def fields(self, statements: tuple[Stmt, ...]) -> dict:
        """Elaborate the statements; the FlatCircuit's fields by name."""
        for s in statements:
            self.stmt(s)
        for name, reg in self.registers.items():
            if name not in self.released:
                self.lifetimes[name] = (self.starts[name], len(self.gates))
                self.warnings.append(
                    f"register '{name}' was never released; "
                    "implicitly released at program end"
                )
        return dict(
            qubits=tuple(self.qubits),
            roles=tuple(self.roles),
            registers=tuple(self.registers.values()),
            gates=tuple(self.gates),
            lifetimes=self.lifetimes,
            warnings=tuple(self.warnings),
        )

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, frontend.Let):
            self.define_value(s.name, eval_expr(s.value, self.values), s.loc)
        elif isinstance(s, frontend.Declare):
            self.declare(s.reg, QubitRole(s.keyword), s.loc)
        elif isinstance(s, frontend.Release):
            self.release(s.name, s.loc)
        elif isinstance(s, frontend.GateStmt):
            self.spend(1, s.loc)
            operands = tuple(map(self.resolve, s.operands))
            self.check_distinct(operands, s.loc)
            self.gates.append(McxGate(operands[:-1], operands[-1]))
        elif isinstance(s, frontend.For):
            self.for_loop(s)
        else:
            raise TypeError(f"not a statement: {s!r}")

    def define_value(self, name: str, value: int, loc: Loc) -> None:
        if name in self.values or name in self.registers:
            raise RedefinedName(loc[0], loc[1], f"'{name}' is already defined")
        self.values[name] = value

    def declare(self, reg: RegRef, role: QubitRole, loc: Loc) -> None:
        if reg.name in self.registers or reg.name in self.values:
            raise RedeclaredRegister(loc[0], loc[1], f"'{reg.name}' is already declared")
        indexed = reg.index is not None
        size = eval_expr(reg.index, self.values) if indexed else 1
        if size < 1:
            raise NonPositiveSize(
                loc[0], loc[1], f"register '{reg.name}' declared with size {size}"
            )
        if size > MAX_QUBITS - len(self.qubits):
            raise ElabLimitExceeded(
                loc[0],
                loc[1],
                f"register '{reg.name}' of size {size} would exceed "
                f"the cap of {MAX_QUBITS} qubits",
            )
        first_gid = len(self.qubits)
        for i in range(1, size + 1):
            label = f"{reg.name}.{i}" if indexed else reg.name
            self.qubits.append(QubitId(reg.name, i, first_gid + i - 1, label))
            self.roles.append(role)
        self.registers[reg.name] = RegisterInfo(reg.name, size, role, first_gid, indexed)
        self.starts[reg.name] = len(self.gates)

    def release(self, name: str, loc: Loc) -> None:
        if name not in self.registers:
            raise UnboundIdentifier(loc[0], loc[1], f"'{name}' is not a declared register")
        if name in self.released:
            raise UseAfterRelease(loc[0], loc[1], f"register '{name}' is already released")
        self.released.add(name)
        self.lifetimes[name] = (self.starts[name], len(self.gates))

    def resolve(self, ref: RegRef) -> QubitId:
        reg = self.registers.get(ref.name)
        if reg is None:
            kind = "bound to a number, not a register" if ref.name in self.values else "not declared"
            raise UnboundIdentifier(ref.loc[0], ref.loc[1], f"'{ref.name}' is {kind}")
        if ref.name in self.released:
            raise UseAfterRelease(
                ref.loc[0], ref.loc[1], f"register '{ref.name}' was already released"
            )
        index = 1 if ref.index is None else eval_expr(ref.index, self.values)
        if not 1 <= index <= reg.size:
            raise IndexOutOfRange(
                ref.loc[0],
                ref.loc[1],
                f"index {index} out of range for register '{ref.name}' of size {reg.size}",
            )
        return self.qubits[reg.first_gid + index - 1]

    def spend(self, steps: int, loc: Loc) -> None:
        """Charge unroll steps against the budget before taking them."""
        if steps > self.steps_left:
            raise ElabLimitExceeded(
                loc[0], loc[1], f"unrolling exceeds the cap of {MAX_UNROLL_STEPS} steps"
            )
        self.steps_left -= steps

    def check_distinct(self, operands: tuple[QubitId, ...], loc: Loc) -> None:
        seen: set[int] = set()
        for q in operands:
            if q.gid in seen:
                raise DuplicateOperand(
                    loc[0], loc[1], f"gate operand '{q.label}' appears twice"
                )
            seen.add(q.gid)

    def for_loop(self, s: frontend.For) -> None:
        if s.var in self.values or s.var in self.registers:
            raise RedefinedName(
                s.loc[0], s.loc[1], f"loop index '{s.var}' shadows an existing name"
            )
        start = eval_expr(s.start, self.values)
        stop = eval_expr(s.stop, self.values)
        if self.unroll_affine(s, start, stop):
            return
        self.spend(abs(stop - start) + 1, s.loc)
        for value in loop_range(start, stop):
            self.values[s.var] = value
            for inner in s.body:
                self.stmt(inner)
        self.values.pop(s.var, None)

    def unroll_affine(self, s: frontend.For, start: int, stop: int) -> bool:
        """Unroll a gates-only loop whose every check passes at both
        endpoints, charging the steps the interpreter would; False, with
        nothing changed, when the interpreter must run the loop instead."""
        n = abs(stop - start) + 1
        if n + n * len(s.body) > self.steps_left:
            return False
        lo, hi = min(start, stop), max(start, stop)
        plan = []  # per gate: (gid of each operand at i = 0, its coefficient of i)
        for g in s.body:
            if not isinstance(g, frontend.GateStmt):
                return False
            ops = []  # (register, a, b) per operand
            for ref in g.operands:
                reg = self.registers.get(ref.name)
                if reg is None or ref.name in self.released:
                    return False
                if ref.index is None:
                    a, b = 0, 1
                else:
                    f = _affine(ref.index, s.var, self.values)
                    if f is None or not _in_range(ref.index, self.values, s.var, lo, hi, reg.size):
                        return False
                    a, b = f
                for reg2, a2, b2 in ops:
                    if reg2 is reg and _meets(a, b, a2, b2, lo, hi):
                        return False
                ops.append((reg, a, b))
            plan.append([(reg.first_gid + b - 1, a) for reg, a, b in ops])
        self.steps_left -= n + n * len(s.body)
        step = 1 if start <= stop else -1
        qubits = self.qubits

        def column(g0: int, a: int) -> list[QubitId]:  # one operand over all iterations
            if a == 0:
                return [qubits[g0]] * n
            end = g0 + a * (stop + step)  # one stride past the last gid; -1 would wrap
            return qubits[g0 + a * start : end if end >= 0 else None : a * step]

        # tuple.__new__ builds each McxGate in C; the namedtuple's own
        # __new__ is Python code
        make_gate = partial(tuple.__new__, McxGate)
        per_gate = []  # each gate of the body, over all iterations
        for ops in plan:
            cols = [column(g0, a) for g0, a in ops]
            controls = zip(*cols[:-1]) if len(cols) > 1 else repeat((), n)
            per_gate.append(map(make_gate, zip(controls, cols[-1])))
        self.gates += chain.from_iterable(zip(*per_gate))  # iteration by iteration
        return True


def elaborate(ast: ProgramAst) -> FlatCircuit:
    """Flatten a parsed program into a loop-free gate list over concrete qubits."""
    return _Elaborator().run(ast)


def elaborate_source(source: str) -> FlatCircuit:
    return elaborate(frontend.parse_source(source))
