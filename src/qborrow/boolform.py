"""Symbolic Boolean tracking of classical reversible circuits.

Every qubit q carries a formula b_q over the circuit's input variables; each
gate xors the conjunction of its control formulas into its target (X has no
controls, so it negates).  Safety of returning a dirty qubit then reduces to
the unsatisfiability of two conditions built here:

  * cond_restore_zero: b_q AND NOT q   -- the circuit maps q=0 back to 0;
  * cond_restore_plus: some other qubit's final value depends on q.

cond_restore_plus sweeps its miter before returning it: nodes that agree on
random simulation patterns are merged where the store's own rewrite rules
prove them equal, so a Safe cond2 usually folds to `false` without a solver.

Expressions are hash-consed into a DAG with canonical constructors, so
structural equality is node identity and the x XOR x = 0 cancellation that
keeps benchmark formulas small happens automatically.
"""

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .elaborator import FlatCircuit, McxGate, QubitId, QubitRole
from .errors import ResourceLimit

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

_SALT = {
    "false": 0x9E3779B97F4A7C15,
    "true": 0xC2B2AE3D27D4EB4F,
    "var": 0x165667B19E3779F9,
    "not": 0x27D4EB2F165667C5,
    "and": 0x85EBCA77C2B2AE63,
    "xor": 0xD6E8FEB86659FD93,
}

# pairwise complementary-factor elimination in XOR is quadratic in the child
# count; skip it for very wide nodes (the result stays correct, just folded
# less aggressively)
_ELIM_MAX_CHILDREN = 128

# most nodes one store interns before it raises ResourceLimit("size")
MAX_NODES = 10_000_000


def _fnv(s: str) -> int:
    h = _FNV_OFFSET
    for ch in s:
        h = ((h ^ ord(ch)) * _FNV_PRIME) & _MASK
    return h


class BoolExpr:
    """One hash-consed DAG node; compare with `is` (interning guarantees it)."""

    __slots__ = ("op", "args", "qubit", "shash", "serial")

    def __init__(self, op: str, args: tuple, qubit, shash: int, serial: int):
        self.op = op  # false | true | var | not | and | xor
        self.args = args
        self.qubit = qubit  # QubitId for var nodes, else None
        self.shash = shash
        self.serial = serial

    def __repr__(self):
        return to_prefix(self)

    def sort_key(self) -> tuple[int, int]:
        return (self.shash, self.serial)


class BoolStore:
    """Append-only intern table; all constructors return canonical nodes."""

    def __init__(self):
        self._table: dict = {}
        self._n_nodes = 0
        self.false = self._intern("false", (), None)
        self.true = self._intern("true", (), None)

    def _intern(self, op: str, args: tuple, qubit) -> BoolExpr:
        key = (op, args, qubit)
        node = self._table.get(key)
        if node is not None:
            return node
        if self._n_nodes >= MAX_NODES:
            raise ResourceLimit("size", f"formula store exceeded the {MAX_NODES}-node cap")
        if op == "var":
            shash = (_SALT["var"] ^ _fnv(qubit.label)) & _MASK
        else:
            shash = _SALT[op]
            for a in args:
                shash = ((shash ^ a.shash) * _FNV_PRIME) & _MASK
        node = BoolExpr(op, args, qubit, shash, self._n_nodes)
        self._table[key] = node
        self._n_nodes += 1
        return node

    def __len__(self) -> int:
        return self._n_nodes

    def var(self, qubit: QubitId) -> BoolExpr:
        return self._intern("var", (), qubit)

    def not_(self, e: BoolExpr) -> BoolExpr:
        if e is self.false:
            return self.true
        if e is self.true:
            return self.false
        if e.op == "not":
            return e.args[0]
        return self._intern("not", (e,), None)

    def and_(self, children: Iterable[BoolExpr]) -> BoolExpr:
        flat: list[BoolExpr] = []
        for c in children:
            if c is self.true:
                continue
            if c is self.false:
                return self.false
            if c.op == "and":
                flat.extend(c.args)
            else:
                flat.append(c)
        uniq: list[BoolExpr] = []
        seen: set[BoolExpr] = set()
        for c in flat:
            if c not in seen:
                seen.add(c)
                uniq.append(c)
        for c in uniq:  # x AND NOT x is unsatisfiable
            if c.op == "not" and c.args[0] in seen:
                return self.false
        if not uniq:
            return self.true
        if len(uniq) == 1:
            return uniq[0]
        uniq.sort(key=BoolExpr.sort_key)
        return self._intern("and", tuple(uniq), None)

    def xor(self, children: Iterable[BoolExpr]) -> BoolExpr:
        parity = 0
        present: set[BoolExpr] = set()

        def toggle(x: BoolExpr) -> None:
            if x in present:
                present.remove(x)
            else:
                present.add(x)

        def insert(x: BoolExpr) -> None:
            nonlocal parity
            while x.op == "not":
                parity ^= 1
                x = x.args[0]
            if x is self.false:
                return
            if x is self.true:
                parity ^= 1
                return
            if x.op == "xor":
                for a in x.args:
                    toggle(a)
            else:
                toggle(x)

        for c in children:
            insert(c)

        if len(present) <= _ELIM_MAX_CHILDREN:
            changed = True
            while changed and len(present) > 1:
                changed = False
                items = sorted(present, key=BoolExpr.sort_key)
                for i, a in enumerate(items):
                    for b in items[i + 1 :]:
                        replacement = self._complementary_factor(a, b)
                        if replacement is not None:
                            present.discard(a)
                            present.discard(b)
                            insert(replacement)
                            changed = True
                            break
                    if changed:
                        break

        if not present:
            base = self.false
        elif len(present) == 1:
            base = next(iter(present))
        else:
            base = self._intern("xor", tuple(sorted(present, key=BoolExpr.sort_key)), None)
        return self.not_(base) if parity else base

    def _complementary_factor(self, a: BoolExpr, b: BoolExpr) -> BoolExpr | None:
        """AND(S,T) XOR AND(S, NOT AND(T))  ->  AND(S), if a,b match that shape."""
        set_a = set(a.args) if a.op == "and" else {a}
        set_b = set(b.args) if b.op == "and" else {b}
        for rest, other in ((set_b, set_a), (set_a, set_b)):
            for u in rest:
                if u.op != "not":
                    continue
                v = u.args[0]
                factors = set(v.args) if v.op == "and" else {v}
                remaining = rest - {u}
                if other == remaining | factors:
                    return self.and_(sorted(remaining, key=BoolExpr.sort_key))
        return None

    def or_(self, children: Iterable[BoolExpr]) -> BoolExpr:
        return self.not_(self.and_([self.not_(c) for c in children]))

    def substitute(self, e: BoolExpr, qubit: QubitId, value: bool) -> BoolExpr:
        """Replace Var(qubit) by a constant; untouched subtrees keep identity."""
        return self._cofactor(_postorder([e]), qubit, value)[e]

    def _cofactor(
        self, order: list[BoolExpr], qubit: QubitId, value: bool
    ) -> dict[BoolExpr, BoolExpr]:
        """Every node of `order` (children first) with Var(qubit) replaced by
        a constant."""
        constant = self.true if value else self.false
        out: dict[BoolExpr, BoolExpr] = {}
        for node in order:
            if node.op == "var" and node.qubit == qubit:
                out[node] = constant
            else:
                out[node] = self._rebuild(node, [out[c] for c in node.args])
        return out

    def _rebuild(self, node: BoolExpr, new_args: list[BoolExpr]) -> BoolExpr:
        """`node` with its children replaced, through the canonical constructors."""
        if all(n is o for n, o in zip(new_args, node.args)):
            return node
        if node.op == "not":
            return self.not_(new_args[0])
        if node.op == "and":
            return self.and_(new_args)
        return self.xor(new_args)


def _reachable(e: BoolExpr) -> set[BoolExpr]:
    """Every node below `e`, `e` included."""
    seen = {e}
    stack = [e]
    while stack:
        for c in stack.pop().args:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _postorder(roots: Iterable[BoolExpr]) -> list[BoolExpr]:
    """Every node below any of `roots`, children first and each node once.

    A node's pending children are pushed in `args` order, so its last child
    is walked first.  Tseitin numbers its variables in this order, and the
    numbering steers the CDCL, so the order decides the witnesses."""
    order: list[BoolExpr] = []
    done: set[BoolExpr] = set()
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in done:
                stack.pop()
                continue
            pending = [c for c in node.args if c not in done]
            if pending:
                stack.extend(pending)
                continue
            done.add(node)
            order.append(node)
            stack.pop()
    return order


def evaluate(e: BoolExpr, env: Mapping[QubitId, bool]) -> bool:
    """Evaluate under an assignment of every variable occurring in `e`."""
    value: dict[BoolExpr, bool] = {}
    for node in _postorder([e]):
        op = node.op
        if op == "var":
            value[node] = bool(env[node.qubit])
        elif op == "not":
            value[node] = not value[node.args[0]]
        elif op == "and":
            value[node] = all(value[c] for c in node.args)
        elif op == "xor":
            result = False
            for c in node.args:
                result ^= value[c]
            value[node] = result
        else:
            value[node] = op == "true"
    return value[e]


def variables(e: BoolExpr) -> list[QubitId]:
    """Input variables of `e`, sorted by global id."""
    return sorted((n.qubit for n in _reachable(e) if n.op == "var"), key=lambda q: q.gid)


def count_nodes(e: BoolExpr) -> int:
    return len(_reachable(e))


def to_prefix(e: BoolExpr) -> str:
    """Textual prefix form, e.g. `xor(q4, and(q3, xor(a, and(q1, q2))))`."""
    text: dict[BoolExpr, str] = {}
    for node in _postorder([e]):
        if node.op == "var":
            text[node] = node.qubit.label
        elif node.args:
            text[node] = f"{node.op}({', '.join(text[c] for c in node.args)})"
        else:
            text[node] = node.op
    return text[e]


# --------------------------------------------------------------------------
# Per-circuit formula tracking
# --------------------------------------------------------------------------


@dataclass
class FormulaState:
    """The current b_q for every qubit of one circuit, in one shared store."""

    store: BoolStore
    formulas: dict[QubitId, BoolExpr]

    def __getitem__(self, q: QubitId) -> BoolExpr:
        return self.formulas[q]

    def __iter__(self):
        return iter(self.formulas)


def init_state(c: FlatCircuit) -> FormulaState:
    """b_q = q for dirty qubits, b_q = false for clean (alloc'd) qubits."""
    store = BoolStore()
    formulas = {}
    for q, role in zip(c.qubits, c.roles):
        formulas[q] = store.false if role is QubitRole.CLEAN else store.var(q)
    return FormulaState(store, formulas)


def _update(formulas: dict, g: McxGate, store: BoolStore) -> None:
    # X has no controls: its conjunction is `true`, and the xor negates
    conj = store.and_([formulas[c] for c in g.controls])
    formulas[g.target] = store.xor([formulas[g.target], conj])


def apply_gate(s: FormulaState, g: McxGate) -> FormulaState:
    """One gate step; returns a new state, the input is left untouched."""
    formulas = dict(s.formulas)
    _update(formulas, g, s.store)
    return FormulaState(s.store, formulas)


def track(c: FlatCircuit) -> FormulaState:
    """Fold apply_gate over the whole gate list starting from init_state."""
    state = init_state(c)
    for g in c.gates:
        _update(state.formulas, g, state.store)
    return state


# --------------------------------------------------------------------------
# Safety conditions
# --------------------------------------------------------------------------


def cond_restore_zero(q: QubitId, s: FormulaState) -> BoolExpr:
    """Unsatisfiable iff input q=0 guarantees output q=0 (restores |0>)."""
    store = s.store
    return store.and_([s[q], store.not_(store.var(q))])


def cond_restore_plus(q: QubitId, s: FormulaState) -> BoolExpr:
    """Unsatisfiable iff every other qubit's output is independent of q.

    Independence of all other qubits is exactly what restoring |+> on q
    requires, hence the name.
    """
    store = s.store
    outputs = [s[other] for other in sorted(s.formulas, key=lambda x: x.gid) if other != q]
    # one walk over all outputs, cofactored once per constant: they share subtrees
    order = _postorder(outputs)
    zero = store._cofactor(order, q, False)
    one = store._cofactor(order, q, True)
    return _sweep(store, store.or_([store.xor([zero[b], one[b]]) for b in outputs]))


# --------------------------------------------------------------------------
# SAT sweeping
# --------------------------------------------------------------------------

_SWEEP_SEED = 0x5EED
_SWEEP_BITS = 256  # patterns simulated at once, one per bit of a Python int
_SWEEP_MASK = (1 << _SWEEP_BITS) - 1


def _simulate(order: list[BoolExpr]) -> dict[BoolExpr, int]:
    """Bit-parallel values of every node on fixed-seed random patterns; the
    variables draw their patterns in gid order.  `order` holds no constant:
    `_sweep` returns a constant root as it is, and canonical nodes have none
    below their root."""
    rng = random.Random(_SWEEP_SEED)
    sig: dict[BoolExpr, int] = {}
    for v in sorted((n for n in order if n.op == "var"), key=lambda n: n.qubit.gid):
        sig[v] = rng.getrandbits(_SWEEP_BITS)
    for node in order:
        op = node.op
        if op == "not":
            sig[node] = sig[node.args[0]] ^ _SWEEP_MASK
        elif op == "and":
            value = _SWEEP_MASK
            for c in node.args:
                value &= sig[c]
            sig[node] = value
        elif op == "xor":
            value = 0
            for c in node.args:
                value ^= sig[c]
            sig[node] = value
    return sig


def _sweep(store: BoolStore, e: BoolExpr) -> BoolExpr:
    """An equivalent of `e` with simulation-equivalent nodes merged.

    Bottom up, each node is rebuilt from its children's representatives; when
    its signature matches an earlier representative or a constant, the two
    merge only if the store's rewrite rules fold their xor to `false`, so
    every merge is proved without a SAT call.  A constant `e`, or one that a
    pattern already satisfies, is returned as it is.
    """
    if e.op in ("false", "true"):
        return e
    order = _postorder([e])
    sig = _simulate(order)
    if sig[e]:
        return e
    by_sig = {0: store.false, _SWEEP_MASK: store.true}
    rep: dict[BoolExpr, BoolExpr] = {}
    for node in order:
        new = store._rebuild(node, [rep[c] for c in node.args])
        cand = by_sig.setdefault(sig[node], new)
        if cand is not new and store.xor([new, cand]) is store.false:
            new = cand
        rep[node] = new
    return rep[e]
