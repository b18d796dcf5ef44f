"""Symbolic Boolean tracking of classical reversible circuits.

Every qubit q carries a formula b_q over the circuit's input variables; each
gate xors the conjunction of its control formulas into its target (X has no
controls, so it negates).  Safety of returning a dirty qubit then reduces to
the unsatisfiability of two conditions built here:

  * cond_restore_zero: b_q AND NOT q   -- the circuit maps q=0 back to 0;
  * cond_restore_plus: some other qubit's final value depends on q.

cond_restore_plus cofactors only the cone of q, the nodes whose support (the
variables below them) holds q, and sweeps its miter before returning it: new
nodes that agree on random simulation patterns are merged where the store's
own rewrite rules prove them equal, so a Safe cond2 usually folds to `false`
without a solver.

Expressions are hash-consed into a DAG with canonical constructors, so
structural equality is node identity and the x XOR x = 0 cancellation that
keeps benchmark formulas small happens automatically.
"""

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

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

    __slots__ = ("op", "args", "qubit", "shash", "serial", "supp")

    def __init__(self, op: str, args: tuple, qubit, shash: int, serial: int):
        self.op = op  # false | true | var | not | and | xor
        self.args = args
        self.qubit = qubit  # QubitId for var nodes, else None
        self.shash = shash
        self.serial = serial
        # support: the bits (BoolStore._bit) of the variables below the node;
        # a variable has 0 until the store gives it its bit
        supp = 0
        for a in args:
            supp |= a.supp
        self.supp = supp

    def __repr__(self):
        # bounded: a tree print of a shared DAG grows exponentially
        if self.op == "var":
            return self.qubit.label
        if not self.args:
            return self.op
        return f"<{self.op} #{self.serial}, {len(self.args)} args>"

    def sort_key(self) -> tuple[int, int]:
        return (self.shash, self.serial)


class BoolStore:
    """Append-only intern table; all constructors return canonical nodes."""

    def __init__(self):
        self._table: dict = {}
        self._n_nodes = 0
        self._n_vars = 0  # support bits given so far
        # the memo of _signatures, the pattern of each support bit so far,
        # and the generator that draws the next ones
        self._sig: dict[BoolExpr, int] = {}
        self._patterns: list[int] = []
        self._rng = random.Random(_SWEEP_SEED)
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
                if not a.supp and a.op == "var":  # its first use below a node
                    self._bit(a)
                shash = ((shash ^ a.shash) * _FNV_PRIME) & _MASK
        node = BoolExpr(op, args, qubit, shash, self._n_nodes)
        self._table[key] = node
        self._n_nodes += 1
        return node

    def __len__(self) -> int:
        return self._n_nodes

    def _bit(self, v: BoolExpr) -> int:
        """The support bit of variable node `v`, given at its first use, so
        supports and sweep patterns grow with the variables in use, not with
        the gids declared.  Every node that has `v` below it was interned
        after `v` got its bit, by `_intern` or here."""
        if not v.supp:
            v.supp = 1 << self._n_vars
            self._n_vars += 1
        return v.supp

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
        return self._cofactor(_cone([e], self._bit(self.var(qubit))), value).get(e, e)

    def _cofactor(self, cone: list[BoolExpr], value: bool) -> dict[BoolExpr, BoolExpr]:
        """Every node of the cone of a variable (`_cone`) with that variable
        replaced by a constant; a child outside the cone stands for itself."""
        constant = self.true if value else self.false
        out: dict[BoolExpr, BoolExpr] = {}
        for node in cone:
            if node.op == "var":  # the cone's one variable
                out[node] = constant
            else:
                out[node] = self._rebuild(node, [out.get(c, c) for c in node.args])
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


def _postorder(
    roots: Iterable[BoolExpr], descend: Callable[[BoolExpr], object] | None = None
) -> list[BoolExpr]:
    """Every node below any of `roots`, children first and each node once.

    A node's pending children are pushed in `args` order, so its last child
    is walked first.  Tseitin numbers its variables in this order, and the
    numbering steers the CDCL, so the order decides the witnesses.

    With `descend`, a child for which it is false is not walked, nor is
    anything below it unless reached another way; the roots always are."""
    order: list[BoolExpr] = []
    done: set[BoolExpr] = set()
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in done:
                stack.pop()
                continue
            pending = [c for c in node.args if c not in done and (descend is None or descend(c))]
            if pending:
                stack.extend(pending)
                continue
            done.add(node)
            order.append(node)
            stack.pop()
    return order


def _cone(roots: Iterable[BoolExpr], bit: int) -> list[BoolExpr]:
    """The nodes below `roots` that have the variable of support bit `bit`
    below them, children first.  Support only grows towards the root, so
    they come in the same relative order as in `_postorder(roots)`."""
    return _postorder([r for r in roots if r.supp & bit], lambda n: n.supp & bit)


def _simulate(
    order: list[BoolExpr], inputs: Mapping[QubitId, int], ones: int, sig: dict
) -> dict[BoolExpr, int]:
    """Bit-parallel values of every node of `order` (children first), added
    to `sig`, which already holds those of any other child they read: each
    variable takes its column from `inputs`, and `ones` has one bit set per
    pattern in use, which every column lies within."""
    for node in order:
        op = node.op
        if op == "and":
            value = ones
            for c in node.args:
                value &= sig[c]
            sig[node] = value
        elif op == "xor":
            value = 0
            for c in node.args:
                value ^= sig[c]
            sig[node] = value
        elif op == "not":
            sig[node] = sig[node.args[0]] ^ ones
        elif op == "var":
            sig[node] = inputs[node.qubit]
        else:
            sig[node] = ones if op == "true" else 0
    return sig


def evaluate(e: BoolExpr, env: Mapping[QubitId, bool]) -> bool:
    """Evaluate under an assignment of every variable occurring in `e`."""
    return bool(_simulate(_postorder([e]), env, 1, {})[e])


def _inputs(nodes: Iterable[BoolExpr]) -> list[BoolExpr]:
    """The variable nodes among `nodes`, sorted by global id."""
    return sorted((n for n in nodes if n.op == "var"), key=lambda n: n.qubit.gid)


def variables(e: BoolExpr) -> list[QubitId]:
    """Input variables of `e`, sorted by global id."""
    return [n.qubit for n in _inputs(_reachable(e))]


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
    # an output without q in its support cannot depend on q
    bit = store._bit(store.var(q))
    outputs = [s[o] for o in sorted(s.formulas, key=lambda x: x.gid) if o != q and s[o].supp & bit]
    # one walk over the cone of q in all outputs, cofactored once per
    # constant: the outputs share subtrees
    cone = _cone(outputs, bit)
    mark = len(store)
    zero = store._cofactor(cone, False)
    one = store._cofactor(cone, True)
    return _sweep(store, store.or_([store.xor([zero[b], one[b]]) for b in outputs]), mark)


# --------------------------------------------------------------------------
# SAT sweeping
# --------------------------------------------------------------------------

_SWEEP_SEED = 0x5EED
_SWEEP_BITS = 256  # patterns simulated at once, one per bit of a Python int
_SWEEP_MASK = (1 << _SWEEP_BITS) - 1


def _signatures(store: BoolStore, e: BoolExpr) -> None:
    """Simulate every node below `e` that the store's memo `_sig` lacks, so
    each node is simulated once per store.  The variable of support bit
    1 << i takes the i-th draw of `random.Random(_SWEEP_SEED)` as its
    pattern."""
    sig = store._sig
    if e in sig:  # and so is every node below it
        return
    order = _postorder([e], lambda n: n not in sig)
    index = {v.qubit: store._bit(v).bit_length() - 1 for v in order if v.op == "var"}
    patterns = store._patterns
    while len(patterns) <= max(index.values(), default=-1):
        patterns.append(store._rng.getrandbits(_SWEEP_BITS))
    _simulate(order, {q: patterns[i] for q, i in index.items()}, _SWEEP_MASK, sig)


def _sweep(store: BoolStore, e: BoolExpr, mark: int = 0) -> BoolExpr:
    """An equivalent of `e` with simulation-equivalent nodes merged.

    Bottom up, each node interned at or after serial `mark` is rebuilt from
    its children's representatives (an older child stands for itself, and
    has no newer child); when its signature matches an earlier
    representative or a constant, the two merge only if the store's rewrite
    rules fold their xor to `false`, so every merge is proved without a SAT
    call.  Older nodes take no part in the comparison, so a new node equal
    to an older one stays apart.  A constant `e`, or one that a pattern
    already satisfies, is returned as it is.
    """
    if e.op in ("false", "true"):
        return e
    _signatures(store, e)
    sig = store._sig
    if sig[e]:
        return e
    by_sig = {0: store.false, _SWEEP_MASK: store.true}
    rep: dict[BoolExpr, BoolExpr] = {}
    for node in _postorder([e], lambda n: n.serial >= mark):
        new = store._rebuild(node, [rep.get(c, c) for c in node.args])
        cand = by_sig.setdefault(sig[node], new)
        if cand is not new and store.xor([new, cand]) is store.false:
            new = cand
        rep[node] = new
    return rep[e]
