"""Symbolic Boolean tracking of classical reversible circuits.

Every qubit q carries a formula b_q over the circuit's input variables; each
gate xors the conjunction of its control formulas into its target (X has no
controls, so it negates).  Safety of returning a dirty qubit then reduces to
the unsatisfiability of two conditions built here:

  * cond_restore_zero: b_q AND NOT q   -- the circuit maps q=0 back to 0;
  * cond_restore_plus: some other qubit's final value depends on q.

cond_restore_plus cofactors only the cone of q, the nodes whose support (the
variables below them, which the store computes as it interns each node)
holds q; an output without q in its support cannot depend on q.

Expressions are hash-consed into a DAG: the constructors dedupe and fold
their arguments, and AND and XOR keep theirs in creation order (the serial
each node gets from its store), so equal terms built alike are one node and
the x XOR x = 0 cancellation that keeps benchmark formulas small happens
automatically.  XOR also factors common conjuncts, S AND A XOR S AND B ->
S AND (A XOR B), so a borrowed carry that two terms thread through cancels
while the circuit is tracked.  AND flattens only narrow AND children
(_FLATTEN_MAX_ARGS), so equal products nested differently can be distinct
nodes that these rules miss; the solver still decides them.

A gate step is a two-operand AND and a two-operand XOR, which `and_` and
`xor` settle directly, and `xor` keeps a computed table of its two-operand
results (Brace, Rudell & Bryant, DAC 1990), so a step repeated on the same
operands is one lookup.  A step that factors with one term of its target is
settled too, by the general loop's own calls in its order, and so is an
X gate's step, x XOR true, which is NOT x; a step that factors more than
once goes through the general loop.  Every path gives the node the general
loop gives and makes the nodes it makes in the same order, so the DAG and
its serials do not depend on which path built it.
"""

from bisect import bisect
from operator import attrgetter
from typing import Callable, Iterable, Mapping

from .elaborator import FlatCircuit, McxGate, QubitId, QubitRole
from .errors import ResourceLimit

# AND flattens an AND child of at most this many args into its own; a wider
# one stays one child, so a long chain of products is not copied at each step
_FLATTEN_MAX_ARGS = 4

# most nodes one store interns before it raises ResourceLimit("size")
MAX_NODES = 10_000_000


class BoolExpr:
    """One hash-consed DAG node; compare with `is` (interning guarantees it)."""

    __slots__ = ("op", "args", "qubit", "serial", "supp")

    def __init__(self, op: str, args: tuple, qubit, serial: int, supp: int):
        self.op = op  # false | true | var | not | and | xor
        self.args = args  # AND and XOR keep theirs in creation order
        self.qubit = qubit  # QubitId for var nodes, else None
        self.serial = serial  # creation order in the store
        # support: the bits (BoolStore._bit) of the variables below the node,
        # computed by BoolStore._intern; a variable has 0 until it gets its bit
        self.supp = supp

    def __repr__(self):
        # bounded: a tree print of a shared DAG grows exponentially
        if self.op == "var":
            return self.qubit.label
        if not self.args:
            return self.op
        return f"<{self.op} #{self.serial}, {len(self.args)} args>"


# AND and XOR nodes keep their args in creation order, so one set of args
# interns to one node
_sort_key = attrgetter("serial")


def _terms(xs: Iterable[BoolExpr], out: list[BoolExpr]) -> int:
    """Append the terms of the XOR of `xs` (no constant, no negation) to
    `out`; returns the parity of the negations and the `true`s they drop."""
    parity = 0
    for x in xs:
        while x.op == "not":
            parity ^= 1
            x = x.args[0]
        if x.op == "xor":
            out.extend(x.args)
        elif x.op == "true":
            parity ^= 1
        elif x.op != "false":
            out.append(x)
    return parity


class BoolStore:
    """Append-only intern table; the constructors below return interned nodes."""

    def __init__(self):
        # one table per op, keyed by the args tuple the node keeps (by the
        # qubit for a variable), so no key is allocated per node
        ops = ("false", "true", "var", "not", "and", "xor")
        self._table: dict[str, dict] = {op: {} for op in ops}
        self._n_nodes = 0
        self._n_vars = 0  # support bits given so far
        # computed table (Brace, Rudell & Bryant, DAC 1990): the result of
        # every two-operand xor, keyed by its operands as given
        self._xor2: dict[tuple[BoolExpr, BoolExpr], BoolExpr] = {}
        self.false = self._intern("false", (), None)
        self.true = self._intern("true", (), None)

    def _intern(self, op: str, args: tuple, qubit) -> BoolExpr:
        table = self._table[op]
        key = qubit if op == "var" else args
        node = table.get(key)
        if node is not None:
            return node
        if self._n_nodes >= MAX_NODES:
            raise ResourceLimit("size", f"formula store exceeded the {MAX_NODES}-node cap")
        supp = 0
        for a in args:
            if not a.supp and a.op == "var":  # its first use below a node
                self._bit(a)
            supp |= a.supp
        node = BoolExpr(op, args, qubit, self._n_nodes, supp)
        table[key] = node
        self._n_nodes += 1
        return node

    def __len__(self) -> int:
        return self._n_nodes

    def _bit(self, v: BoolExpr) -> int:
        """The support bit of variable node `v`, given at its first use, so
        supports grow with the variables in use, not with the gids declared.
        Every node that has `v` below it was interned after `v` got its bit,
        by `_intern` or here."""
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

    def and_(self, children: list[BoolExpr]) -> BoolExpr:
        if len(children) == 2:  # a gate's product of two controls
            a, b = children
            if a.op not in ("true", "false", "and") and b.op not in ("true", "false", "and"):
                if a is b:
                    return a
                if (a.op == "not" and a.args[0] is b) or (b.op == "not" and b.args[0] is a):
                    return self.false
                return self._intern("and", (a, b) if _sort_key(a) < _sort_key(b) else (b, a), None)
        return self._and(children)

    def _and(self, children: list[BoolExpr]) -> BoolExpr:
        """AND of any children: flattened, deduplicated and sorted."""
        flat: list[BoolExpr] = []
        for c in children:
            if c is self.true:
                continue
            if c is self.false:
                return self.false
            if c.op == "and" and len(c.args) <= _FLATTEN_MAX_ARGS:
                flat.extend(c.args)
            else:
                flat.append(c)
        seen = set(flat)
        for c in seen:  # x AND NOT x is unsatisfiable
            if c.op == "not" and c.args[0] in seen:
                return self.false
        if len(seen) > 1:
            return self._intern("and", tuple(sorted(seen, key=_sort_key)), None)
        return seen.pop() if seen else self.true

    def xor(self, children: list[BoolExpr]) -> BoolExpr:
        if len(children) != 2:
            return self._xor(children)
        key = (children[0], children[1])
        node = self._xor2.get(key)
        if node is None:
            node = self._xor2[key] = self._xor_pair(*key) or self._xor(children)
        return node

    def _xor_pair(self, x: BoolExpr, y: BoolExpr, factor: bool = True) -> BoolExpr | None:
        """x XOR y when it is a gate's step: two equal operands, a term that
        cancels from an XOR, a term that shares no conjunct with x, or (with
        `factor`) a term y that shares conjuncts with exactly one term t of
        x, factored once, or y `true`; None otherwise, without recursing.

        Makes the nodes `_xor` makes, and no other, in the same order.  The
        general loop keeps x's terms (no two share a conjunct) until it
        meets the later of t and y by serial, and interns nothing before
        that.  Then it calls `_split` on the earlier and the later, builds
        A XOR B, calls `and_(S + [A XOR B])`, and keeps that product beside
        the other terms unless it equals or shares a conjunct with one.
        The factoring step here makes the same calls in the same order, and
        builds A XOR B by the steps above, which make the nodes the loop's
        own A XOR B makes; it inserts the product only where the loop keeps
        it.  On any other shape it returns None after those calls, and
        `_xor` makes them again: each node they made is already interned,
        so the loop finds it and makes the rest in its own order.

        An X gate's step, x XOR true, is `not_(x)`: the loop keeps the
        terms of x, which share no conjunct, and so rebuilds x."""
        if y is self.true:
            return self.not_(x)
        parity = 0
        if x.op == "not":  # not_ never nests a negation
            parity, x = 1, x.args[0]
        if y.op == "not":
            parity, y = parity ^ 1, y.args[0]
        if x is y:
            return self.true if parity else self.false
        if y.op not in ("var", "and") or x.op not in ("var", "and", "xor"):
            return None
        terms = x.args if x.op == "xor" else (x,)
        if y in terms:  # x is an XOR and y one of its terms
            terms = tuple(t for t in terms if t is not y)
            base = terms[0] if len(terms) == 1 else self._intern("xor", terms, None)
            return self.not_(base) if parity else base
        conj = y.args if y.op == "and" else (y,)
        shared_with = None  # the one term of x that shares a conjunct with y
        for t in terms:
            for c in t.args if t.op == "and" else (t,):
                if c in conj:
                    if shared_with is not None or not factor:
                        return None
                    shared_with = t
                    break
        if shared_with is None:
            i = bisect(terms, _sort_key(y), key=_sort_key)
            base = self._intern("xor", (*terms[:i], y, *terms[i:]), None)
            return self.not_(base) if parity else base

        t = shared_with  # S AND A XOR S AND B, split in the loop's order
        shared, a, b = self._split(*((t, y) if _sort_key(t) < _sort_key(y) else (y, t)))
        a_xor_b = self._xor_pair(b, a, False) if b.op == "xor" else self._xor_pair(a, b, False)
        if a_xor_b is None:  # A XOR B factors in turn, or is a shape left to the loop
            return None
        product = self.and_(shared + [a_xor_b])
        terms = tuple(u for u in terms if u is not t)
        if product is not self.false:
            if product.op not in ("var", "and"):  # a `not` or an XOR: _terms opens it
                return None
            conj = product.args if product.op == "and" else (product,)
            for u in terms:
                for c in u.args if u.op == "and" else (u,):
                    if c in conj:  # cancels or factors with u
                        return None
            i = bisect(terms, _sort_key(product), key=_sort_key)
            terms = (*terms[:i], product, *terms[i:])
        if len(terms) > 1:
            base = self._intern("xor", terms, None)
        else:
            base = terms[0] if terms else self.false
        return self.not_(base) if parity else base

    def _xor(self, children: list[BoolExpr]) -> BoolExpr:
        """XOR of any children, by the loop that factors common conjuncts."""
        pending: list[BoolExpr] = []
        parity = _terms(children, pending)
        # the smallest key first, so the form does not depend on the order of
        # `children`.  No two kept terms share a conjunct: `holder` maps a
        # conjunct to the last term kept with it, and a term x that shares
        # some with a kept term y is factored with it, S AND A XOR S AND B ->
        # S AND (A XOR B).  A XOR B may factor in turn (two chains of carries
        # do at every link), so this xor waits on `stack` with its S while
        # that one is built, and no chain deepens the Python stack
        pending.sort(key=_sort_key, reverse=True)
        kept: set[BoolExpr] = set()
        holder: dict[BoolExpr, BoolExpr] = {}
        stack: list[tuple] = []
        while True:
            while pending:
                x = pending.pop()
                if x in kept:  # x XOR x = 0
                    kept.remove(x)
                    continue
                conj = x.args if x.op == "and" else (x,)
                for c in conj:
                    y = holder.get(c)
                    if y is not None and y in kept:
                        break
                else:
                    kept.add(x)
                    for c in conj:
                        holder[c] = x
                    continue
                kept.remove(y)
                shared, a, b = self._split(y, x)
                stack.append((pending, kept, holder, parity, shared))
                pending, kept, holder = [], set(), {}
                parity = _terms([a, b], pending)
                pending.sort(key=_sort_key, reverse=True)

            if not kept:
                base = self.false
            elif len(kept) == 1:
                (base,) = kept
            else:
                base = self._intern("xor", tuple(sorted(kept, key=_sort_key)), None)
            result = self.not_(base) if parity else base
            if not stack:
                return result
            pending, kept, holder, parity, shared = stack.pop()
            parity ^= _terms([self.and_(shared + [result])], pending)

    def _split(self, x: BoolExpr, y: BoolExpr) -> tuple[list[BoolExpr], BoolExpr, BoolExpr]:
        """S, A and B for x = S AND A and y = S AND B, S the conjuncts they share."""
        cx = x.args if x.op == "and" else (x,)
        cy = y.args if y.op == "and" else (y,)
        in_x, in_y = set(cx), set(cy)
        a = self.and_([c for c in cx if c not in in_y])
        b = self.and_([c for c in cy if c not in in_x])
        return [c for c in cx if c in in_y], a, b

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
        """`node` with its children replaced, through the constructors."""
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
    order: list[BoolExpr], inputs: Mapping[QubitId, int], ones: int
) -> dict[BoolExpr, int]:
    """Bit-parallel values of every node of `order` (children first): each
    variable takes its column from `inputs`, and `ones` has one bit set per
    pattern in use, which every column lies within."""
    sig: dict[BoolExpr, int] = {}
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
    return bool(_simulate(_postorder([e]), env, 1)[e])


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


class FormulaState:
    """The current b_q for every qubit of one circuit, in one shared store."""

    __slots__ = ("store", "formulas")

    def __init__(self, store: BoolStore, formulas: dict[QubitId, BoolExpr]):
        self.store = store
        self.formulas = formulas

    def __eq__(self, other):
        if type(other) is not FormulaState:
            return NotImplemented
        return (self.store, self.formulas) == (other.store, other.formulas)

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


def _run(value, gates: Iterable[McxGate], store: BoolStore) -> None:
    """Step `gates` over formulas indexed by gid, in a list or a dict: a
    QubitId hashes through Python code.  X has no controls: its
    conjunction is `true`, and the xor negates.  Each step calls `and_`
    and `xor`, bound once here, and nothing else, so the nodes and their
    order are theirs, and a check wrapped around the two sees every step."""
    and_, xor = store.and_, store.xor
    for controls, target in gates:
        if len(controls) == 2:  # a Toffoli: no list built per control
            a, b = controls
            conj = and_([value[a.gid], value[b.gid]])
        else:
            conj = and_([value[c.gid] for c in controls])
        t = target.gid
        value[t] = xor([value[t], conj])


def apply_gate(s: FormulaState, g: McxGate) -> FormulaState:
    """One gate step; returns a new state, the input is left untouched."""
    value = {q.gid: b for q, b in s.formulas.items()}
    _run(value, [g], s.store)
    return FormulaState(s.store, {q: value[q.gid] for q in s.formulas})


def track(c: FlatCircuit) -> FormulaState:
    """The formulas after every gate of `c`, from init_state: one
    `and_` and one `xor` per gate, over one list indexed by gid."""
    state = init_state(c)
    value = list(state.formulas.values())  # init_state keys them in gid order
    _run(value, c.gates, state.store)
    return FormulaState(state.store, dict(zip(c.qubits, value)))


# --------------------------------------------------------------------------
# Safety conditions
# --------------------------------------------------------------------------


def restored_gids(s: FormulaState, qubits: Iterable[QubitId]) -> set[int]:
    """The gids of those of `qubits` whose output is their own variable and
    whose variable no other output holds: both conditions of such a qubit
    fold to `false`.  One pass ORs the supports of the outputs that are not
    their own variable, and gives a variable output its support bit, so a
    moved variable counts as held."""
    bit = s.store._bit
    held = 0
    for q, b in s.formulas.items():
        if b.op != "var":
            held |= b.supp
        elif b.qubit is not q:
            held |= bit(b)
    restored = set()
    for q in qubits:
        b = s[q]
        if b.op == "var" and b.qubit is q and not b.supp & held:
            restored.add(q.gid)
    return restored


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
    outputs = [b for o, b in s.formulas.items() if b.supp & bit and o.gid != q.gid]
    # one walk over the cone of q in all outputs, cofactored once per
    # constant: the outputs share subtrees
    cone = _cone(outputs, bit)
    zero = store._cofactor(cone, False)
    one = store._cofactor(cone, True)
    return store.or_([store.xor([zero[b], one[b]]) for b in outputs])
