import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborrow import (
    BoolStore,
    apply_gate,
    boolform,
    cond_restore_plus,
    cond_restore_zero,
    count_nodes,
    elaborate_source,
    evaluate,
    init_state,
    to_prefix,
    track,
    variables,
)
from qborrow.elaborator import QubitId
from qborrow.errors import ResourceLimit

V = [QubitId("v", i + 1, i, f"v{i+1}") for i in range(8)]


def equivalent(e1, e2):
    vs = sorted(set(variables(e1)) | set(variables(e2)), key=lambda q: q.gid)
    for bits in itertools.product([False, True], repeat=len(vs)):
        env = dict(zip(vs, bits))
        if evaluate(e1, env) != evaluate(e2, env):
            return False
    return True


# --------------------------------------------------------------------------
# canonical constructors


def test_constants_and_vars_are_interned():
    s = BoolStore()
    assert s.var(V[0]) is s.var(V[0])
    assert s.true is not s.false
    assert s.var(V[0]) is not s.var(V[1])


def test_not_involution_and_constants():
    s = BoolStore()
    a = s.var(V[0])
    assert s.not_(s.not_(a)) is a
    assert s.not_(s.true) is s.false
    assert s.not_(s.false) is s.true


def test_and_flattens_sorts_dedupes():
    s = BoolStore()
    a, b, c = (s.var(V[i]) for i in range(3))
    n1 = s.and_([s.and_([a, b]), c])
    n2 = s.and_([c, s.and_([b, a])])
    n3 = s.and_([a, b, c, b, a])
    assert n1 is n2 is n3
    assert n1.op == "and" and len(n1.args) == 3


def test_and_units():
    s = BoolStore()
    a = s.var(V[0])
    assert s.and_([]) is s.true
    assert s.and_([a]) is a
    assert s.and_([a, s.true]) is a
    assert s.and_([a, s.false]) is s.false
    assert s.and_([a, s.not_(a)]) is s.false


def test_xor_cancellation_and_units():
    s = BoolStore()
    a, b = s.var(V[0]), s.var(V[1])
    assert s.xor([]) is s.false
    assert s.xor([a]) is a
    assert s.xor([a, a]) is s.false
    assert s.xor([a, a, b]) is b
    assert s.xor([a, s.false]) is a
    assert s.xor([a, s.true]) is s.not_(a)
    assert s.xor([a, s.not_(a)]) is s.true


def test_xor_polarity_normalization():
    s = BoolStore()
    a, b = s.var(V[0]), s.var(V[1])
    # an odd number of negated children pulls the negation outside
    e = s.xor([s.not_(a), b])
    assert e.op == "not" and e.args[0].op == "xor"
    assert s.xor([s.not_(a), s.not_(b)]) is s.xor([a, b])
    # nested xors flatten through the polarity bookkeeping
    assert s.xor([s.xor([a, b]), b]) is a


def test_or_via_de_morgan():
    s = BoolStore()
    a, b = s.var(V[0]), s.var(V[1])
    e = s.or_([a, b])
    assert equivalent(e, s.not_(s.and_([s.not_(a), s.not_(b)])))
    assert s.or_([]) is s.false
    assert s.or_([a]) is a
    assert s.or_([a, s.true]) is s.true
    assert s.or_([a, s.not_(a)]) is s.true


def test_complementary_factor_elimination():
    # A xor over two conjunctions that differ only in one complemented
    # factor collapses to the shared factors
    s = BoolStore()
    q1, q2, q3 = (s.var(V[i]) for i in range(3))
    inner = s.and_([q1, q2])
    e = s.xor([s.and_([q1, q2, q3]), s.and_([q3, s.not_(inner)])])
    assert e is q3


def test_structural_sharing_across_formulas():
    s = BoolStore()
    a, b, c = (s.var(V[i]) for i in range(3))
    e1 = s.and_([a, b])
    e2 = s.xor([s.and_([b, a]), c])
    assert any(arg is e1 for arg in e2.args)


def test_node_cap(monkeypatch):
    monkeypatch.setattr(boolform, "MAX_NODES", 8)
    s = BoolStore()
    with pytest.raises(ResourceLimit) as exc:
        for i in range(8):
            s.var(V[i])
    assert exc.value.reason == "size"


def test_count_nodes_is_dag_size():
    s = BoolStore()
    a, b, c = s.var(V[0]), s.var(V[1]), s.var(V[2])
    shared = s.and_([a, b])
    e = s.xor([shared, s.not_(shared)])  # collapses to true
    assert e is s.true
    e = s.and_([s.xor([shared, c]), s.not_(shared)])
    # shared appears twice but counts once:
    # a, b, and(a,b), c, xor(..), not(..), and(..) = 7 distinct nodes
    assert count_nodes(e) == 7


def test_to_prefix_deterministic_across_stores():
    def build(s):
        a, b, c = (s.var(V[i]) for i in range(3))
        return s.xor([s.and_([c, a]), b, s.and_([a, b])])

    assert to_prefix(build(BoolStore())) == to_prefix(build(BoolStore()))


def test_variables_sorted_by_gid():
    s = BoolStore()
    e = s.xor([s.var(V[3]), s.var(V[0]), s.var(V[5])])
    assert variables(e) == [V[0], V[3], V[5]]


# --------------------------------------------------------------------------
# substitution


def test_substitute_basics():
    s = BoolStore()
    a, b = s.var(V[0]), s.var(V[1])
    e = s.xor([s.and_([a, b]), a])
    assert s.substitute(e, V[0], True) is s.xor([b, s.true])
    assert s.substitute(e, V[0], False) is s.false
    # untouched when the variable does not occur
    assert s.substitute(e, V[5], True) is e


def test_substitute_is_memoized_per_value():
    s = BoolStore()
    a, b = s.var(V[0]), s.var(V[1])
    e = s.and_([a, b])
    r1 = s.substitute(e, V[0], True)
    r2 = s.substitute(e, V[0], True)
    assert r1 is r2 is b


@settings(max_examples=200)
@given(st.data())
def test_substitute_semantics(data):
    s = BoolStore()
    e = data.draw(expr_trees(s, 4))
    q = data.draw(st.sampled_from(V[:4]))
    val = data.draw(st.booleans())
    sub = s.substitute(e, q, val)
    assert q not in variables(sub)
    vs = V[:4]
    for bits in itertools.product([False, True], repeat=len(vs)):
        env = dict(zip(vs, bits))
        if env[q] == val:
            assert evaluate(sub, env) == evaluate(e, env)


# --------------------------------------------------------------------------
# property: canonicalization preserves semantics


def naive_eval(tree, env):
    op = tree[0]
    if op == "var":
        return env[tree[1]]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "not":
        return not naive_eval(tree[1], env)
    vals = [naive_eval(t, env) for t in tree[1]]
    if op == "and":
        return all(vals)
    assert op == "xor"
    return sum(vals) % 2 == 1


def build_expr(s, tree):
    op = tree[0]
    if op == "var":
        return s.var(tree[1])
    if op == "true":
        return s.true
    if op == "false":
        return s.false
    if op == "not":
        return s.not_(build_expr(s, tree[1]))
    kids = [build_expr(s, t) for t in tree[1]]
    return s.and_(kids) if op == "and" else s.xor(kids)


def tree_strategy(n_vars):
    leaf = st.one_of(
        st.tuples(st.just("var"), st.sampled_from(V[:n_vars])),
        st.just(("true",)),
        st.just(("false",)),
    )
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(st.just("not"), kids),
            st.tuples(st.just("and"), st.lists(kids, min_size=1, max_size=4)),
            st.tuples(st.just("xor"), st.lists(kids, min_size=1, max_size=4)),
        ),
        max_leaves=25,
    )


def expr_trees(s, n_vars):
    return tree_strategy(n_vars).map(lambda t: build_expr(s, t))


@settings(max_examples=300, deadline=None)
@given(tree_strategy(6))
def test_canonical_forms_preserve_semantics(tree):
    s = BoolStore()
    e = build_expr(s, tree)
    vs = V[:6]
    for bits in itertools.product([False, True], repeat=6):
        env = dict(zip(vs, bits))
        assert evaluate(e, env) == naive_eval(tree, env)


@settings(max_examples=100, deadline=None)
@given(tree_strategy(5), tree_strategy(5))
def test_interning_respects_semantics(t1, t2):
    # identical nodes must be semantically equal (the converse need not hold)
    s = BoolStore()
    e1, e2 = build_expr(s, t1), build_expr(s, t2)
    if e1 is e2:
        for bits in itertools.product([False, True], repeat=5):
            env = dict(zip(V[:5], bits))
            assert naive_eval(t1, env) == naive_eval(t2, env)


# --------------------------------------------------------------------------
# circuit tracking


FOUR_GATE_SRC = """\
borrow@ q1; borrow@ q2; borrow@ q3; borrow a; borrow@ q4;
CCNOT[q1, q2, a];
CCNOT[a, q3, q4];
CCNOT[q1, q2, a];
CCNOT[a, q3, q4];
"""


def test_initial_formulas_by_role():
    c = elaborate_source("borrow d;\nalloc z;\nborrow@ s;\nX[d];")
    st0 = init_state(c)
    s = st0.store
    assert st0[c.qubit("d")] is s.var(c.qubit("d"))
    assert st0[c.qubit("z")] is s.false
    assert st0[c.qubit("s")] is s.var(c.qubit("s"))


def test_not_gate_update():
    c = elaborate_source("borrow d;\nX[d];")
    state = track(c)
    d = c.qubit("d")
    assert state[d] is state.store.not_(state.store.var(d))


def test_mcx_update_on_clean_target():
    c = elaborate_source("borrow d[2];\nalloc z;\nCCNOT[d[1], d[2], z];")
    state = track(c)
    s = state.store
    d1, d2, z = c.qubit("d", 1), c.qubit("d", 2), c.qubit("z")
    assert state[z] is s.and_([s.var(d1), s.var(d2)])


def test_four_gate_tracking_table():
    c = elaborate_source(FOUR_GATE_SRC)
    s0 = init_state(c)
    s = s0.store
    q1, q2, q3 = c.qubit("q1"), c.qubit("q2"), c.qubit("q3")
    a, q4 = c.qubit("a"), c.qubit("q4")
    va, v1, v2, v3, v4 = (s.var(q) for q in (a, q1, q2, q3, q4))

    states = [s0]
    for g in c.gates:
        states.append(apply_gate(states[-1], g))

    # row after gate 1: b_a = a xor q1 q2
    row1 = s.xor([va, s.and_([v1, v2])])
    assert states[1][a] is row1
    # row after gate 2: b_q4 = q4 xor q3 (a xor q1 q2)
    row2 = s.xor([v4, s.and_([v3, row1])])
    assert states[2][q4] is row2
    # row after gate 3: b_a collapses back to a, structurally
    assert states[3][a] is va
    # row after gate 4: b_q4 = q4 xor q3 a xor q3 (a xor q1 q2)
    row4 = s.xor([v4, s.and_([v3, va]), s.and_([v3, row1])])
    assert states[4][q4] is row4
    # untouched qubits keep their initial formulas throughout
    assert states[4][q1] is v1 and states[4][q2] is v2 and states[4][q3] is v3


def test_apply_gate_is_pure():
    c = elaborate_source("borrow d;\nX[d];")
    s0 = init_state(c)
    s1 = apply_gate(s0, c.gates[0])
    d = c.qubit("d")
    assert s0[d] is s0.store.var(d)
    assert s1[d] is not s0[d]


# --------------------------------------------------------------------------
# safety conditions


def test_cond_restore_zero_shape():
    c = elaborate_source("borrow d;\nX[d];")
    state = track(c)
    d = c.qubit("d")
    s = state.store
    # b_d = not d, so the condition is and(not d, not d) = not d
    assert cond_restore_zero(d, state) is s.not_(s.var(d))


def test_cond_restore_zero_clean_register():
    # z starts at |0>, is written and then uncomputed: b_z collapses to false
    c = elaborate_source("alloc z;\nborrow d;\nCNOT[d, z];\nCNOT[d, z];")
    state = track(c)
    assert state[c.qubit("z")] is state.store.false
    assert cond_restore_zero(c.qubit("z"), state) is state.store.false


def test_cond_restore_plus_identity_circuit():
    c = elaborate_source("borrow d[2];\nX[d[1]];\nX[d[1]];")
    state = track(c)
    assert cond_restore_plus(c.qubit("d", 1), state) is state.store.false


def test_cond_restore_plus_single_literal():
    c = elaborate_source(
        "borrow@ q1; borrow@ q2; borrow a; borrow@ q4; borrow@ q5;\n"
        "CCNOT[q1, q2, a];\nCCNOT[a, q4, q5];\nCCNOT[q1, q2, a];"
    )
    state = track(c)
    a = c.qubit("a")
    assert cond_restore_zero(a, state) is state.store.false
    # the dependence of q5 on a reduces to the single control literal q4
    assert cond_restore_plus(a, state) is state.store.var(c.qubit("q4"))


def test_cond_restore_plus_four_gate_circuit():
    c = elaborate_source(FOUR_GATE_SRC)
    state = track(c)
    a = c.qubit("a")
    assert cond_restore_zero(a, state) is state.store.false
    assert cond_restore_plus(a, state) is state.store.false


def test_cnot_makes_control_unsafe():
    c = elaborate_source("borrow d[2];\nCNOT[d[1], d[2]];")
    state = track(c)
    d1 = c.qubit("d", 1)
    cond2 = cond_restore_plus(d1, state)
    # b_d2 = d2 xor d1 depends on d1; delta is constant true
    assert cond2 is state.store.true
