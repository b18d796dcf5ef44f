import itertools
import random
import sys

import pytest
from hypothesis import given, settings

from qborrow import (
    BoolStore,
    Cnf,
    check_sat,
    emit_dimacs,
    emit_smtlib,
    evaluate,
    parse_dimacs,
    solve,
    tseitin,
    variables,
)
from qborrow import satcore
from qborrow.boolform import (
    _reachable,
    cond_restore_plus,
    cond_restore_zero,
    count_nodes,
    to_prefix,
    track,
)
from qborrow.satcore import ResourceLimit
from qborrow.elaborator import QubitId, elaborate_source

from conftest import ring_source
from test_boolform import build_expr, tree_strategy

V = [QubitId("x", i + 1, i, f"x{i+1}") for i in range(12)]


def brute_force_sat(e):
    vs = variables(e)
    for bits in itertools.product([False, True], repeat=len(vs)):
        if evaluate(e, dict(zip(vs, bits))):
            return True
    return False


# --------------------------------------------------------------------------
# tseitin conversion


def test_constants():
    s = BoolStore()
    cnf, root = tseitin(s.false)
    assert cnf.clauses == [[]] and cnf.n_vars == 0 and root is None
    cnf, root = tseitin(s.true)
    assert cnf.clauses == [] and cnf.n_vars == 0 and root is None


def test_single_variable():
    s = BoolStore()
    cnf, root = tseitin(s.var(V[0]))
    assert cnf.n_vars == 1 and cnf.clauses == [] and root == 1
    assert cnf.var_map == {V[0]: 1}


def test_negated_variable():
    s = BoolStore()
    cnf, root = tseitin(s.not_(s.var(V[0])))
    assert root == -1 and cnf.clauses == []


def test_and_gate_clause_shape():
    s = BoolStore()
    cnf, root = tseitin(s.and_([s.var(V[0]), s.var(V[1])]))
    assert cnf.n_vars == 3  # two inputs + one definition variable
    assert len(cnf.clauses) == 3
    assert root == 3


def test_xor_gate_clause_shape():
    s = BoolStore()
    cnf, root = tseitin(s.xor([s.var(V[0]), s.var(V[1])]))
    assert cnf.n_vars == 3
    assert len(cnf.clauses) == 4


def test_shared_subterm_encoded_once():
    s = BoolStore()
    a, b, c = (s.var(V[i]) for i in range(3))
    x = s.xor([a, b])
    e = s.and_([x, s.or_([x, c])])
    cnf, _ = tseitin(e)
    # 3 inputs + one aux each for the xor, the inner and, the outer and
    assert cnf.n_vars == 6


def test_input_numbering_follows_gid_order():
    s = BoolStore()
    e = s.and_([s.var(V[4]), s.var(V[1])])
    cnf, _ = tseitin(e)
    assert cnf.var_map[V[1]] == 1 and cnf.var_map[V[4]] == 2


def test_tseitin_numbering_is_pinned():
    # the numbering steers the CDCL and so decides the witnesses: a shared
    # subterm under not, and and xor, encoded children first, last child
    # first; no two terms of the xor share a conjunct, so none is factored
    s = BoolStore()
    a, b, c, d = (s.var(V[i]) for i in range(4))
    shared = s.and_([a, b])
    x = s.xor([shared, c])
    e = s.xor([s.and_([x, s.not_(shared)]), s.and_([c, d]), shared])
    assert to_prefix(e) == (
        "xor(and(x1, x2), and(xor(x3, and(x1, x2)), not(and(x1, x2))), and(x3, x4))"
    )
    cnf, root = tseitin(e)
    assert cnf.var_map == {V[0]: 1, V[1]: 2, V[2]: 3, V[3]: 4}
    assert (cnf.n_vars, root) == (10, 10)
    assert cnf.clauses == [
        [-5, 3], [-5, 4], [5, -3, -4],
        [-6, 1], [-6, 2], [6, -1, -2],
        [-7, 3, 6], [-7, -3, -6], [7, -3, 6], [7, 3, -6],
        [-8, 7], [-8, -6], [8, -7, 6],
        [-9, 6, 8], [-9, -6, -8], [9, -6, 8], [9, 6, -8],
        [-10, 9, 5], [-10, -9, -5], [10, -9, 5], [10, 9, -5],
    ]


def test_formula_deeper_than_the_recursion_limit():
    # an and/xor chain whose xors share no conjunct, so nothing folds
    s = BoolStore()
    a, b, c = s.var(V[0]), s.var(V[1]), s.var(V[2])
    depth = sys.getrecursionlimit() + 100
    e = c
    for i in range(depth):
        e = s.and_([e, b]) if i % 2 == 0 else s.xor([e, a])

    def truth(va, vb, vc):
        value = vc
        for i in range(depth):
            value = (value and vb) if i % 2 == 0 else (value != va)
        return value

    assignments = list(itertools.product([False, True], repeat=3))
    env = lambda va, vb, vc: {V[0]: va, V[1]: vb, V[2]: vc}
    assert count_nodes(e) == depth + 3
    assert variables(e) == [V[0], V[1], V[2]]
    assert len(to_prefix(e)) > depth
    one = s.substitute(e, V[0], True)
    for va, vb, vc in assignments:
        assert evaluate(e, env(va, vb, vc)) == truth(va, vb, vc)
        assert evaluate(one, env(va, vb, vc)) == truth(True, vb, vc)
    cnf, root = tseitin(e)
    assert cnf.n_vars == 3 + depth
    assert solve(cnf, root).is_sat == any(truth(*v) for v in assignments)


def test_constant_cnf_skips_the_cdcl(monkeypatch):
    def no_search(*args):
        raise AssertionError("constant CNF handed to the CDCL")

    monkeypatch.setattr(satcore, "_Cdcl", no_search)
    s = BoolStore()
    assert solve(*tseitin(s.false)).status == "unsat"
    res = solve(*tseitin(s.true))
    assert res.is_sat and res.model == {}


@settings(max_examples=200, deadline=None)
@given(tree_strategy(5))
def test_tseitin_equisatisfiable(tree):
    s = BoolStore()
    e = build_expr(s, tree)
    assert solve(*tseitin(e)).is_sat == brute_force_sat(e)


# --------------------------------------------------------------------------
# CDCL solver


def php_cnf(pigeons: int, holes: int) -> Cnf:
    """Pigeonhole principle: unsatisfiable when pigeons > holes, and hard
    for resolution-based solvers, which makes it a good budget workload."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return Cnf(clauses=clauses, n_vars=pigeons * holes, var_map={}, source=None)


def test_php_unsat():
    assert not solve(php_cnf(4, 3)).is_sat


def test_php_sat_when_it_fits():
    res = solve(php_cnf(4, 4))
    assert res.is_sat


def test_conflict_budget():
    with pytest.raises(ResourceLimit) as exc:
        solve(php_cnf(7, 6), budget_conflicts=5)
    assert exc.value.reason == "conflicts"


def test_time_budget():
    with pytest.raises(ResourceLimit) as exc:
        solve(php_cnf(8, 7), budget_seconds=1e-9)
    assert exc.value.reason == "time"


def test_model_restricted_to_inputs():
    s = BoolStore()
    e = s.and_([s.var(V[0]), s.not_(s.var(V[1])), s.xor([s.var(V[2]), s.var(V[3])])])
    res = solve(*tseitin(e))
    assert res.is_sat
    assert set(res.model) == set(V[:4])
    assert evaluate(e, res.model)


def test_unsat_has_no_model():
    s = BoolStore()
    e = s.and_([s.xor([s.var(V[0]), s.var(V[1])]), s.xor([s.var(V[0]), s.not_(s.var(V[1]))])])
    res = solve(*tseitin(e))
    assert not res.is_sat and res.model is None


def test_check_sat_convenience():
    s = BoolStore()
    assert check_sat(s.true).is_sat
    assert not check_sat(s.false).is_sat
    assert check_sat(s.var(V[0])).model == {V[0]: True}


def test_solver_agrees_with_truth_tables():
    check_random_formulas()


def test_activity_rescaling_keeps_answers(monkeypatch):
    # rescaling runs once an activity passes RESCALE_AT; at 10 it runs often
    monkeypatch.setattr(satcore._Cdcl, "RESCALE_AT", 10.0)
    assert not solve(php_cnf(6, 5)).is_sat
    check_random_formulas()


def check_random_formulas():
    rng = random.Random(321)
    s = BoolStore()

    def rand_expr(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return s.var(V[rng.randrange(8)])
        if r < 0.45:
            return s.not_(rand_expr(depth - 1))
        op = s.and_ if r < 0.7 else s.xor
        return op([rand_expr(depth - 1) for _ in range(rng.randint(2, 3))])

    for _ in range(300):
        e = rand_expr(rng.randint(1, 5))
        res = check_sat(e)
        assert res.is_sat == brute_force_sat(e)
        if res.is_sat:
            env = {q: res.model.get(q, False) for q in variables(e)}
            assert evaluate(e, env)


# --------------------------------------------------------------------------
# DIMACS


def test_dimacs_false():
    s = BoolStore()
    assert emit_dimacs(*tseitin(s.false)) == "p cnf 0 1\n0\n"


def test_dimacs_true():
    s = BoolStore()
    assert emit_dimacs(*tseitin(s.true)) == "p cnf 0 0\n"


def test_dimacs_single_variable():
    s = BoolStore()
    q = QubitId("a", 2, 0, "a.2")
    text = emit_dimacs(*tseitin(s.var(q)))
    assert text == "c var 1 = a.2\np cnf 1 1\n1 0\n"


def test_dimacs_and_with_comments():
    s = BoolStore()
    text = emit_dimacs(*tseitin(s.and_([s.var(V[0]), s.var(V[1])])))
    lines = text.splitlines()
    assert lines[0] == "c var 1 = x1"
    assert lines[1] == "c var 2 = x2"
    assert lines[2] == "p cnf 3 4"  # 3 defining clauses + root unit
    assert lines[-1] == "3 0"


def test_dimacs_header_counts_root():
    s = BoolStore()
    e = s.xor([s.var(V[0]), s.var(V[1]), s.var(V[2])])
    text = emit_dimacs(*tseitin(e))
    header = [l for l in text.splitlines() if l.startswith("p ")][0]
    n_vars, n_clauses = int(header.split()[2]), int(header.split()[3])
    body = [l for l in text.splitlines() if not l.startswith(("c", "p"))]
    assert len(body) == n_clauses
    assert all(l.endswith(" 0") or l == "0" for l in body)


def test_dimacs_parse_round_trip():
    s = BoolStore()
    e = s.and_([s.xor([s.var(V[0]), s.var(V[1])]), s.not_(s.var(V[2]))])
    cnf, root = tseitin(e)
    n_vars, clauses = parse_dimacs(emit_dimacs(cnf, root))
    assert n_vars == cnf.n_vars
    assert clauses == cnf.clauses + [[root]]


def test_parse_dimacs_ignores_comments_and_blanks():
    n, cs = parse_dimacs("c hello\n\np cnf 3 2\n1 -2 0\n\nc mid\n3 0\n")
    assert n == 3 and cs == [[1, -2], [3]]


def test_dimacs_deterministic():
    def build():
        s = BoolStore()
        return tseitin(s.and_([s.xor([s.var(V[2]), s.var(V[0])]), s.var(V[1])]))

    assert emit_dimacs(*build()) == emit_dimacs(*build())


# --------------------------------------------------------------------------
# SMT-LIB2


def test_smtlib_false_and_true():
    s = BoolStore()
    assert emit_smtlib(s.false) == "(assert false)\n(check-sat)\n"
    assert emit_smtlib(s.true) == "(assert true)\n(check-sat)\n"


def test_smtlib_single_variable():
    s = BoolStore()
    q = QubitId("a", 1, 0, "a.1")
    assert emit_smtlib(s.var(q)) == "(declare-const q!a.1 Bool)\n(assert q!a.1)\n(check-sat)\n"


def test_smtlib_nested():
    s = BoolStore()
    e = s.xor([s.var(V[1]), s.and_([s.var(V[0]), s.not_(s.var(V[2]))])])
    assert emit_smtlib(e).splitlines() == [
        "(declare-const q!x1 Bool)",
        "(declare-const q!x2 Bool)",
        "(declare-const q!x3 Bool)",
        "(define-fun n!0 () Bool (not q!x3))",
        "(define-fun n!1 () Bool (and q!x1 n!0))",
        "(define-fun n!2 () Bool (xor q!x2 n!1))",
        "(assert n!2)",
        "(check-sat)",
    ]


def test_smtlib_grows_linearly_with_the_dag():
    # ring k shares subterms heavily: printed as a tree, its script grows about
    # sixfold per round, so k=5 fails fast before k=30 could exhaust memory
    for k in (5, 30):
        circuit = elaborate_source(ring_source(k))
        state = track(circuit)
        (q,) = circuit.verify_qubits()
        for build in (cond_restore_zero, cond_restore_plus):
            e = build(q, state)
            nodes = _reachable(e)
            edges = sum(len(n.args) for n in nodes)
            assert len(emit_smtlib(e)) <= 32 * (len(nodes) + edges), (k, build.__name__)


@pytest.mark.parametrize(
    "label", ["true", "false", "not", "and", "or", "xor", "ite", "distinct", "assert"]
)
def test_smtlib_register_named_like_a_builtin(label, tmp_path, capsys):
    shim = pytest.importorskip("smt_shim")  # needs sympy
    s = BoolStore()
    x, a = s.var(QubitId(label, 1, 0, label)), s.var(V[1])
    # x AND (x XOR a) AND a is unsat without folding to a constant
    for e in (x, s.not_(x), s.and_([x, s.not_(a)]), s.and_([x, s.xor([x, a]), a])):
        script = tmp_path / f"{label}.smt2"
        script.write_text(emit_smtlib(e))
        shim.main(str(script))
        assert capsys.readouterr().out.strip() == check_sat(e).status


def test_smtlib_deterministic():
    def build():
        s = BoolStore()
        return emit_smtlib(s.or_([s.and_([s.var(V[3]), s.var(V[1])]), s.var(V[0])]))

    assert build() == build()
