"""Cond2 on the cone of the borrowed qubit, and single-gate-deletion mutants
of the benchmark programs checked against exhaustive enumeration."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qborrow
from qborrow import boolform
from qborrow.benchgen import adder_source, mcx_source
from qborrow.boolform import cond_restore_plus, track, variables
from qborrow.elaborator import elaborate_source
from qborrow.oracle import exhaustive_safe
from qborrow.verify import verify_circuit, witness_violates

from conftest import mutant_sources, store_nodes


def truth_table(e, vs) -> int:
    """Bit r of the result is the value of `e` on assignment r of `vs`."""
    rows = 1 << len(vs)
    full = (1 << rows) - 1
    value = {}
    for i, v in enumerate(vs):  # rows whose bit i is set: period 2^(i+1)
        half = 1 << i
        value[v] = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    stack = [e]
    while stack:
        node = stack[-1]
        if node in value:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in value]
        if pending:
            stack.extend(pending)
            continue
        if node.op == "false":
            value[node] = 0
        elif node.op == "true":
            value[node] = full
        elif node.op == "not":
            value[node] = full ^ value[node.args[0]]
        elif node.op == "and":
            acc = full
            for a in node.args:
                acc &= value[a]
            value[node] = acc
        else:
            acc = 0
            for a in node.args:
                acc ^= value[a]
            value[node] = acc
        stack.pop()
    return value[e]


def full_miter(q, state):
    """cond2 built from every other output, each substituted on its own."""
    store = state.store
    deltas = [
        store.xor([store.substitute(state[o], q, False), store.substitute(state[o], q, True)])
        for o in sorted(state, key=lambda x: x.gid)
        if o != q
    ]
    return store.or_(deltas)


# --------------------------------------------------------------------------
# cond2 against its definition


@pytest.mark.parametrize("n", [8, 16, 32])
def test_adder_cond2_sweeps_to_false(n):
    c = elaborate_source(adder_source(n))
    state = track(c)
    for q in c.verify_qubits():
        assert cond_restore_plus(q, state) is state.store.false, q.label


def adder8_mutants():
    return [elaborate_source(m) for m in mutant_sources(adder_source(8))]


@pytest.mark.parametrize("circuits", ["corpus", "adder8_mutants"])
def test_swept_cond2_equals_the_miter_on_every_assignment(circuits, request):
    corpus = request.getfixturevalue("corpus") if circuits == "corpus" else adder8_mutants()
    for c in corpus:
        state = track(c)
        for q in c.verify_qubits():
            miter = full_miter(q, state)
            cond2 = cond_restore_plus(q, state)
            vs = variables(miter)
            assert truth_table(cond2, vs) == truth_table(miter, vs)
            # the outputs outside the cone of q add only `false` terms
            assert cond2 is miter


# --------------------------------------------------------------------------
# cond2 on the cone of q


@pytest.mark.parametrize("circuits", ["corpus", "adder8_mutants"])
def test_support_is_the_bits_of_the_variables_below(circuits, request):
    corpus = request.getfixturevalue("corpus") if circuits == "corpus" else adder8_mutants()
    for c in corpus:
        state = track(c)
        store = state.store
        for q in c.verify_qubits():
            cond_restore_plus(q, state)
        nodes = store_nodes(store)
        bits = sorted(n.supp for n in nodes if n.op == "var" and n.supp)
        assert bits == [1 << i for i in range(len(bits))]  # one bit each, densely
        for node in nodes:
            if node.op != "var":
                below = [store.var(v).supp for v in variables(node)]
                assert all(below) and node.supp == sum(below), node


def test_support_and_patterns_grow_with_the_variables_in_use():
    # adder n=8 after 40,000 declared qubits that no gate touches: its
    # carries need 15 support bits, not gid-many (the sweep patterns that
    # grew alongside them are gone with the sweep)
    big = "borrow@ r[20000];\nalloc z[20000];\n"
    c = elaborate_source(big + adder_source(8) + "release r;\nrelease z;\n")
    state = track(c)
    store = state.store
    for q in c.verify_qubits():
        assert cond_restore_plus(q, state) is store.false, q.label
    assert max(n.supp.bit_length() for n in store_nodes(store)) <= 15


def test_cond2_without_a_dependent_output_builds_nothing(monkeypatch):
    # a.15, the last carry of adder n=16, reaches no output but its own
    c = elaborate_source(adder_source(16))
    state = track(c)
    cones, cofactor = [], boolform.BoolStore._cofactor

    def probe(self, cone, value):
        cones.append(cone)
        return cofactor(self, cone, value)

    monkeypatch.setattr(boolform.BoolStore, "_cofactor", probe)
    n = len(state.store)
    assert cond_restore_plus(c.qubit("a", 15), state) is state.store.false
    assert len(state.store) == n
    assert cones == [[], []]


def test_adder_carries_cancel_while_tracking(monkeypatch):
    # S AND A XOR S AND B -> S AND (A XOR B) cancels every borrowed carry
    # out of the outputs it threads through, so each cond2 is decided by
    # the support mask alone
    c = elaborate_source(adder_source(128))
    state = track(c)
    store = state.store
    borrowed = c.verify_qubits()
    leaks = [
        (o.label, q.label)
        for q in borrowed
        for o, b in state.formulas.items()
        if o != q and b.supp & store.var(q).supp
    ]
    assert leaks == []
    cones, cofactor = [], boolform.BoolStore._cofactor

    def probe(self, cone, value):
        cones.append(cone)
        return cofactor(self, cone, value)

    monkeypatch.setattr(boolform.BoolStore, "_cofactor", probe)
    n = len(store)
    for q in borrowed:
        assert cond_restore_plus(q, state) is store.false, q.label
    assert len(store) == n
    assert cones == [[]] * (2 * len(borrowed))


def run_report(path: Path, report: Path, hashseed: str) -> dict:
    src = str(Path(qborrow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
    subprocess.run(
        [sys.executable, "-m", "qborrow.cli", "verify", str(path), "--report", str(report)],
        capture_output=True, text=True, env=env, check=False,
    )
    doc = json.loads(report.read_text())
    doc.pop("total_ms")
    for v in doc["verdicts"]:
        v.pop("solve_ms")
    return doc


def test_reports_identical_across_processes(tmp_path):
    unsafe = mutant_sources(adder_source(8))[2]
    for name, source in (("adder12", adder_source(12)), ("mutant", unsafe)):
        path = tmp_path / f"{name}.qbr"
        path.write_text(source)
        first = run_report(path, tmp_path / f"{name}.1.json", "1")
        second = run_report(path, tmp_path / f"{name}.2.json", "2")
        assert first == second
    assert any(v["status"] == "unsafe" for v in first["verdicts"])


# --------------------------------------------------------------------------
# mutants against the exhaustive oracle


@pytest.mark.parametrize(
    "source, count", [(adder_source(8), 53), (mcx_source(6), 64)], ids=["adder8", "mcx6"]
)
def test_mutant_verdicts_match_enumeration(source, count):
    mutants = mutant_sources(source)
    assert len(mutants) == count
    for i, mutant in enumerate(mutants):
        c = elaborate_source(mutant)
        by_label = {q.label: q for q in c.qubits}
        for v in verify_circuit(c).verdicts:
            if v.status == "skipped":
                continue
            q = by_label[v.qubit]
            assert v.status == ("safe" if exhaustive_safe(c, q).safe else "unsafe"), (i, v.qubit)
            if v.status == "unsafe":
                assert witness_violates(c, q, v.witness, v.violated), (i, v.qubit)
