"""The store's rewrite rules, checked on every constructor call.

Since `xor` factors common conjuncts, the CDCL proves no condition of the
benchmark programs unsat: every Safe verdict there rests on the rules of
`not_`, `and_` and `xor` alone.  `checked_rules` wraps the three
constructors and checks that each node they return computes its operation
on their arguments: on every assignment of the variables involved when
there are at most `EXHAUSTIVE_VARS`, otherwise on `PATTERNS` fixed-seed
random patterns.  The benchmark programs and Hypothesis-drawn circuits
are both checked."""

import operator
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborrow.benchgen import adder_source, mcx_source
from qborrow.boolform import (
    BoolStore,
    _postorder,
    _simulate,
    cond_restore_plus,
    cond_restore_zero,
    track,
)
from qborrow.elaborator import elaborate_source

from conftest import mutant_sources

EXHAUSTIVE_VARS = 12
PATTERNS = 256
SEED = 0x5EED


def columns(qubits: list) -> tuple[dict, int]:
    """An input column per qubit, and the mask of the rows in use."""
    if len(qubits) <= EXHAUSTIVE_VARS:
        rows = 1 << len(qubits)
        ones = (1 << rows) - 1
        # row r sets qubit i iff bit i of r is set: period 2^(i+1)
        return {
            q: ones // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
            for i, q in enumerate(qubits)
        }, ones
    rng = random.Random(SEED)
    return {q: rng.getrandbits(PATTERNS) for q in qubits}, (1 << PATTERNS) - 1


RULES = {
    "not_": lambda values, ones: values[0] ^ ones,
    "and_": lambda values, ones: reduce(operator.and_, values, ones),
    "xor": lambda values, ones: reduce(operator.xor, values, 0),
}


def install_checks(monkeypatch) -> list[str]:
    """Check every node `not_`, `and_` and `xor` return; counts the checks."""
    checks = []

    def wrap(name, combine):
        original = getattr(BoolStore, name)

        def checked(self, arg):
            args = [arg] if name == "not_" else list(arg)
            result = original(self, arg if name == "not_" else args)
            order = _postorder([result, *args])
            qubits = sorted((n.qubit for n in order if n.op == "var"), key=lambda q: q.gid)
            inputs, ones = columns(qubits)
            value = _simulate(order, inputs, ones)
            assert value[result] == combine([value[a] for a in args], ones), (name, args, result)
            checks.append(name)
            return result

        monkeypatch.setattr(BoolStore, name, checked)

    for name, combine in RULES.items():
        wrap(name, combine)
    return checks


@pytest.fixture
def checked_rules(monkeypatch):
    return install_checks(monkeypatch)


def build_conditions(c) -> None:
    state = track(c)
    for q in c.verify_qubits():
        cond_restore_zero(q, state)
        cond_restore_plus(q, state)


@pytest.mark.parametrize(
    "programs",
    [
        "corpus",
        "adder8_mutants",
        "adder8",
        "adder16",
        "adder32",
        "mcx8",
        "mcx64",
    ],
)
def test_rewrites_compute_their_operation(programs, checked_rules, request):
    if programs == "corpus":
        circuits = request.getfixturevalue("corpus")
    elif programs == "adder8_mutants":
        circuits = [elaborate_source(m) for m in mutant_sources(adder_source(8))]
    elif programs.startswith("adder"):
        circuits = [elaborate_source(adder_source(int(programs[5:])))]
    else:
        circuits = [elaborate_source(mcx_source(int(programs[3:])))]
    for c in circuits:
        build_conditions(c)
    assert {"not_", "and_", "xor"} <= set(checked_rules)


@st.composite
def circuits(draw) -> str:
    """A program of up to 8 one-qubit registers, each borrow, borrow@ or
    alloc, and up to 40 X, CNOT and CCNOT gates on them."""
    roles = draw(st.lists(st.sampled_from(["borrow", "borrow@", "alloc"]), min_size=1, max_size=8))
    n = len(roles)
    gate = st.integers(1, min(3, n)).flatmap(
        lambda k: st.permutations(range(n)).map(lambda p: p[:k])
    )
    lines = [f"{role} q{i};" for i, role in enumerate(roles)]
    for ops in draw(st.lists(gate, max_size=40)):
        lines.append(f"{('X', 'CNOT', 'CCNOT')[len(ops) - 1]}[{', '.join(f'q{i}' for i in ops)}];")
    lines += [f"release q{i};" for i in range(n)]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_rewrites_compute_their_operation_on_random_circuits(source):
    # both conditions of every borrowed qubit, borrow@ ones included
    c = elaborate_source(source)
    with pytest.MonkeyPatch.context() as monkeypatch:
        checks = install_checks(monkeypatch)
        state = track(c)
        for q in c.verify_qubits() + c.skipped_qubits():
            cond_restore_zero(q, state)
            cond_restore_plus(q, state)
    # each gate builds its product and its xor
    assert len(checks) >= 2 * len(c.gates)


def test_a_wrong_rule_is_caught(checked_rules, monkeypatch):
    # a factoring that drops B: S AND A XOR S AND B -> S AND A
    original = BoolStore._split

    def dropped(self, x, y):
        shared, a, _ = original(self, x, y)
        return shared, a, self.false

    monkeypatch.setattr(BoolStore, "_split", dropped)
    with pytest.raises(AssertionError, match=r"^\('xor'"):
        build_conditions(elaborate_source(adder_source(8)))
