"""The two-operand kernels of `BoolStore.and_` and `BoolStore.xor`, and the
computed table in front of `xor`, against the general paths `_and` and
`_xor`: a circuit tracked either way must build the same store, node for
node (op, argument serials, qubit, support bits), and the same outputs.
Tseitin numbers its variables from the DAG, so equal stores give equal
CNFs, verdicts and witnesses."""

from unittest import mock

import pytest
from hypothesis import given, settings

from qborrow.benchgen import adder_source, mcx_source
from qborrow.boolform import BoolExpr, BoolStore, cond_restore_plus, cond_restore_zero, track
from qborrow.elaborator import QubitId, elaborate_source

from conftest import mutant_sources, store_nodes
from test_rewrites import circuits


def listing(store: BoolStore) -> list[tuple]:
    """Every node of `store` by serial, with its arguments by serial."""
    nodes = sorted(store_nodes(store), key=lambda n: n.serial)
    assert [n.serial for n in nodes] == list(range(len(store)))
    return [
        (n.op, tuple(a.serial for a in n.args), n.qubit and n.qubit.gid, n.supp) for n in nodes
    ]


def tracked(source: str) -> tuple[list[tuple], list[int]]:
    """The store listing and output serials after tracking `source` and
    building both conditions of every borrowed qubit."""
    c = elaborate_source(source)
    state = track(c)
    outputs = [state[q].serial for q in c.qubits]
    for q in c.verify_qubits() + c.skipped_qubits():
        outputs += [cond_restore_zero(q, state).serial, cond_restore_plus(q, state).serial]
    return listing(state.store), outputs


def tracked_generally(source: str) -> tuple[list[tuple], list[int]]:
    with (
        mock.patch.object(BoolStore, "and_", BoolStore._and),
        mock.patch.object(BoolStore, "xor", BoolStore._xor),
    ):
        return tracked(source)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_kernels_build_the_general_store_on_random_circuits(source):
    assert tracked(source) == tracked_generally(source)


def x_steps_in_the_general_loop(source: str) -> tuple[int, int]:
    """The X gates of `source`, and the tracking steps x XOR true that
    reach the general loop `_xor`."""
    c = elaborate_source(source)
    general, calls = BoolStore._xor, []

    def counted(self, children):
        calls.append(children[-1] is self.true)
        return general(self, children)

    with mock.patch.object(BoolStore, "_xor", counted):
        track(c)
    return sum(not g.controls for g in c.gates), sum(calls)


@settings(max_examples=200, deadline=None)
@given(circuits().filter(lambda source: "\nX[" in source))
def test_the_kernel_settles_x_steps_on_random_circuits(source):
    # drawn gate lists with at least one X gate: its step x XOR true is
    # NOT x, the node the general loop builds
    assert tracked(source) == tracked_generally(source)
    n_x, in_loop = x_steps_in_the_general_loop(source)
    assert n_x and not in_loop


ADDERS = {
    "adder12": adder_source(12),
    **{f"adder8-del{i}": m for i, m in enumerate(mutant_sources(adder_source(8))[:8])},
}


@pytest.mark.parametrize("source", ADDERS.values(), ids=ADDERS.keys())
def test_no_x_step_of_an_adder_reaches_the_general_loop(source):
    n_x, in_loop = x_steps_in_the_general_loop(source)
    assert n_x and not in_loop


PROGRAMS = {
    **{f"adder{n}": adder_source(n) for n in range(3, 65)},
    **{f"mcx{m}": mcx_source(m) for m in (*range(4, 20), *range(20, 257, 12), 256)},
}


@pytest.mark.parametrize("source", PROGRAMS.values(), ids=PROGRAMS.keys())
def test_kernels_build_the_general_store_on_benchmark_programs(source):
    assert tracked(source) == tracked_generally(source)


def test_kernels_build_the_general_store_on_mutants():
    mutants = mutant_sources(adder_source(10)) + mutant_sources(mcx_source(9))
    assert len(mutants) == 181
    for source in mutants:
        assert tracked(source) == tracked_generally(source)


@pytest.mark.parametrize(
    "m, factored, entries", [(64, 124, 376), (256, 508, 1528), (1024, 2044, 6136)]
)
def test_the_table_absorbs_the_repeated_steps_of_mcx(m, factored, entries):
    c = elaborate_source(mcx_source(m))
    calls = {"pairs": 0, "general": 0, "factored": 0}
    xor, general, split = BoolStore.xor, BoolStore._xor, BoolStore._split

    def counted_xor(self, children):
        calls["pairs"] += len(children) == 2
        return xor(self, children)

    def counted_general(self, children):
        calls["general"] += 1
        return general(self, children)

    def counted_split(self, x, y):
        calls["factored"] += 1
        return split(self, x, y)

    with (
        mock.patch.object(BoolStore, "xor", counted_xor),
        mock.patch.object(BoolStore, "_xor", counted_general),
        mock.patch.object(BoolStore, "_split", counted_split),
    ):
        store = track(c).store
    # one two-operand xor a gate; the steps that factor and were not taken
    # before are settled by `_xor_pair`, and none reaches the general loop,
    # so every `_split` is a factoring step the kernel settled
    assert calls == {"pairs": len(c.gates), "general": 0, "factored": factored}
    assert len(store._xor2) == entries <= calls["pairs"]


# one xor step each, x XOR y with y sharing conjuncts with a term t of x:
# (name, x, y, whether `_xor_pair` settles it).  W is an AND too wide to
# flatten, so it stays one conjunct of a product
FACTOR_STEPS = [
    ("one term", "AND(v0, v1)", "AND(v0, v2)", True),
    ("beside a term", "XOR(AND(v0, v1), v3)", "AND(v0, v2)", True),
    ("negated", "NOT(XOR(AND(v0, v1), v3))", "NOT(AND(v0, v2))", True),
    ("A a variable, B an XOR", "XOR(AND(v0, v1), v4)", "AND(v0, XOR(v2, v3))", True),
    ("A XOR B is false", "XOR(AND(v0, W), v6)", "AND(v0, v1, v2, v3, v4, v5)", True),
    ("the product is a not", "XOR(AND(NOT(v0), v1), v3)", "AND(NOT(v0), NOT(v1))", False),
    ("the product is an XOR", "XOR(AND(XOR(v4, v5), v1), v3)", "AND(XOR(v4, v5), NOT(v1))", False),
    ("the product cancels a term", "XOR(AND(W, v0), W)", "AND(W, NOT(v0))", False),
    (
        "the product shares a conjunct with a term",
        "XOR(AND(v0, v1), AND(XOR(v1, v2), v3))",
        "AND(v0, v2)",
        False,
    ),
    ("A XOR B factors", "XOR(AND(v0, XOR(AND(v1, v2), v3)), v5)", "AND(v0, v1, v4)", False),
    ("A and B are XORs", "AND(v0, XOR(v1, v2))", "AND(v0, XOR(v1, v3))", False),
    ("y shares with two terms", "XOR(AND(v0, v1), AND(v2, v3))", "AND(v0, v2)", False),
]


def build(store: BoolStore, text: str) -> BoolExpr:
    """The node of `text`, an expression over v0..v7 and W, through the
    store's constructors."""
    names = {f"v{i}": store.var(QubitId("v", i + 1, i, f"v{i + 1}")) for i in range(8)}
    names["W"] = store.and_([names[f"v{i}"] for i in range(1, 6)])
    names["AND"] = lambda *args: store.and_(list(args))
    names["XOR"] = lambda *args: store.xor(list(args))
    names["NOT"] = store.not_
    return eval(text, {"__builtins__": {}}, names)


@pytest.mark.parametrize(
    "x, y, settled", [step[1:] for step in FACTOR_STEPS], ids=[step[0] for step in FACTOR_STEPS]
)
def test_the_factoring_kernel_builds_the_general_store(x, y, settled):
    """One step on twin stores, through `xor` and through the general loop
    `_xor`: equal listings, so the same nodes in the same order.  A step
    the kernel does not settle reaches `_xor` from `xor`."""
    kernel, general = BoolStore(), BoolStore()
    operands = [[build(s, x), build(s, y)] for s in (kernel, general)]
    general_loop, calls = BoolStore._xor, []

    def counted(self, children):
        calls.append(children)
        return general_loop(self, children)

    with mock.patch.object(BoolStore, "_xor", counted):
        node = kernel.xor(operands[0])
    assert node.serial == general._xor(operands[1]).serial
    assert listing(kernel) == listing(general)
    assert calls == ([] if settled else [operands[0]])


def test_each_store_has_its_own_table():
    c = elaborate_source(mcx_source(16))
    first, second = track(c).store, track(c).store
    assert first._xor2 is not second._xor2
    assert len(first._xor2) == len(second._xor2) and len(first) == len(second)
    assert not set(map(id, first._xor2.values())) & set(map(id, second._xor2.values()))
    assert not BoolStore()._xor2
