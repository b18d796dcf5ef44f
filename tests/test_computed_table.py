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
from qborrow.boolform import BoolStore, cond_restore_plus, cond_restore_zero, track
from qborrow.elaborator import elaborate_source

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
    "m, general_calls, entries", [(64, 124, 376), (256, 508, 1528), (1024, 2044, 6136)]
)
def test_the_table_absorbs_the_repeated_steps_of_mcx(m, general_calls, entries):
    c = elaborate_source(mcx_source(m))
    calls = {"pairs": 0, "general": 0}
    xor, general = BoolStore.xor, BoolStore._xor

    def counted_xor(self, children):
        calls["pairs"] += len(children) == 2
        return xor(self, children)

    def counted_general(self, children):
        calls["general"] += 1
        return general(self, children)

    with (
        mock.patch.object(BoolStore, "xor", counted_xor),
        mock.patch.object(BoolStore, "_xor", counted_general),
    ):
        store = track(c).store
    # one two-operand xor a gate; only the steps that factor and were not
    # taken before reach the general loop
    assert calls == {"pairs": len(c.gates), "general": general_calls}
    assert len(store._xor2) == entries <= calls["pairs"]


def test_each_store_has_its_own_table():
    c = elaborate_source(mcx_source(16))
    first, second = track(c).store, track(c).store
    assert first._xor2 is not second._xor2
    assert len(first._xor2) == len(second._xor2) and len(first) == len(second)
    assert not set(map(id, first._xor2.values())) & set(map(id, second._xor2.values()))
    assert not BoolStore()._xor2
