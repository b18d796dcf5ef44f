import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborrow import elaborate_source, elaborator
from qborrow.benchgen import adder_source, mcx_source
from qborrow.elaborator import (
    ArithmeticOverflow,
    DuplicateOperand,
    ElabError,
    ElabLimitExceeded,
    IndexOutOfRange,
    McxGate,
    NonPositiveSize,
    QubitRole,
    RedeclaredRegister,
    RedefinedName,
    UnboundIdentifier,
    UseAfterRelease,
    dump_gates,
    loop_range,
)
from qborrow.idle import BorrowBlock, IfMeasure, Init, Seq, Skip, Unitary, WhileMeasure, idle, seq

from conftest import LEAKY_CCCNOT_SRC, SAFE_CCCNOT_SRC, flat_source


# --------------------------------------------------------------------------
# flattening


def test_simple_flatten():
    c = elaborate_source("borrow q[2];\nX[q[1]];\nCNOT[q[1], q[2]];\nrelease q;")
    assert [q.label for q in c.qubits] == ["q.1", "q.2"]
    assert dump_gates(c) == "X q.1\nCNOT q.1 q.2\n"
    assert c.lifetimes["q"] == (0, 2)
    assert not c.warnings


def test_unindexed_register_is_single_qubit():
    c = elaborate_source("borrow t;\nX[t];")
    assert c.n_qubits == 1
    assert c.qubits[0].label == "t"  # no index suffix
    assert c.qubit("t").gid == 0


def test_roles_and_partitions():
    c = elaborate_source("borrow@ q[2];\nborrow a;\nalloc z[2];\nX[a];")
    roles = {q.label: r for q, r in zip(c.qubits, c.roles)}
    assert roles == {
        "q.1": QubitRole.BORROW_SKIP,
        "q.2": QubitRole.BORROW_SKIP,
        "a": QubitRole.BORROW_VERIFY,
        "z.1": QubitRole.CLEAN,
        "z.2": QubitRole.CLEAN,
    }
    assert [q.label for q in c.verify_qubits()] == ["a"]
    assert [q.label for q in c.skipped_qubits()] == ["q.1", "q.2"]


def test_let_and_expressions():
    c = elaborate_source("let n = 2 * (3 + 1);\nborrow q[n - 5];\nX[q[3]];")
    assert c.n_qubits == 3


def test_loop_unrolls_ascending():
    c = elaborate_source("borrow q[3];\nfor i = 1 to 3 { X[q[i]]; }")
    assert dump_gates(c) == "X q.1\nX q.2\nX q.3\n"


def test_loop_unrolls_descending():
    c = elaborate_source("borrow q[3];\nfor i = 3 to 1 { X[q[i]]; }")
    assert dump_gates(c) == "X q.3\nX q.2\nX q.1\n"


def test_loop_single_iteration():
    assert list(loop_range(2, 2)) == [2]
    c = elaborate_source("borrow q[3];\nfor i = 2 to 2 { X[q[i]]; }")
    assert dump_gates(c) == "X q.2\n"


def test_loop_bounds_evaluated_once():
    # the index variable is usable inside body expressions
    c = elaborate_source("borrow q[4];\nfor i = 1 to 2 { CNOT[q[i], q[i + 2]]; }")
    assert dump_gates(c) == "CNOT q.1 q.3\nCNOT q.2 q.4\n"


def test_nested_loops():
    c = elaborate_source(
        "borrow q[6];\nfor i = 0 to 1 { for j = 1 to 2 { X[q[3 * i + j]]; } }"
    )
    assert dump_gates(c) == "X q.1\nX q.2\nX q.4\nX q.5\n"


def test_loop_index_out_of_scope_after():
    with pytest.raises(UnboundIdentifier):
        elaborate_source("borrow q[2];\nfor i = 1 to 2 { X[q[i]]; }\nX[q[i]];")


@pytest.mark.parametrize(
    "source, where",
    [
        ("borrow a[1099511627776];", "1:1"),
        ("borrow a;\nfor i = 1 to 1099511627776 { }", "2:1"),
        ("borrow a;\nfor i = 1 to 1048576 { for j = 1 to 1048576 { X[a]; } }", "2:47"),
    ],
)
def test_caps_fail_before_allocating(source, where):
    start = time.perf_counter()
    with pytest.raises(ElabLimitExceeded, match=f"^{where}: "):
        elaborate_source(source)
    assert time.perf_counter() - start < 1.0


def test_gate_arity_flattening():
    c = elaborate_source("borrow q[3];\nX[q[2]];\nCNOT[q[3], q[1]];\nCCNOT[q[1], q[2], q[3]];")
    g1, g2, g3 = c.gates
    assert g1.controls == () and g1.target.label == "q.2"
    assert isinstance(g2, McxGate) and [x.label for x in g2.controls] == ["q.3"]
    assert isinstance(g3, McxGate) and len(g3.controls) == 2


def test_implicit_release_warns():
    c = elaborate_source("borrow q;\nX[q];")
    assert any("never released" in w for w in c.warnings)
    assert c.lifetimes["q"] == (0, 1)


def test_lifetime_window():
    c = elaborate_source(
        "borrow a;\nX[a];\nborrow b;\nCNOT[a, b];\nrelease b;\nX[a];\nrelease a;"
    )
    assert c.lifetimes == {"a": (0, 3), "b": (1, 2)}


# --------------------------------------------------------------------------
# errors


@pytest.mark.parametrize(
    "src,exc",
    [
        ("borrow q[2]; CNOT[q[1], q[1]];", DuplicateOperand),
        ("borrow q[2]; CCNOT[q[1], q[2], q[2]];", DuplicateOperand),
        ("borrow q; release q; X[q];", UseAfterRelease),
        ("borrow q; release q; release q;", UseAfterRelease),
        ("X[q];", UnboundIdentifier),
        ("release q;", UnboundIdentifier),
        ("let n = 2; X[n];", UnboundIdentifier),
        ("borrow q[2]; X[q[3]];", IndexOutOfRange),
        ("borrow q[2]; X[q[0]];", IndexOutOfRange),
        ("borrow q[0];", NonPositiveSize),
        ("let n = -1; borrow q[n];", NonPositiveSize),
        ("borrow q; borrow q;", RedeclaredRegister),
        ("borrow q; let q = 1;", RedefinedName),
        ("let n = 1; let n = 2;", RedefinedName),
        ("let i = 1; for i = 1 to 2 { X[q]; }", RedefinedName),
        ("let n = 9223372036854775807; let m = n + 1;", ArithmeticOverflow),
        ("let n = 3037000500; let m = n * n;", ArithmeticOverflow),
    ],
)
def test_elaboration_errors(src, exc):
    with pytest.raises(exc):
        elaborate_source(src)


def test_error_carries_location():
    # location points at the offending register reference
    with pytest.raises(IndexOutOfRange, match="2:5"):
        elaborate_source("borrow q[2];\n  X[q[5]];")


def test_min_int64_negation_overflow():
    # -(-9223372036854775807 - 1) is fine, but one past it is not
    elaborate_source("let n = -9223372036854775807 - 1;")
    with pytest.raises(ArithmeticOverflow):
        elaborate_source("let n = -9223372036854775807 - 2;")


# --------------------------------------------------------------------------
# affine unrolling against the statement interpreter


def outcome(source: str):
    """The circuit, or the first error as (class, line, column, message)."""
    try:
        return elaborate_source(source)
    except ElabError as exc:
        return type(exc), exc.line, exc.column, exc.message


def interpreted(source: str):
    with mock.patch.object(elaborator._Elaborator, "unroll_affine", lambda *args: False):
        return outcome(source)


def assert_gates_are_mcx(*outcomes) -> None:
    # a NamedTuple equals a plain tuple of the same fields, so the equality
    # checks alone would pass gates that lack .controls and .target
    for result in outcomes:
        if not isinstance(result, tuple):
            assert all(type(g) is McxGate for g in result.gates)


LEAVES = [
    *("i", "i", "i", "(i + 1)", "(i - 1)", "(6 - i)", "(2 * i)", "(i * j)", "(i * i)"),
    *("j", "k", "big", "0", "1", "2", "3", "7"),
]
index_exprs = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join).map("({})".format)
    | inner.map("(-{})".format),
    max_leaves=4,
)
operands = st.tuples(st.sampled_from("qqqqrtk"), st.none() | index_exprs).map(
    lambda ref: ref[0] if ref[1] is None else f"{ref[0]}[{ref[1]}]"
)
gates = st.lists(operands, min_size=1, max_size=3).map(
    lambda ops: f"{('X', 'CNOT', 'CCNOT')[len(ops) - 1]}[{', '.join(ops)}];"
)
bounds = st.sampled_from(["-1", "0", "1", "2", "3", "5", "8", "9", "k", "(k + 2)", "(9 - k)"])


@st.composite
def loop_programs(draw) -> str:
    """A loop over gates, maybe nested, around registers that may be
    released or shadowed by a number: both elaboration paths must agree."""
    lines = [
        f"let k = {draw(st.integers(0, 4))};",
        "let big = 4611686018427387904;",
        f"borrow q[{draw(st.integers(1, 8))}];",
        f"borrow r[{draw(st.integers(1, 4))}];",
        "borrow t;",
    ]
    if draw(st.integers(0, 2)) == 0:
        lines.append("release r;")
    body = draw(st.lists(gates, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        body.append("let x = 1;")  # not gates only: the second iteration redefines x
    loop = f"for i = {draw(bounds)} to {draw(bounds)} {{ {' '.join(body)} }}"
    if draw(st.booleans()):
        loop = f"for j = {draw(bounds)} to {draw(bounds)} {{ {loop} }}"
    return "\n".join(lines + [loop, "X[t];"]) + "\n"


@settings(max_examples=300, deadline=None)
@given(source=loop_programs(), steps=st.none() | st.integers(1, 80))
def test_affine_unrolling_matches_the_interpreter(source, steps):
    with mock.patch.object(elaborator, "MAX_UNROLL_STEPS", steps or elaborator.MAX_UNROLL_STEPS):
        fast, slow = outcome(source), interpreted(source)
    assert fast == slow
    assert_gates_are_mcx(fast, slow)


@pytest.mark.parametrize(
    "source",
    [adder_source(n) for n in range(3, 65)]
    + [mcx_source(m) for m in (*range(4, 20), *range(20, 257, 12), 256)],
    ids=lambda source: source.split("\n")[0],
)
def test_benchmark_programs_unroll_as_interpreted(source):
    taken = []
    unroll = elaborator._Elaborator.unroll_affine

    def spy(self, *args):
        taken.append(unroll(self, *args))
        return taken[-1]

    with mock.patch.object(elaborator._Elaborator, "unroll_affine", spy):
        fast = outcome(source)
    assert taken and all(taken)  # every loop of these programs takes the affine path
    slow = interpreted(source)
    assert fast == slow
    assert_gates_are_mcx(fast, slow)


@pytest.mark.parametrize(
    "source, error",
    [
        ("borrow q[5];\nfor i = 1 to 5 {\n  CNOT[q[i], q[6 - i]];\n}", (DuplicateOperand, 3, 3)),
        ("borrow q[5];\nfor i = 3 to 5 {\n  CNOT[q[i], q[6 - i]];\n}", (DuplicateOperand, 3, 3)),
        ("borrow q[5];\nfor i = 1 to 3 {\n  CNOT[q[6 - i], q[i]];\n}", (DuplicateOperand, 3, 3)),
        ("borrow q[4];\nfor i = 4 to 0 {\n  X[q[i]];\n}", (IndexOutOfRange, 3, 5)),
        ("let big = 4611686018427387904;\nborrow q;\nfor i = 1 to 2 { X[q[big * i - big * i + 1]]; }",
         (ArithmeticOverflow, 3, 26)),
        ("let big = 4611686018427387904;\nborrow q;\n"
         "for i = 1 to 2 { X[q[big * i - big * i + 1]]; X[q[2]]; }", (IndexOutOfRange, 3, 49)),
        ("borrow q[2];\nrelease q;\nfor i = 1 to 2 { X[q[i]]; }", (UseAfterRelease, 3, 20)),
    ],
)
def test_loop_errors_come_from_the_failing_iteration(source, error):
    assert outcome(source)[:3] == error
    assert outcome(source) == interpreted(source)


def test_non_affine_index_is_interpreted():
    c = elaborate_source("borrow q[9];\nfor i = 1 to 3 { X[q[i * i]]; }")
    assert dump_gates(c) == "X q.1\nX q.4\nX q.9\n"


def test_printed_gates_re_elaborate_to_equal_gates():
    # perfbench prints mutants from g.controls, g.target and the qubits'
    # .name and .index, as conftest.flat_source does
    for source in (SAFE_CCCNOT_SRC, LEAKY_CCCNOT_SRC, adder_source(8), mcx_source(8)):
        c = elaborate_source(source)
        assert all(isinstance(g, McxGate) for g in c.gates)
        assert elaborate_source(flat_source(c, skip=-1)).gates == c.gates


# --------------------------------------------------------------------------
# idle sets


U5 = frozenset({"q1", "q2", "q3", "q4", "q5"})


def test_idle_skip_is_universe():
    assert idle(Skip(), U5) == U5


def test_idle_init_removes_target():
    assert idle(Init("q3"), U5) == U5 - {"q3"}


def test_idle_unitary_removes_operands():
    assert idle(Unitary(["q1", "q4"]), U5) == {"q2", "q3", "q5"}


def test_idle_seq_intersects():
    s = seq(Unitary(["q1"]), Unitary(["q2"]))
    assert idle(s, U5) == {"q3", "q4", "q5"}


def test_idle_if_removes_measured_and_intersects_branches():
    s = IfMeasure(["q1"], Unitary(["q2"]), Unitary(["q3"]))
    assert idle(s, U5) == {"q4", "q5"}


def test_idle_while_removes_measured():
    s = WhileMeasure(["q1", "q2"], Unitary(["q3"]))
    assert idle(s, U5) == {"q4", "q5"}


def test_idle_borrow_block_is_transparent():
    # the placeholder is not a working qubit; the body's footprint counts
    s = BorrowBlock("a", Unitary(["a", "q2"]))
    assert idle(s, U5) == U5 - {"q2"}


def test_idle_nested_borrow_example():
    inner = seq(
        Unitary(["q4", "q5", "q2"]),
        Unitary(["a2", "q2", "q1"]),
        Unitary(["q4", "q5", "q2"]),
        Unitary(["a2", "q2", "q1"]),
    )
    outer = seq(
        Unitary(["q1", "q2", "a1"]),
        Unitary(["a1", "q4", "q5"]),
        Unitary(["q1", "q2", "a1"]),
        Unitary(["a1", "q4", "q5"]),
        BorrowBlock("a2", inner),
    )
    assert idle(outer, U5) == {"q3"}
    assert idle(inner, U5) == {"q3"}
    whole = seq(Unitary(["q2", "q3"]), BorrowBlock("a1", outer))
    assert idle(whole, U5) == frozenset()


def test_idle_empty_universe():
    assert idle(Unitary(["q1"]), frozenset()) == frozenset()


def test_seq_right_fold():
    s = seq(Unitary(["q1"]))
    assert isinstance(s, Unitary)
    s = seq(Unitary(["q1"]), Unitary(["q2"]), Unitary(["q3"]))
    assert isinstance(s, Seq)
    assert idle(s, U5) == {"q4", "q5"}
    assert isinstance(seq(), Skip)
