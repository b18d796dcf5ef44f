import time

import pytest

from qborrow import elaborate_source
from qborrow.elaborator import (
    ArithmeticOverflow,
    BorrowBlock,
    DuplicateOperand,
    ElabLimitExceeded,
    IfMeasure,
    IndexOutOfRange,
    Init,
    McxGate,
    NonPositiveSize,
    QubitRole,
    RedeclaredRegister,
    RedefinedName,
    Seq,
    Skip,
    UnboundIdentifier,
    Unitary,
    UseAfterRelease,
    WhileMeasure,
    dump_gates,
    idle,
    loop_range,
    seq,
)


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
