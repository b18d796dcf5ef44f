import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborrow import elaborate_source
from qborrow.benchgen import adder_source, mcx_source
from qborrow.elaborator import QubitId, apply_classical
from qborrow.oracle import (
    BELL_CAP,
    EXHAUSTIVE_CAP,
    FIVE_STATES,
    RESTORE_CAP,
    STATE_MINUS,
    STATE_PLUS,
    STATE_PLUS_I,
    STATE_ZERO,
    OracleVerdict,
    TooManyQubits,
    check_bell_preservation,
    check_state_restoration,
    exhaustive_safe,
    pack_basis,
    permutation,
    reduced_density,
    simulate_statevector,
    unpack_basis,
)
from qborrow.verify import exact_safe, verify_circuit, witness_violates

from conftest import mutant_sources, random_program


def bell_projector() -> np.ndarray:
    """|Phi><Phi| for |Phi> = (|00> + |11>)/sqrt(2)."""
    phi = np.zeros(4, dtype=np.complex128)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return np.outer(phi, phi.conj())


# --------------------------------------------------------------------------
# classical semantics


def test_apply_x():
    c = elaborate_source("borrow q[2];\nX[q[1]];")
    assert apply_classical(c, (0, 0)) == (1, 0)
    assert apply_classical(c, (1, 1)) == (0, 1)


def test_apply_cnot_truth_table():
    c = elaborate_source("borrow q[2];\nCNOT[q[1], q[2]];")
    table = {x: apply_classical(c, x) for x in itertools.product([0, 1], repeat=2)}
    assert table == {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)}


def test_apply_ccnot_truth_table():
    c = elaborate_source("borrow q[3];\nCCNOT[q[1], q[2], q[3]];")
    for x in itertools.product([0, 1], repeat=3):
        y = apply_classical(c, x)
        flip = x[0] and x[1]
        assert y == (x[0], x[1], x[2] ^ flip)


def test_apply_wrong_width():
    c = elaborate_source("borrow q[2];\nX[q[1]];")
    with pytest.raises(ValueError):
        apply_classical(c, (0, 0, 0))


# --------------------------------------------------------------------------
# index packing


def test_pack_is_big_endian():
    assert pack_basis((1, 0, 0)) == 4
    assert pack_basis((0, 0, 1)) == 1
    assert unpack_basis(4, 3) == (1, 0, 0)


def test_pack_unpack_round_trip():
    for n in (1, 3, 5):
        for i in range(1 << n):
            assert pack_basis(unpack_basis(i, n)) == i


def test_integer_order_is_lex_order():
    tuples = [unpack_basis(i, 3) for i in range(8)]
    assert tuples == sorted(tuples)


def test_permutation_matches_apply_classical():
    rng = random.Random(99)
    for _ in range(20):
        c = elaborate_source(random_program(rng, rng.randint(2, 6), rng.randint(1, 25)))
        values = permutation(c)
        n = c.n_qubits
        # bijection
        assert sorted(values.tolist()) == list(range(1 << n))
        for i in range(1 << n):
            assert values[i] == pack_basis(apply_classical(c, unpack_basis(i, n)))


# --------------------------------------------------------------------------
# exhaustive safety


def test_safe_four_toffoli(safe_circuit):
    assert exhaustive_safe(safe_circuit, safe_circuit.qubit("a")) == OracleVerdict(True)


def test_unsafe_three_toffoli(leaky_circuit):
    verdict = exhaustive_safe(leaky_circuit, leaky_circuit.qubit("a"))
    assert not verdict.safe
    assert verdict.witness == (0, 0, 0, 1, 0)  # q4 set, everything else clear


def test_witness_is_lex_smallest():
    c = elaborate_source("borrow q[2];\nCNOT[q[1], q[2]];")
    verdict = exhaustive_safe(c, c.qubit("q", 1))
    assert verdict.witness == (0, 0)


def test_identity_circuit_safe_everywhere():
    c = elaborate_source("borrow q[3];\nX[q[1]];\nX[q[1]];")
    for q in c.qubits:
        assert exhaustive_safe(c, q).safe


def test_x_gate_unsafe_for_its_target():
    c = elaborate_source("borrow q[2];\nX[q[2]];")
    assert exhaustive_safe(c, c.qubit("q", 1)).safe
    v = exhaustive_safe(c, c.qubit("q", 2))
    assert not v.safe and v.witness == (0, 0)


def test_exhaustive_cap():
    src = "borrow q[21];\nX[q[1]];"
    c = elaborate_source(src)
    with pytest.raises(TooManyQubits):
        exhaustive_safe(c, c.qubit("q", 1))
    with pytest.raises(ValueError):
        exact_safe(c, c.qubit("q", 1))
    assert EXHAUSTIVE_CAP == 20


def lowest_violating(c, q, mask):
    """The lex-smallest input in exact_safe's mask: bit v * 2^(n-1) + e has
    q = v and the other qubits spelling e."""
    m = 1 << (c.n_qubits - 1)
    inputs = []
    for v, bits in ((0, mask & ((1 << m) - 1)), (1, mask >> m)):
        if bits:  # with q fixed, the lowest e is the lex-smallest input
            env = list(unpack_basis((bits & -bits).bit_length() - 1, c.n_qubits - 1))
            inputs.append(tuple(env[: q.gid] + [v] + env[q.gid :]))
    return min(inputs)


def assert_exact_matches_oracle(c, qubits):
    for q in qubits:
        truth, mask = exhaustive_safe(c, q), exact_safe(c, q)
        assert truth.safe == (mask == 0), q
        if mask:
            assert lowest_violating(c, q, mask) == truth.witness, q


def test_exact_check_matches_oracle_on_corpus(corpus):
    for c in corpus:
        assert_exact_matches_oracle(c, c.qubits)


@pytest.mark.parametrize("source", [adder_source(8), mcx_source(6)], ids=["adder8", "mcx6"])
def test_exact_check_matches_oracle_on_mutants(source):
    for mutant in mutant_sources(source):
        c = elaborate_source(mutant)
        assert_exact_matches_oracle(c, c.verify_qubits())


def test_clean_qubits_start_at_zero():
    # tracking starts an alloc qubit at 0, so its 1 inputs are no counterexample
    c = elaborate_source("alloc c;\nborrow a;\nborrow@ t;\nCCNOT[c, a, t];\n")
    a = c.qubit("a")
    assert verify_circuit(c).verdicts[0].status == "safe"
    assert exact_safe(c, a) == 0
    assert exhaustive_safe(c, a).safe


@st.composite
def source_programs(draw) -> str:
    """A program of 1 to 5 registers of 1 to 3 qubits, each borrow, borrow@
    or alloc and sized by a `let`, and up to 8 gates and `for` loops that
    count up or down; a loop's gates may index by its variable any register
    wide enough for its range."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    n = len(sizes)
    roles = draw(st.lists(st.sampled_from(["borrow", "borrow@", "alloc"]), min_size=n, max_size=n))
    indexed = [size > 1 or draw(st.booleans()) for size in sizes]
    lines = []
    for r, (size, role) in enumerate(zip(sizes, roles)):
        if indexed[r]:
            lines += [f"let s{r} = {size};", f"{role} r{r}[s{r}];"]
        else:
            lines.append(f"{role} r{r};")

    def gate(loop_top: int) -> str:
        regs = draw(st.permutations(range(n)))[: draw(st.integers(1, min(3, n)))]
        ops = []
        for r in regs:
            if not indexed[r]:
                ops.append(f"r{r}")
                continue
            index = [str(i) for i in range(1, sizes[r] + 1)] + [f"s{r}"]
            if sizes[r] >= loop_top > 0:
                index.append("i")
            ops.append(f"r{r}[{draw(st.sampled_from(index))}]")
        return f"{('X', 'CNOT', 'CCNOT')[len(ops) - 1]}[{', '.join(ops)}];"

    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            lines.append(gate(0))
            continue
        lo, hi = sorted(draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)))
        start, stop = (lo, hi) if draw(st.booleans()) else (hi, lo)
        body = [gate(hi) for _ in range(draw(st.integers(1, 3)))]
        lines += [f"for i = {start} to {stop} {{", *body, "}"]
    lines += [f"release r{r};" for r in range(n)]
    return "\n".join(lines) + "\n"


ORACLE_QUBITS = 12  # the numpy oracle enumerates 2^n inputs


@settings(max_examples=300, deadline=None)
@given(source_programs())
def test_verdicts_match_enumeration_on_source_programs(source):
    c = elaborate_source(source)
    by_label = {q.label: q for q in c.qubits}
    for v in verify_circuit(c).verdicts:
        if v.status not in ("safe", "unsafe"):
            continue
        q = by_label[v.qubit]
        safe = v.status == "safe"
        assert (exact_safe(c, q) == 0) == safe, v
        if c.n_qubits <= ORACLE_QUBITS:
            assert exhaustive_safe(c, q).safe == safe, v
        if not safe:
            assert witness_violates(c, q, v.witness, v.violated), v


# --------------------------------------------------------------------------
# statevector simulation


def test_simulate_permutes_amplitudes():
    c = elaborate_source("borrow q[2];\nCNOT[q[1], q[2]];")
    psi = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.complex128)
    out = simulate_statevector(c, psi)
    # |10> -> |11>, |11> -> |10>
    assert np.allclose(out, [0.1, 0.2, 0.4, 0.3])


def test_simulate_preserves_norm():
    rng = np.random.default_rng(7)
    c = elaborate_source("borrow q[3];\nCCNOT[q[1], q[2], q[3]];\nX[q[2]];")
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    out = simulate_statevector(c, psi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_simulate_cap():
    c = elaborate_source("borrow q[15];\nX[q[1]];")
    with pytest.raises(TooManyQubits):
        simulate_statevector(c, np.zeros(1 << 15))


# --------------------------------------------------------------------------
# reduced density matrices


def q_at(gid, n):
    return QubitId("q", gid + 1, gid, f"q.{gid+1}")


def test_reduced_density_product_state():
    # |0> (x) |+> : qubit 0 is pure |0>, qubit 1 is pure |+>
    psi = np.array([1, 1, 0, 0], dtype=np.complex128) / np.sqrt(2)
    rho0 = reduced_density(psi, [q_at(0, 2)])
    assert np.allclose(rho0, [[1, 0], [0, 0]])
    rho1 = reduced_density(psi, [q_at(1, 2)])
    assert np.allclose(rho1, [[0.5, 0.5], [0.5, 0.5]])


def test_reduced_density_bell_marginals():
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    for gid in (0, 1):
        rho = reduced_density(psi, [q_at(gid, 2)])
        assert np.allclose(rho, np.eye(2) / 2)  # maximally mixed
    both = reduced_density(psi, [q_at(0, 2), q_at(1, 2)])
    assert np.allclose(both, bell_projector())
    # rank-1 projector
    eigs = np.linalg.eigvalsh(both)
    assert np.allclose(sorted(eigs), [0, 0, 0, 1])


def test_reduced_density_subset_order():
    # |01>: qubit 0 is |0>, qubit 1 is |1>; order of the subset matters
    psi = np.array([0, 1, 0, 0], dtype=np.complex128)
    rho = reduced_density(psi, [q_at(1, 2), q_at(0, 2)])
    expect = np.zeros((4, 4))
    expect[2, 2] = 1  # |1>|0> in subset order
    assert np.allclose(rho, expect)


def test_reduced_density_bad_subset():
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = 1
    with pytest.raises(ValueError):
        reduced_density(psi, [])
    with pytest.raises(ValueError):
        reduced_density(psi, [q_at(0, 2), q_at(1, 2), q_at(0, 2)])


# --------------------------------------------------------------------------
# restoration and Bell checks


def test_empty_circuit_restores_everything():
    c = elaborate_source("borrow q[2];\nX[q[2]];\nX[q[2]];")
    q1 = c.qubit("q", 1)
    for phi in FIVE_STATES.values():
        assert check_state_restoration(c, q1, phi)
    assert check_bell_preservation(c, q1)


def test_x_breaks_zero_but_not_plus():
    # X on the qubit itself: |0> goes to |1>, but |+> is an eigenstate
    c = elaborate_source("borrow q[2];\nX[q[1]];")
    q1 = c.qubit("q", 1)
    assert not check_state_restoration(c, q1, STATE_ZERO)
    assert check_state_restoration(c, q1, STATE_PLUS)
    assert check_state_restoration(c, q1, STATE_MINUS)
    assert not check_state_restoration(c, q1, STATE_PLUS_I)
    assert not check_bell_preservation(c, q1)


def test_cnot_control_restores_basis_but_not_plus(leaky_circuit):
    a = leaky_circuit.qubit("a")
    assert check_state_restoration(leaky_circuit, a, STATE_ZERO)
    assert not check_state_restoration(leaky_circuit, a, STATE_PLUS)
    assert not check_bell_preservation(leaky_circuit, a)


def test_safe_circuit_passes_all_checks(safe_circuit):
    a = safe_circuit.qubit("a")
    for phi in FIVE_STATES.values():
        assert check_state_restoration(safe_circuit, a, phi)
    assert check_bell_preservation(safe_circuit, a)


def test_restoration_requires_normalized_state():
    c = elaborate_source("borrow q;\nX[q];")
    with pytest.raises(ValueError):
        check_state_restoration(c, c.qubit("q"), (1.0, 1.0))


def test_restoration_and_bell_caps():
    c = elaborate_source(f"borrow q[{RESTORE_CAP + 1}];\nX[q[1]];")
    with pytest.raises(TooManyQubits):
        check_state_restoration(c, c.qubit("q", 1), STATE_ZERO)
    c = elaborate_source(f"borrow q[{BELL_CAP + 1}];\nX[q[1]];")
    with pytest.raises(TooManyQubits):
        check_bell_preservation(c, c.qubit("q", 1))


# --------------------------------------------------------------------------
# cross-validation against the generic simulate-and-reduce path


def naive_restoration(c, q, phi):
    """Reference implementation straight from the definition."""
    n = c.n_qubits
    phi = np.asarray(phi, dtype=np.complex128)
    target = np.outer(phi, phi.conj())
    others = [i for i in range(n) if i != q.gid]
    for env in itertools.product([0, 1], repeat=n - 1):
        psi = np.zeros(1 << n, dtype=np.complex128)
        for qbit in (0, 1):
            bits = [0] * n
            for pos, val in zip(others, env):
                bits[pos] = val
            bits[q.gid] = qbit
            psi[pack_basis(tuple(bits))] = phi[qbit]
        out = simulate_statevector(c, psi)
        rho = reduced_density(out, [q])
        if not np.allclose(rho, target, atol=1e-9):
            return False
    return True


def naive_bell(c, q):
    """Reference: simulate the circuit with an explicit extra partner qubit."""
    n = c.n_qubits
    values = permutation(c)
    partner = QubitId("partner", 1, n, "partner")
    others = [i for i in range(n) if i != q.gid]
    amp = 1 / np.sqrt(2)
    for env in itertools.product([0, 1], repeat=n - 1):
        psi = np.zeros(1 << (n + 1), dtype=np.complex128)
        for qbit in (0, 1):
            bits = [0] * n
            for pos, val in zip(others, env):
                bits[pos] = val
            bits[q.gid] = qbit
            psi[(pack_basis(tuple(bits)) << 1) | qbit] = amp
        out = np.zeros_like(psi)
        for i in range(1 << (n + 1)):
            out[(values[i >> 1] << 1) | (i & 1)] = psi[i]
        rho = reduced_density(out, [q, partner])
        if not np.allclose(rho, bell_projector(), atol=1e-9):
            return False
    return True


def test_restoration_matches_naive_path():
    rng = random.Random(4242)
    for _ in range(15):
        c = elaborate_source(random_program(rng, rng.randint(2, 5), rng.randint(1, 15)))
        for q in c.qubits:
            for phi in (STATE_ZERO, STATE_PLUS, STATE_PLUS_I):
                assert check_state_restoration(c, q, phi) == naive_restoration(c, q, phi)


def test_bell_matches_naive_path():
    rng = random.Random(2424)
    for _ in range(15):
        c = elaborate_source(random_program(rng, rng.randint(2, 5), rng.randint(1, 15)))
        for q in c.qubits:
            assert check_bell_preservation(c, q) == naive_bell(c, q)


def test_restoration_and_bell_hold_clean_qubits_at_zero():
    # c starts at |0>, so the Toffoli never fires and `a` is untouched
    c = elaborate_source("alloc c;\nborrow a;\nborrow@ t;\nCCNOT[c, a, t];\n")
    a = c.qubit("a")
    assert verify_circuit(c).verdicts[0].status == "safe"
    assert not exact_safe(c, a)
    assert exhaustive_safe(c, a).safe
    for phi in FIVE_STATES.values():
        assert check_state_restoration(c, a, phi)
    assert check_bell_preservation(c, a)
