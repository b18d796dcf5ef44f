import random
import sys
from pathlib import Path

import pytest

from qborrow import elaborate_source
from qborrow.elaborator import FlatCircuit

# One-line description per acceptance criterion, used by the summary hook.
CRITERIA = {
    1: "four-Toffoli CCCNOT verifies Safe and matches exhaustive enumeration",
    2: "three-Toffoli circuit restores |0> but is unsafe via cond2 with witness q4=1",
    3: "gate-by-gate formula tracking reproduces the expected table rows",
    4: "SAT verdicts match exhaustive enumeration on the 200-circuit corpus",
    5: "restoration and Bell checks all agree with enumeration on the corpus",
    6: "adder verifies all dirty qubits Safe at n in {8,16,32}, oracle-checked at n=8",
    7: "mcx verifies the ancilla Safe at m in {4,8,16,50} with exactly 16(m-2) gates",
    8: "idle-set computation passes the structural table suite",
    9: "solver agrees with truth tables on 1000 random formulas",
    10: "emitted SMT-LIB2 scripts get identical verdicts from an external solver",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                num = int(nodeid.split("test_criterion_")[1].split("_")[0])
                # a failed call wins over a passed setup for the same test
                if results.get(num) != "failed":
                    results[num] = "failed" if status == "error" else status
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    labels = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for num in sorted(results):
        line = f"criterion {num:2d}: {labels[results[num]]} - {CRITERIA[num]}"
        terminalreporter.write_line(line)


# --------------------------------------------------------------------------
# shared circuits


# CCCNOT from four Toffolis with one dirty helper a: safe for a.
SAFE_CCCNOT_SRC = """\
borrow@ q[3];
borrow@ t;
borrow a;
CCNOT[q[1], q[2], a];
CCNOT[a, q[3], t];
CCNOT[q[1], q[2], a];
CCNOT[a, q[3], t];
release a;
release t;
release q;
"""

# Dropping the final Toffoli: a itself is restored in the computational
# basis, but q5 picks up a dependence on a (through the q4 control).
LEAKY_CCCNOT_SRC = """\
borrow@ q1;
borrow@ q2;
borrow a;
borrow@ q4;
borrow@ q5;
CCNOT[q1, q2, a];
CCNOT[a, q4, q5];
CCNOT[q1, q2, a];
"""


def store_nodes(store) -> list:
    """Every node a BoolStore has interned."""
    return [node for table in store._table.values() for node in table.values()]


def ring_source(k: int) -> str:
    """Three qubits put through k rounds of three Toffolis: `a` is Safe
    when 4 divides k, and its formulas are small DAGs that share subterms
    heavily."""
    return (
        f"borrow a;\nborrow@ b;\nborrow@ c;\nfor i = 1 to {k} {{\n"
        "  CCNOT[b, c, a];\n  CCNOT[c, a, b];\n  CCNOT[a, b, c];\n}\n"
        "release a;\nrelease b;\nrelease c;\n"
    )


# the SMT-LIB2 solver shim as a `cmd:` solver argv (it needs sympy)
SHIM = [sys.executable, str(Path(__file__).with_name("smt_shim.py"))]


@pytest.fixture(scope="session")
def safe_circuit():
    return elaborate_source(SAFE_CCCNOT_SRC)


@pytest.fixture(scope="session")
def leaky_circuit():
    return elaborate_source(LEAKY_CCCNOT_SRC)


# --------------------------------------------------------------------------
# random circuit corpus (shared by the enumeration-agreement criteria)


def random_program(rng: random.Random, n_qubits: int, n_gates: int) -> str:
    lines = [f"borrow q[{n_qubits}];"]
    for _ in range(n_gates):
        arity = min(rng.randint(1, 3), n_qubits)
        ops = rng.sample(range(1, n_qubits + 1), arity)
        if arity == 1:
            lines.append(f"X[q[{ops[0]}]];")
        elif arity == 2:
            lines.append(f"CNOT[q[{ops[0]}], q[{ops[1]}]];")
        else:
            lines.append(f"CCNOT[q[{ops[0]}], q[{ops[1]}], q[{ops[2]}]];")
    lines.append("release q;")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def corpus():
    """200 random circuits, up to 8 qubits and 40 gates, via the full
    source -> parse -> elaborate pipeline."""
    rng = random.Random(0xD1E7)
    circuits = []
    for _ in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(1, 40)
        circuits.append(elaborate_source(random_program(rng, n, m)))
    return circuits


# --------------------------------------------------------------------------
# single-gate-deletion mutants


def flat_source(c: FlatCircuit, skip: int) -> str:
    """The elaborated circuit as a loop-free program without gate `skip`."""
    indexed = {r.name: r.indexed for r in c.registers}

    def ref(q) -> str:
        return f"{q.name}[{q.index}]" if indexed[q.name] else q.name

    lines = [
        f"{r.role.value} {r.name}[{r.size}];" if r.indexed else f"{r.role.value} {r.name};"
        for r in c.registers
    ]
    for i, g in enumerate(c.gates):
        if i != skip:
            ops = [*g.controls, g.target]
            lines.append(f"{('X', 'CNOT', 'CCNOT')[len(ops) - 1]}[{', '.join(map(ref, ops))}];")
    lines += [f"release {r.name};" for r in c.registers]
    return "\n".join(lines) + "\n"


def mutant_sources(source: str) -> list[str]:
    c = elaborate_source(source)
    return [flat_source(c, i) for i in range(len(c.gates))]
