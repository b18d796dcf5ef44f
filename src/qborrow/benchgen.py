"""Generators for the two bundled benchmark programs.

Both emit a fixed program text with only the size constant substituted, so
generated files are stable inputs for benchmarking and regression diffs.
"""

from .errors import UsageError

# Carry-ripple incrementer on q[1..n] using the dirty helpers a[1..n-1];
# the second half mirrors the first to uncompute them.
_ADDER = """\
// adder.qbr
let n = {n};        // number of qubits
borrow@ q[n];      // skip verification
borrow a[n - 1];   // dirty qubits
CNOT[a[n - 1], q[n]];
for i = (n - 1) to 2 {{
    CNOT[q[i], a[i]];
    X[q[i]];
    CCNOT[a[i - 1], q[i], a[i]];
}}
CNOT[q[1], a[1]];
for i = 2 to (n - 1) {{
    CCNOT[a[i - 1], q[i], a[i]];
}}
CNOT[a[n - 1], q[n]];
X[q[n]];

// reverse the circuit to uncompute
for i = (n - 1) to 2 {{
    CCNOT[a[i - 1], q[i], a[i]];
}}
CNOT[q[1], a[1]];
for i = 2 to (n - 1) {{
    CCNOT[a[i - 1], q[i], a[i]];
    X[q[i]];
    CNOT[q[i], a[i]];
}}
release a;
release q;
"""

# m-controlled NOT on controls q[1..m] (spread over q[1..n] with the odd
# slots as controls), target t, built from Toffolis with one dirty ancilla.
_MCX = """\
// mcx.qbr
let m = {m};
let n = m + (m - 1); // n-controlled NOT gate

borrow@ q[n];
borrow@ t;

borrow anc;

// first part
CCNOT[q[n - 1], q[n], anc];

for i = (m - 2) to 2 {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

CCNOT[q[1], q[3], q[4]];

for i = 2 to (m - 2) {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

CCNOT[q[n - 1], q[n], anc];

for i = (m - 2) to 2 {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

CCNOT[q[1], q[3], q[4]];

for i = 2 to (m - 2) {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

// second part

CCNOT[q[n], anc, t];

for i = (m - 1) to 3 {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}

CCNOT[q[2], q[4], q[5]];

for i = 3 to (m - 1) {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}

CCNOT[q[n], anc, t];

for i = (m - 1) to 3 {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}

CCNOT[q[2], q[4], q[5]];

for i = 3 to (m - 1) {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}

// third part

CCNOT[q[n - 1], q[n], anc];

for i = (m - 2) to 2 {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

CCNOT[q[1], q[3], q[4]];

for i = 2 to (m - 2) {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

CCNOT[q[n - 1], q[n], anc];

for i = (m - 2) to 2 {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

CCNOT[q[1], q[3], q[4]];

for i = 2 to (m - 2) {{
    CCNOT[q[2 * i - 1], q[2 * i + 1], q[2 * i + 2]];
}}

// fourth part

CCNOT[q[n], anc, t];

for i = (m - 1) to 3 {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}

CCNOT[q[2], q[4], q[5]];

for i = 3 to (m - 1) {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}

CCNOT[q[n], anc, t];

release anc;

for i = (m - 1) to 3 {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}

CCNOT[q[2], q[4], q[5]];

for i = 3 to (m - 1) {{
    CCNOT[q[2 * i - 1], q[2 * i], q[2 * i + 1]];
}}
release t;
release q;
"""


def adder_source(n: int) -> str:
    # n = 2 would index a[0] and a[2] in a register of size 1
    if n < 3:
        raise UsageError(f"size out of range: adder needs n >= 3, got {n}")
    return _ADDER.format(n=n)


def mcx_source(m: int) -> str:
    # m < 4 degenerates the ladder loops into overlapping special cases
    if m < 4:
        raise UsageError(f"size out of range: mcx needs m >= 4, got {m}")
    return _MCX.format(m=m)


def generate(kind: str, size: int) -> str:
    if kind == "adder":
        return adder_source(size)
    if kind == "mcx":
        return mcx_source(size)
    raise UsageError(f"unknown benchmark kind: {kind!r}")


def adder_gate_count(n: int) -> int:
    return 8 * (n - 2) + 5


def mcx_gate_count(m: int) -> int:
    return 16 * (m - 2)
