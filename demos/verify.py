#!/usr/bin/env python3
"""End-to-end verification with machine-readable reports.

Runs the checker on a safe and an unsafe program, prints the per-qubit
verdicts, and replays the counterexample through the classical semantics to
show the witness is real.
"""

import json

from qborrow import elaborate_source, verify_circuit
from qborrow.elaborator import apply_classical
from qborrow.verify import witness_violates

SAFE = """\
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

LEAKY = """\
borrow@ q1; borrow@ q2; borrow a; borrow@ q4; borrow@ q5;
CCNOT[q1, q2, a];
CCNOT[a, q4, q5];
CCNOT[q1, q2, a];
release a;
"""


def run(src, title):
    print(f"== {title} ==")
    circuit = elaborate_source(src)
    report = verify_circuit(circuit, program=title)
    for v in report.verdicts:
        line = f"  {v.qubit}: {v.status}"
        if v.status == "unsafe":
            line += f" via {v.violated}, witness {v.witness}"
        print(line)
    return circuit, report


def main():
    run(SAFE, "cccnot")
    circuit, report = run(LEAKY, "leaky")

    bad = next(v for v in report.verdicts if v.status == "unsafe")
    print(f"\nreplaying the witness for {bad.qubit}:")
    name, _, idx = bad.qubit.partition(".")
    q = circuit.qubit(name, int(idx) if idx else 1)
    assert witness_violates(circuit, q, bad.witness, bad.violated)

    # spell the replay out: with q4 = 1, toggling the initial a flips the
    # output of q5, a qubit the borrower never promised to touch
    base = {qb.label: 0 for qb in circuit.qubits}
    base.update({k: int(v) for k, v in bad.witness.items()})
    for a_val in (0, 1):
        bits = [base[qb.label] for qb in circuit.qubits]
        bits[q.gid] = a_val
        out = apply_classical(circuit, tuple(bits))
        print(f"  a={a_val}: in={tuple(bits)} out={out}")

    print("\nreport as json (timings vary run to run):")
    doc = report.to_dict()
    doc["total_ms"] = "..."
    for v in doc["verdicts"]:
        v["solve_ms"] = "..."
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
