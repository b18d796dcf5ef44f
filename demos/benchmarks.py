#!/usr/bin/env python3
"""Scaling on the two generated benchmark families.

The ripple adder borrows n-1 carry qubits, and the staircase multi-control
decomposition a single ancilla.  In both, every condition folds to `false`
while the circuit is tracked (the adder's carries cancel by common-conjunct
factoring), so no proof reaches the SAT solver and the time shown is
tracking, which grows with the gate count.
"""

import time

from qborrow import elaborate_source, verify_circuit
from qborrow.benchgen import adder_source, mcx_source


def row(kind, source_of, size):
    circuit = elaborate_source(source_of(size))
    t0 = time.perf_counter()
    report = verify_circuit(circuit)
    ms = (time.perf_counter() - t0) * 1e3
    proofs = [v for v in report.verdicts if v.status != "skipped"]
    assert all(v.status == "safe" for v in proofs), [v.status for v in proofs]
    print(
        f"  {kind}({size:2d}): {circuit.n_qubits:3d} qubits "
        f"{len(circuit.gates):4d} gates {len(proofs):2d} proofs "
        f"{ms:8.1f} ms"
    )


def main():
    print("ripple adder, borrowed carries:")
    for n in (8, 16, 32):
        row("adder", adder_source, n)

    print("multi-control decomposition, one borrowed ancilla:")
    for m in (4, 8, 16, 50):
        row("mcx", mcx_source, m)

    print("\nsame thing from the command line:")
    print("  qborrow gen adder --size 16 -o adder16.qbr")
    print("  qborrow verify adder16.qbr --report report.json")
    print("  qborrow bench adder --sizes 8,16,32")


if __name__ == "__main__":
    main()
