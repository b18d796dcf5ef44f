#!/usr/bin/env python3
"""Ground truth at small sizes: permutations, statevectors, restoration.

Everything here is brute force on purpose. The solver path never feeds the
oracle path, so agreement between the two means something.
"""

import numpy as np

from qborrow import elaborate_source
from qborrow.oracle import (
    FIVE_STATES,
    check_bell_preservation,
    check_state_restoration,
    exhaustive_safe,
    permutation,
    reduced_density,
    simulate_statevector,
)

SRC = """\
borrow@ q1; borrow@ q2; borrow a; borrow@ q4; borrow@ q5;
CCNOT[q1, q2, a];
CCNOT[a, q4, q5];
CCNOT[q1, q2, a];
release a;
"""


def main():
    c = elaborate_source(SRC)
    n = c.n_qubits
    a = c.qubit("a")

    print("basis permutation (inputs where the circuit acts nontrivially):")
    perm = permutation(c)
    for x in range(1 << n):
        if perm[x] != x:
            print(f"  |{x:0{n}b}> -> |{perm[x]:0{n}b}>")

    verdict = exhaustive_safe(c, a)
    print(f"\nexhaustive check of a: {verdict!r}")

    print("\nrestoration of a, initial state by initial state:")
    for name, phi in FIVE_STATES.items():
        ok = check_state_restoration(c, a, phi)
        print(f"  {name:7s}: {'restored' if ok else 'NOT restored'}")
    print(f"  bell   : {'preserved' if check_bell_preservation(c, a) else 'NOT preserved'}")

    # the |+> failure, concretely: put a in |+>, everything else in |1>,
    # and watch a's reduced state decohere
    psi = np.zeros(1 << n, dtype=complex)
    plus_on_a = [(x, 1 / np.sqrt(2)) for x in range(1 << n)
                 if all((x >> (n - 1 - i)) & 1 for i in range(n) if i != a.gid)]
    for x, amp in plus_on_a:
        psi[x] = amp
    out = simulate_statevector(c, psi)
    rho = reduced_density(out, [a])
    print("\nreduced state of a afterwards (off-diagonals gone):")
    print(np.array_str(rho, precision=3, suppress_small=True))


if __name__ == "__main__":
    main()
