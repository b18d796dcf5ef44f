"""Recompute `mutants_expected.json`: exhaustive-oracle verdicts for every
single-gate-deletion mutant that the `mutants` and `cli-small` workloads use.

Run from the root of a checkout:

    python3 perfbench/make_expected.py

It enumerates all 2^19 basis inputs per verified qubit, so it takes a few
minutes; the benchmark only reads the result.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from qborrow import elaborator, oracle  # noqa: E402
from qborrow.elaborator import QubitRole  # noqa: E402

import inputs  # noqa: E402


def main() -> int:
    doc = {}
    for pid, src in inputs.mutant_sources().items():
        c = elaborator.elaborate_source(src)
        doc[pid] = {
            "sha": inputs.sha(src),
            "safe": {q.label: oracle.exhaustive_safe(c, q).safe for q in c.verify_qubits()},
            "skipped": sum(r is QubitRole.BORROW_SKIP for r in c.roles),
        }
        print(pid, file=sys.stderr)
    inputs.EXPECTED_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
