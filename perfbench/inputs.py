"""Seeded inputs and their expected answers for the four workloads.

Importing this module imports qborrow, so the caller must have put the
checkout's `src/` on `sys.path` first (see `worker.py`).

Every program is handed to qborrow as source text.  Expected answers never
come from the SAT path under test:

  * adder / mcx: every verified qubit is Safe by construction, and the gate
    count follows the generator's closed formula;
  * mutants: verdicts from `oracle.exhaustive_safe`, computed once and cached
    in `mutants_expected.json` (regenerate with `make_expected.py`);
  * cli-small: exit code and summary counts of hand-checked files, plus the
    mutant cache.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from qborrow import benchgen, elaborator

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "mutants_expected.json"

# Each pass verifies every size listed, in an order the seed shuffles.  The
# sizes are fixed so that runs with different seeds measure the same work:
# on a machine whose speed drifts by 20% over seconds, a seeded size draw
# added more spread than the bounds allow.  Sizes repeat where p50 and p90
# over the programs fall (16 and 24 for adder, 512 and 1024 for mcx), so
# those percentiles do not interpolate between two sizes.
ADDER_SIZES = (
    12, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 18, 19, 20, 21, 22, 24, 24, 28,
)
MCX_SIZES = (64, 128, 192, 256, 384, 512, 512, 512, 640, 768, 1024, 1024, 1024)
SMOKE_SIZES = {"adder": 12, "mcx": 64}

# every single-gate-deletion mutant of these two programs
MUTANT_BASES = (("adder", 10), ("mcx", 9))

# Hand-checked small programs for the CLI workload.
LEAKY_SRC = """\
borrow@ q1;
borrow@ q2;
borrow a;
borrow@ q4;
borrow@ q5;
CCNOT[q1, q2, a];
CCNOT[a, q4, q5];
CCNOT[q1, q2, a];
"""

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

# each is a parse or lexing error, so `verify` must exit 2
MALFORMED_SRCS = (
    "borrow a[;\n",
    "borrow a;\nCCNOT[a, a];\n",
    "borrow @ a;\nX[a];\n",
    "borrow a;\nX[a];\n/* never closed\n",
)


@dataclass
class Program:
    pid: str
    source: str
    # verified-qubit label -> expected to be Safe
    safe: dict[str, bool] = field(default_factory=dict)
    gates: int | None = None  # expected gate count, when known
    exit_code: int | None = None  # cli-small only
    skipped: int = 0  # borrow@ qubits, reported as Skipped

    @property
    def summary(self) -> str:
        """The CLI's summary line up to the timing suffix."""
        n_safe = sum(self.safe.values())
        return (
            f"{n_safe} safe, {len(self.safe) - n_safe} unsafe, "
            f"{self.skipped} skipped, 0 unknown"
        )


class StaleExpected(RuntimeError):
    pass


def flat_source(c: elaborator.FlatCircuit, skip: int | None = None) -> str:
    """Print an elaborated circuit as a loop-free program, minus gate `skip`."""
    indexed = {r.name: r.indexed for r in c.registers}

    def ref(q) -> str:
        return f"{q.name}[{q.index}]" if indexed[q.name] else q.name

    lines = [
        f"{r.role.value} {r.name}[{r.size}];" if r.indexed else f"{r.role.value} {r.name};"
        for r in c.registers
    ]
    for i, g in enumerate(c.gates):
        if i == skip:
            continue
        ops = [*getattr(g, "controls", ()), g.target]
        lines.append(f"{('X', 'CNOT', 'CCNOT')[len(ops) - 1]}[{', '.join(map(ref, ops))}];")
    lines += [f"release {r.name};" for r in c.registers]
    return "\n".join(lines) + "\n"


def mutant_sources() -> dict[str, str]:
    out = {}
    for kind, size in MUTANT_BASES:
        c = elaborator.elaborate_source(benchgen.generate(kind, size))
        for i in range(len(c.gates)):
            out[f"{kind}{size}-del{i}"] = flat_source(c, skip=i)
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_mutants() -> list[Program]:
    """All mutants with oracle verdicts; refuses a cache that no longer
    matches the generated text."""
    cache = json.loads(EXPECTED_FILE.read_text())
    sources = mutant_sources()
    if set(cache) != set(sources):
        raise StaleExpected(f"{EXPECTED_FILE.name} lists other mutants; rerun make_expected.py")
    programs = []
    for pid, src in sources.items():
        entry = cache[pid]
        if entry["sha"] != sha(src):
            raise StaleExpected(f"{pid}: source changed since {EXPECTED_FILE.name}; rerun make_expected.py")
        programs.append(Program(pid, src, dict(entry["safe"]), skipped=entry["skipped"]))
    return programs


def _adder(n: int, k: int) -> Program:
    return Program(
        f"adder{n}#{k}",
        benchgen.adder_source(n),
        {f"a.{i}": True for i in range(1, n)},
        gates=benchgen.adder_gate_count(n),
        skipped=n,
    )


def _mcx(m: int, k: int) -> Program:
    return Program(
        f"mcx{m}#{k}",
        benchgen.mcx_source(m),
        {"anc": True},
        gates=benchgen.mcx_gate_count(m),
        skipped=2 * m,
    )


def make_inputs(workload: str, seed: int, smoke: bool = False) -> list[Program]:
    """The program set of one pass, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "adder":
        sizes = [SMOKE_SIZES["adder"]] if smoke else ADDER_SIZES
        programs = [_adder(n, k) for k, n in enumerate(sizes)]
    elif workload == "mcx":
        sizes = [SMOKE_SIZES["mcx"]] if smoke else MCX_SIZES
        programs = [_mcx(m, k) for k, m in enumerate(sizes)]
    elif workload == "mutants":
        programs = load_mutants()
        if smoke:
            programs = programs[:: max(1, len(programs) // 12)]
    elif workload == "cli-small":
        programs = _cli_programs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(programs)
    return programs


def _cli_programs(rng: random.Random) -> list[Program]:
    unsafe = [p for p in load_mutants() if not all(p.safe.values())]
    picked = rng.sample(unsafe, 2)
    adder, mcx = _adder(8, 0), _mcx(8, 0)
    programs = [
        Program("leaky", LEAKY_SRC, {"a": False}, exit_code=1, skipped=4),
        Program("cccnot", SAFE_CCCNOT_SRC, {"a": True}, exit_code=0, skipped=4),
        Program("adder8", adder.source, adder.safe, exit_code=0, skipped=adder.skipped),
        Program("mcx8", mcx.source, mcx.safe, exit_code=0, skipped=mcx.skipped),
        *(Program(p.pid, p.source, p.safe, exit_code=1, skipped=p.skipped) for p in picked),
        Program("malformed", rng.choice(MALFORMED_SRCS), exit_code=2),
    ]
    return programs
