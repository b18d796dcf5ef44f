"""Command line driver.

Subcommands:
  verify  -- parse, elaborate, and decide safety of every borrowed qubit
  gen     -- write one of the bundled benchmark programs at a given size
  bench   -- generate + verify a size sweep and report each program's verify time

Exit codes: 0 all verified qubits safe, 1 some unsafe, 2 usage/parse/
elaboration error, a budget not finite or below 0, or an unwritable output
path, 3 undecided (a budget or size cap ran out, or the solver gave no
verdict), 4 a self-check failed (a witness that does not replay, a solver
model that fails its check, or an oracle disagreement).
A malformed flag value is a usage error.
"""

import argparse
import sys
from pathlib import Path

from . import __version__
from .elaborator import elaborate_source
from .errors import QborrowError, ResourceLimit, SelfCheckError, SourceError
from .satcore import DEFAULT_BUDGET_CONFLICTS, DEFAULT_BUDGET_SECONDS
from .verify import (
    EXIT_DISAGREE,
    EXIT_ERROR,
    EXIT_SAFE,
    EXIT_UNKNOWN,
    EXIT_UNSAFE,
    Report,
    cross_check,
    report_exit_code,
    verify_circuit,
)

# also bound here: perfbench's tracer test checks that tracing wraps the
# layers wherever qborrow.cli binds them
from .boolform import track  # noqa: F401
from .satcore import solve  # noqa: F401
from .verify import witness_violates  # noqa: F401


# ---------------------------------------------------------------------------
# subcommand implementations


def _print_verify(report: Report):
    """One line per verdict and a summary, in one pass and one write."""
    lines = []
    safe = unsafe = skipped = 0
    for v in report.verdicts:
        status = v.status
        if status == "safe":
            safe += 1
            lines.append(
                f"{v.qubit}: Safe ({v.formula_nodes} nodes, {v.cnf_vars} vars, "
                f"{v.cnf_clauses} clauses, {v.solve_ms:.1f} ms)"
            )
        elif status == "unsafe":
            unsafe += 1
            w = ""
            if v.witness is not None:
                bits = ", ".join(f"{k}={int(b)}" for k, b in sorted(v.witness.items()))
                w = f", witness {{{bits}}}"
            lines.append(f"{v.qubit}: Unsafe via {v.violated}{w}")
        elif status == "skipped":
            skipped += 1
            lines.append(f"{v.qubit}: Skipped")
        else:
            lines.append(f"{v.qubit}: Unknown (budget: {v.budget})")
    unknown = len(report.verdicts) - safe - unsafe - skipped
    lines.append(
        f"{safe} safe, {unsafe} unsafe, {skipped} skipped, {unknown} unknown "
        f"in {report.total_ms:.1f} ms\n"
    )
    sys.stdout.write("\n".join(lines))


def cmd_verify(args) -> int:
    with open(args.file, "rb") as f:
        data = f.read()
    try:  # both messages name the file
        circuit = elaborate_source(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise QborrowError(f"{args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except SourceError as exc:
        raise QborrowError(f"{args.file}:{exc}")
    if circuit.warnings:  # one write: stderr may be unbuffered
        sys.stderr.write("".join(f"warning: {w}\n" for w in circuit.warnings))
    report = verify_circuit(
        circuit,
        program=str(args.file),
        solver=args.solver,
        emit_dimacs_dir=args.emit_dimacs,
        emit_smtlib_dir=args.emit_smtlib,
        budget_conflicts=args.budget_conflicts,
        budget_seconds=args.budget_seconds,
    )
    _print_verify(report)
    if args.report:
        Path(args.report).write_text(report.to_json())
    if args.oracle and not cross_check(circuit, report):
        return EXIT_DISAGREE
    return report_exit_code(report)


def cmd_gen(args) -> int:
    from .benchgen import generate  # gen and bench only: verify never loads it

    source = generate(args.kind, args.size)
    circuit = elaborate_source(source)  # fails only above the elaboration caps
    Path(args.out).write_text(source)
    print(
        f"wrote {args.out}: {args.kind} size {args.size}, "
        f"{circuit.n_qubits} qubits, {len(circuit.gates)} gates"
    )
    return EXIT_SAFE


def cmd_bench(args) -> int:
    from .benchgen import generate

    rows = []
    worst = EXIT_SAFE
    header = f"{'kind':<6} {'size':>6} {'qubits':>7} {'gates':>7} {'verdict':<10} {'verify_ms':>10}"
    print(header)
    print("-" * len(header))
    for size in args.sizes:
        circuit = elaborate_source(generate(args.kind, size))
        report = verify_circuit(
            circuit,
            program=f"{args.kind}[{size}]",
            solver=args.solver,
            budget_conflicts=args.budget_conflicts,
            budget_seconds=args.budget_seconds,
        )
        code = report_exit_code(report)
        verdict = {EXIT_SAFE: "all-safe", EXIT_UNSAFE: "unsafe", EXIT_UNKNOWN: "unknown"}[code]
        worst = max(worst, code)
        rows.append(
            {
                "kind": args.kind,
                "size": size,
                "qubits": report.n_qubits,
                "gates": report.n_gates,
                "verdict": verdict,
                "verify_ms": round(report.total_ms, 3),
            }
        )
        print(
            f"{args.kind:<6} {size:>6} {report.n_qubits:>7} {report.n_gates:>7} "
            f"{verdict:<10} {report.total_ms:>10.1f}"
        )
    if args.report:
        import json

        doc = {"version": __version__, "solver": args.solver, "rows": rows}
        Path(args.report).write_text(json.dumps(doc, indent=2) + "\n")
    return worst


# ---------------------------------------------------------------------------
# argument plumbing


def _size_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qborrow",
        description="Verify safe uncomputation of borrowed qubits in qbr programs.",
    )
    parser.add_argument("--version", action="version", version=f"qborrow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_opts(p):
        p.add_argument(
            "--solver",
            default="internal",
            help="internal (default) or cmd:<exe> for an external SMT solver",
        )
        p.add_argument("--budget-conflicts", type=int, default=DEFAULT_BUDGET_CONFLICTS)
        p.add_argument("--budget-seconds", type=float, default=DEFAULT_BUDGET_SECONDS)
        p.add_argument("--report", metavar="FILE", help="write a JSON report to FILE")

    v = sub.add_parser("verify", help="verify all borrowed qubits of a program")
    v.add_argument("file")
    add_solver_opts(v)
    v.add_argument("--emit-dimacs", metavar="DIR")
    v.add_argument("--emit-smtlib", metavar="DIR")
    v.add_argument("--oracle", action="store_true")

    g = sub.add_parser("gen", help="generate a benchmark program")
    g.add_argument("kind", choices=["adder", "mcx"])
    g.add_argument("--size", type=int, required=True)
    g.add_argument("-o", "--out", required=True, metavar="FILE")

    b = sub.add_parser("bench", help="verify a size sweep and time each verify")
    b.add_argument("kind", choices=["adder", "mcx"])
    b.add_argument("--sizes", type=_size_list, required=True)
    add_solver_opts(b)

    return parser


# each failure's message prefix and exit code; the first matching type wins.
# Only size caps raise ResourceLimit this far: budgets become Unknown verdicts.
_FAILURES = (
    (SelfCheckError, "self-check failed: ", EXIT_DISAGREE),
    (ResourceLimit, "formula too large: ", EXIT_UNKNOWN),
    ((QborrowError, OSError), "", EXIT_ERROR),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"verify": cmd_verify, "gen": cmd_gen, "bench": cmd_bench}[args.command]
    try:
        return command(args)
    except (QborrowError, OSError) as exc:
        prefix, code = next((p, c) for t, p, c in _FAILURES if isinstance(exc, t))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
