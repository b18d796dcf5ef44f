"""Command line driver.

Subcommands:
  verify  -- parse, elaborate, and decide safety of every borrowed qubit
  gen     -- write one of the bundled benchmark programs at a given size
  bench   -- generate + verify a size sweep and report solver-only timings

Exit codes: 0 all verified qubits safe, 1 some unsafe, 2 usage/parse/
elaboration error or an unwritable output path, 3 undecided within budget,
4 a self-check failed (a witness that does not replay, a solver model that
fails its check, or an oracle disagreement).
Every flag can also be set via an environment variable with the QBORROW_
prefix (e.g. QBORROW_SOLVER, QBORROW_BUDGET_SECONDS); flags win.  A malformed
flag or variable value is a usage error.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .benchgen import generate
from .boolform import FormulaSizeError
from .elaborator import FlatCircuit, elaborate_source
from .errors import SelfCheckError, SourceError
from .satcore import DEFAULT_BUDGET_CONFLICTS, DEFAULT_BUDGET_SECONDS, SizeCap
from .verify import (
    EXHAUSTIVE_CAP,
    EXIT_DISAGREE,
    EXIT_ERROR,
    EXIT_SAFE,
    EXIT_UNKNOWN,
    EXIT_UNSAFE,
    Report,
    exact_safe,
    report_exit_code,
    verify_circuit,
)

# also bound here: perfbench's tracer test checks that tracing wraps the
# layers wherever qborrow.cli binds them
from .boolform import track  # noqa: F401
from .satcore import solve  # noqa: F401
from .verify import witness_violates  # noqa: F401


def cross_check(circuit: FlatCircuit, report: Report, err=None) -> bool:
    """Compare every decided verdict against exhaustive enumeration.

    Returns False (and explains on err) on any disagreement."""
    err = err if err is not None else sys.stderr
    if circuit.n_qubits > EXHAUSTIVE_CAP:
        print(
            f"warning: oracle cross-check skipped ({circuit.n_qubits} qubits "
            f"exceed the cap of {EXHAUSTIVE_CAP})",
            file=err,
        )
        return True
    by_label = {q.label: q for q in circuit.qubits}
    ok = True
    for v in report.verdicts:
        if v.status in ("skipped", "unknown"):
            continue
        q = by_label[v.qubit]
        safe = not exact_safe(circuit, q)
        if safe != (v.status == "safe"):
            print(
                f"oracle disagreement on {v.qubit}: solver says {v.status}, "
                f"enumeration says {'safe' if safe else 'unsafe'}",
                file=err,
            )
            ok = False
    return ok


# ---------------------------------------------------------------------------
# subcommand implementations


def _print_verify(report: Report, out):
    lines = []
    for v in report.verdicts:
        if v.status == "safe":
            extra = f"({v.formula_nodes} nodes, {v.cnf_vars} vars, {v.cnf_clauses} clauses, {v.solve_ms:.1f} ms)"
            lines.append(f"{v.qubit}: Safe {extra}")
        elif v.status == "unsafe":
            w = ""
            if v.witness is not None:
                bits = ", ".join(f"{k}={int(b)}" for k, b in sorted(v.witness.items()))
                w = f", witness {{{bits}}}"
            lines.append(f"{v.qubit}: Unsafe via {v.violated}{w}")
        elif v.status == "skipped":
            lines.append(f"{v.qubit}: Skipped")
        else:
            lines.append(f"{v.qubit}: Unknown (budget: {v.budget})")
    counts = {s: 0 for s in ("safe", "unsafe", "skipped", "unknown")}
    for v in report.verdicts:
        counts[v.status] += 1
    lines.append(
        f"{counts['safe']} safe, {counts['unsafe']} unsafe, "
        f"{counts['skipped']} skipped, {counts['unknown']} unknown "
        f"in {report.total_ms:.1f} ms"
    )
    out.write("\n".join(lines) + "\n")


def cmd_verify(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with open(args.file, "rb") as f:
            text = f.read().decode("utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})", file=err)
        return EXIT_ERROR
    try:
        circuit = elaborate_source(text)
    except SourceError as exc:
        print(f"error: {args.file}:{exc}", file=err)
        return EXIT_ERROR
    for w in circuit.warnings:
        print(f"warning: {w}", file=err)
    try:
        report = verify_circuit(
            circuit,
            program=str(args.file),
            solver=args.solver,
            emit_dimacs_dir=args.emit_dimacs,
            emit_smtlib_dir=args.emit_smtlib,
            budget_conflicts=args.budget_conflicts,
            budget_seconds=args.budget_seconds,
        )
    except (FormulaSizeError, SizeCap) as exc:
        print(f"error: formula too large: {exc}", file=err)
        return EXIT_UNKNOWN
    except SelfCheckError as exc:
        print(f"error: self-check failed: {exc}", file=err)
        return EXIT_DISAGREE
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    _print_verify(report, out)
    if args.report:
        Path(args.report).write_text(report.to_json())
    if args.oracle and not cross_check(circuit, report, err=err):
        return EXIT_DISAGREE
    return report_exit_code(report)


def cmd_gen(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        source = generate(args.kind, args.size)
        circuit = elaborate_source(source)  # fails only above the elaboration caps
    except (ValueError, SourceError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    Path(args.out).write_text(source)
    print(
        f"wrote {args.out}: {args.kind} size {args.size}, "
        f"{circuit.n_qubits} qubits, {len(circuit.gates)} gates",
        file=out,
    )
    return EXIT_SAFE


def cmd_bench(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    rows = []
    worst = EXIT_SAFE
    header = f"{'kind':<6} {'size':>6} {'qubits':>7} {'gates':>7} {'verdict':<10} {'solver_ms':>10}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for size in args.sizes:
        try:
            circuit = elaborate_source(generate(args.kind, size))
            report = verify_circuit(
                circuit,
                program=f"{args.kind}[{size}]",
                solver=args.solver,
                budget_conflicts=args.budget_conflicts,
                budget_seconds=args.budget_seconds,
            )
        except FormulaSizeError as exc:
            print(f"error: formula too large: {exc}", file=err)
            return EXIT_UNKNOWN
        except SelfCheckError as exc:
            print(f"error: self-check failed: {exc}", file=err)
            return EXIT_DISAGREE
        except (ValueError, SourceError) as exc:
            print(f"error: {exc}", file=err)
            return EXIT_ERROR
        solver_ms = sum(v.solve_ms for v in report.verdicts)
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
                "solver_ms": round(solver_ms, 3),
            }
        )
        print(
            f"{args.kind:<6} {size:>6} {report.n_qubits:>7} {report.n_gates:>7} "
            f"{verdict:<10} {solver_ms:>10.1f}",
            file=out,
        )
    if args.report:
        doc = {"version": __version__, "solver": args.solver, "rows": rows}
        Path(args.report).write_text(json.dumps(doc, indent=2) + "\n")
    return worst


# ---------------------------------------------------------------------------
# argument plumbing


def _env(name: str, fallback=None):
    return os.environ.get("QBORROW_" + name, fallback)


def _flag(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off", ""):
        return False
    raise argparse.ArgumentTypeError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")


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

    # QBORROW_* values go in as unconverted strings, so argparse converts them
    # like the flags and a malformed one is a usage error
    def add_solver_opts(p):
        p.add_argument(
            "--solver",
            default=_env("SOLVER", "internal"),
            help="internal (default) or cmd:<exe> for an external SMT solver",
        )
        p.add_argument(
            "--budget-conflicts",
            type=int,
            default=_env("BUDGET_CONFLICTS", DEFAULT_BUDGET_CONFLICTS),
        )
        p.add_argument(
            "--budget-seconds",
            type=float,
            default=_env("BUDGET_SECONDS", DEFAULT_BUDGET_SECONDS),
        )
        p.add_argument(
            "--report",
            default=_env("REPORT"),
            metavar="FILE",
            help="write a JSON report to FILE",
        )

    v = sub.add_parser("verify", help="verify all borrowed qubits of a program")
    v.add_argument("file")
    add_solver_opts(v)
    v.add_argument("--emit-dimacs", default=_env("EMIT_DIMACS"), metavar="DIR")
    v.add_argument("--emit-smtlib", default=_env("EMIT_SMTLIB"), metavar="DIR")
    oracle = v.add_argument("--oracle", action="store_true", default=_env("ORACLE", ""))
    oracle.type = _flag  # store_true takes no type=; this converts QBORROW_ORACLE

    g = sub.add_parser("gen", help="generate a benchmark program")
    g.add_argument("kind", choices=["adder", "mcx"])
    size_env = _env("SIZE")
    g.add_argument("--size", type=int, required=size_env is None, default=size_env)
    out_env = _env("OUT")
    g.add_argument(
        "-o", "--out", required=out_env is None, default=out_env, metavar="FILE"
    )

    b = sub.add_parser("bench", help="verify a size sweep and time the solver")
    b.add_argument("kind", choices=["adder", "mcx"])
    sizes_env = _env("SIZES")
    b.add_argument("--sizes", type=_size_list, required=sizes_env is None, default=sizes_env)
    add_solver_opts(b)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"verify": cmd_verify, "gen": cmd_gen, "bench": cmd_bench}[args.command]
    try:
        return command(args)
    except OSError as exc:  # an output file or directory that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
