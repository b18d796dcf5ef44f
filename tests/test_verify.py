"""The verification driver: one loop per borrowed qubit builds, writes and
decides cond1 then cond2; budgets, size caps and self-checks end in their
documented exit codes."""

import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import qborrow
from qborrow import boolform, elaborate_source, satcore, verify
from qborrow.benchgen import adder_source
from qborrow.boolform import BoolExpr, BoolStore
from qborrow.cli import main
from qborrow.errors import SelfCheckError
from qborrow.verify import EXIT_DISAGREE, EXIT_SAFE, EXIT_UNKNOWN, EXIT_UNSAFE, verify_circuit

from conftest import LEAKY_CCCNOT_SRC, SAFE_CCCNOT_SRC, mutant_sources

FLIP_SRC = "borrow a;\nX[a];\nrelease a;\n"


def verdict(report, label):
    return next(v for v in report.verdicts if v.qubit == label)


def test_conflict_budget_gives_unknown():
    # adder n=8 without gate 4: cond2 of a.7 needs search, which one conflict ends
    c = elaborate_source(mutant_sources(adder_source(8))[4])
    v = verdict(verify_circuit(c, budget_conflicts=1), "a.7")
    assert (v.status, v.budget, v.violated) == ("unknown", "conflicts", None)


def test_clause_cap_gives_unknown(monkeypatch):
    monkeypatch.setattr(satcore, "DEFAULT_MAX_CLAUSES", 1)
    c = elaborate_source(mutant_sources(adder_source(8))[4])
    v = verdict(verify_circuit(c), "a.7")
    assert (v.status, v.budget) == ("unknown", "size")


def test_clause_cap_while_emitting_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(satcore, "DEFAULT_MAX_CLAUSES", 1)
    path = tmp_path / "mutant.qbr"
    path.write_text(mutant_sources(adder_source(8))[4])
    assert main(["verify", str(path), "--emit-dimacs", str(tmp_path / "d")]) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert "error: formula too large: CNF exceeded the 1-clause cap" in err


@pytest.mark.parametrize("command", [["verify", "prog.qbr"], ["bench", "mcx", "--sizes", "4"]])
def test_store_cap_exits_3(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(boolform, "MAX_NODES", 10)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.qbr").write_text(SAFE_CCCNOT_SRC)
    assert main(command) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err == "error: formula too large: formula store exceeded the 10-node cap\n"


@pytest.mark.parametrize("emit, calls", [(False, 0), (True, 1)])
def test_cond2_is_built_only_when_decided_or_written(monkeypatch, tmp_path, emit, calls):
    original, built = verify.cond_restore_plus, []
    monkeypatch.setattr(verify, "cond_restore_plus", lambda q, s: built.append(q) or original(q, s))
    path = tmp_path / "flip.qbr"
    path.write_text(FLIP_SRC)
    d = tmp_path / "smt"
    args = ["verify", str(path)] + (["--emit-smtlib", str(d)] if emit else [])
    assert main(args) == EXIT_UNSAFE  # X[a] flips a: unsafe via cond1
    assert len(built) == calls
    if emit:
        assert sorted(p.name for p in d.iterdir()) == ["flip.a.cond1.smt2", "flip.a.cond2.smt2"]


@pytest.mark.parametrize("emit, calls", [(False, 17), (True, 18)])
def test_each_condition_is_encoded_once(monkeypatch, tmp_path, emit, calls):
    # adder n=10 without gate 1: 17 decided conditions, and one cond2 that
    # is only written; the .cnf writer and the solver share one encoding
    original, encoded = verify.tseitin, []
    monkeypatch.setattr(verify, "tseitin", lambda e: encoded.append(e) or original(e))
    path = tmp_path / "mutant.qbr"
    path.write_text(mutant_sources(adder_source(10))[1])
    args = ["verify", str(path)] + (["--emit-dimacs", str(tmp_path / "d")] if emit else [])
    assert main(args) == EXIT_UNSAFE
    assert len(encoded) == calls


def test_external_solver_reads_the_emitted_scripts(monkeypatch, tmp_path):
    scripts = tmp_path / "tmp"
    scripts.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scripts))
    log = tmp_path / "args.log"
    exe = tmp_path / "solver.sh"
    exe.write_text(f'#!/bin/sh\necho "$1" >> {log}\necho unsat\n')
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    path = tmp_path / "safe.qbr"
    path.write_text(SAFE_CCCNOT_SRC)
    d = tmp_path / "smt"
    assert main(["verify", str(path), "--solver", f"cmd:{exe}", "--emit-smtlib", str(d)]) == EXIT_SAFE
    assert log.read_text().split() == [str(d / "safe.a.cond1.smt2"), str(d / "safe.a.cond2.smt2")]
    assert list(scripts.glob("qborrow.*.smt2")) == []


# --------------------------------------------------------------------------
# self-checks: a failure is a bug, reported with exit 4 and no traceback


@pytest.mark.parametrize(
    "patch",
    [
        "import qborrow.satcore as m; m.evaluate = lambda e, env: False",
        "import qborrow.verify as m; m.witness_violates = lambda *a: False",
    ],
    ids=["model-check", "witness-replay"],
)
def test_failed_self_check_exits_4(tmp_path, patch):
    path = tmp_path / "leaky.qbr"
    path.write_text(LEAKY_CCCNOT_SRC)
    code = f"import sys; {patch}; from qborrow.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBORROW_")}
    env["PYTHONPATH"] = str(Path(qborrow.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", str(path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_DISAGREE, proc.stderr
    assert "error: self-check failed:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_failed_self_check_in_bench_exits_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise SelfCheckError("sat model violates a clause")

    monkeypatch.setattr("qborrow.cli.verify_circuit", broken)
    assert main(["bench", "adder", "--sizes", "8"]) == EXIT_DISAGREE
    assert "error: self-check failed: sat model violates a clause" in capsys.readouterr().err


def test_constant_below_the_root_fails_the_self_check():
    s = BoolStore()
    q = elaborate_source("borrow a;\n").qubits[0]
    bad = BoolExpr("and", (s.var(q), s.true), None, 0, len(s))
    with pytest.raises(SelfCheckError):
        satcore.tseitin(bad)
