"""The verification driver: one loop per borrowed qubit builds, writes and
decides cond1 then cond2; budgets, size caps and self-checks end in their
documented exit codes."""

import gc
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

import qborrow
from qborrow import boolform, elaborate_source, elaborator, satcore, verify
from qborrow.benchgen import adder_source, mcx_source
from qborrow.boolform import BoolExpr, BoolStore
from qborrow.cli import main
from qborrow.elaborator import ElabError
from qborrow.errors import ResourceLimit, SelfCheckError, UsageError
from qborrow.verify import EXIT_DISAGREE, EXIT_SAFE, EXIT_UNKNOWN, EXIT_UNSAFE, verify_circuit

from conftest import LEAKY_CCCNOT_SRC, SAFE_CCCNOT_SRC, SHIM, mutant_sources, ring_source
from test_rewrites import circuits

FLIP_SRC = "borrow a;\nX[a];\nrelease a;\n"


def verdict(report, label):
    return next(v for v in report.verdicts if v.qubit == label)


def test_conflict_budget_gives_unknown():
    # ring k=4: `a` is Safe, but a condition of it needs search, which one
    # conflict ends; the sizes still count the CNF that solve was given
    c = elaborate_source(ring_source(4))
    v = verdict(verify_circuit(c, budget_conflicts=1), "a")
    assert (v.status, v.budget, v.violated) == ("unknown", "conflicts", None)
    full = verdict(verify_circuit(c), "a")
    assert (v.cnf_vars, v.cnf_clauses) == (full.cnf_vars, full.cnf_clauses) == (79, 272)
    for k, sizes in ((3, (51, 166)), (5, (115, 408))):
        v = verdict(verify_circuit(elaborate_source(ring_source(k)), budget_conflicts=1), "a")
        assert (v.status, v.cnf_vars, v.cnf_clauses) == ("unknown", *sizes)


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


ENCODE_ONCE_PROGRAMS = {
    "adder10-del1": mutant_sources(adder_source(10))[1],
    "leaky": LEAKY_CCCNOT_SRC,
}


@pytest.mark.parametrize(
    "program, emit, calls, folded, encodings",
    [
        pytest.param("adder10-del1", False, 1, 0, 1, id="adder10-del1"),
        pytest.param("adder10-del1", True, 2, 1, 18, id="adder10-del1-emit"),
        pytest.param("leaky", False, 2, 1, 1, id="leaky"),
        pytest.param("leaky", True, 2, 1, 2, id="leaky-emit"),
    ],
)
def test_each_condition_is_encoded_once(
    monkeypatch, tmp_path, program, emit, calls, folded, encodings
):
    # adder n=10 without gate 1: the support sweep finds its eight restored
    # qubits, whose 16 conditions are false unbuilt, so only cond1 of a.9
    # is built, and decided sat; written, cond2 of a.9 is built too, only
    # to be written, and folds to false.  leaky: cond1 of a folds to false
    # and cond2 is decided.  The .cnf writer and the solver share one
    # encoding, and a condition that is false needs one only to be written
    original, encoded, built = verify.tseitin, [], []
    monkeypatch.setattr(verify, "tseitin", lambda e: encoded.append(e) or original(e))
    for name in ("cond_restore_zero", "cond_restore_plus"):
        build = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda q, s, b=build: built.append(b(q, s)) or built[-1])
    path = tmp_path / f"{program}.qbr"
    path.write_text(ENCODE_ONCE_PROGRAMS[program])
    d = tmp_path / "d"
    assert main(["verify", str(path)] + (["--emit-dimacs", str(d)] if emit else [])) == EXIT_UNSAFE
    assert len(built) == calls
    assert sum(e.op == "false" for e in built) == folded
    assert len(encoded) == encodings == (len(list(d.iterdir())) if emit else calls - folded)
    formulas = [e for e in encoded if e.op not in ("false", "true")]
    assert formulas and len(set(formulas)) == len(formulas)


RESTORED_PROGRAMS = {
    "adder64": adder_source(64),
    "mcx64": mcx_source(64),
    "leaky": LEAKY_CCCNOT_SRC,
    "cccnot": SAFE_CCCNOT_SRC,
}


SHIM_SOLVER = "cmd:" + shlex.join(SHIM)


@pytest.mark.parametrize(
    "program, solver, emit, code, builds",
    [
        ("adder64", "internal", False, EXIT_SAFE, False),
        ("mcx64", "internal", False, EXIT_SAFE, False),
        ("leaky", "internal", False, EXIT_UNSAFE, True),  # a keeps its value, but q5 depends on it
        ("adder64", "internal", True, EXIT_SAFE, False),
        ("cccnot", SHIM_SOLVER, False, EXIT_SAFE, False),
    ],
    ids=["adder64", "mcx64", "leaky", "adder64-emit", "cccnot-cmd"],
)
def test_the_support_sweep_decides_restored_qubits_unbuilt(
    monkeypatch, tmp_path, program, solver, emit, code, builds
):
    # under every solver and emit directory, both conditions of a qubit
    # that `restored_gids` names are false without being built
    calls = {"cond_restore_zero": [], "cond_restore_plus": []}
    for name, log in calls.items():
        build = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda q, s, b=build, log=log: log.append(q) or b(q, s))
    path = tmp_path / f"{program}.qbr"
    path.write_text(RESTORED_PROGRAMS[program])
    args = ["verify", str(path), "--solver", solver]
    assert main(args + (["--emit-smtlib", str(tmp_path / "smt")] if emit else [])) == code
    verified = elaborate_source(RESTORED_PROGRAMS[program]).verify_qubits()
    assert verified
    assert calls == dict.fromkeys(calls, verified if builds else [])


@pytest.mark.parametrize("program", RESTORED_PROGRAMS)
def test_unbuilt_restored_conditions_write_and_decide_as_built_ones(
    monkeypatch, tmp_path, capsys, program
):
    # `verify --emit-dimacs --emit-smtlib` with the internal solver and with
    # the shim, once as is and once with no qubit found restored, so that
    # every condition is built: the same files, reports and stdout (timing
    # aside)
    path = tmp_path / f"{program}.qbr"
    path.write_text(RESTORED_PROGRAMS[program])
    solvers = ["internal", SHIM_SOLVER]
    timing = rb'(?<=_ms": )[0-9.e+-]+|[0-9.]+(?= ms)'

    def runs(out):
        results = []
        for i, solver in enumerate(solvers):
            report, emitted = out / f"{i}.json", out / str(i)
            args = ["verify", str(path), "--solver", solver, "--report", str(report)]
            args += ["--emit-dimacs", str(emitted / "cnf"), "--emit-smtlib", str(emitted / "smt")]
            code = main(args)
            stdout, report = capsys.readouterr().out.encode(), report.read_bytes()
            written = {p.relative_to(emitted): p.read_bytes() for p in emitted.glob("*/*")}
            assert written
            results.append((code, written, *(re.sub(timing, b"0", t) for t in (stdout, report))))
        return results

    swept = runs(tmp_path / "swept")
    monkeypatch.setattr(verify, "restored_gids", lambda state, qubits: set())
    assert runs(tmp_path / "built") == swept


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_a_restored_qubit_gets_the_verdict_of_its_folded_conditions(source):
    c = elaborate_source(source)
    swept = verify_circuit(c).verdicts
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "restored_gids", lambda state, qubits: set())
        built = verify_circuit(c).verdicts
    for v in swept + built:
        v.solve_ms = 0.0  # timing aside
    assert swept == built


def test_constant_conditions_are_decided_without_search(monkeypatch):
    # cond1 of a folds to false and cond2 to true while they are built
    def unused(*args, **kwargs):
        raise AssertionError("a constant condition was solved")

    s = BoolStore()
    sizes = [(cnf.n_vars, len(cnf.clauses)) for cnf, _ in map(satcore.tseitin, (s.false, s.true))]
    monkeypatch.setattr(verify, "solve", unused)
    c = elaborate_source("borrow a;\nborrow@ b;\nCNOT[a, b];\nrelease a;\nrelease b;\n")
    v = verdict(verify_circuit(c), "a")
    assert (v.status, v.violated, v.witness) == ("unsafe", "cond2", {})
    assert (v.cnf_vars, v.cnf_clauses) == tuple(map(sum, zip(*sizes))) == (0, 1)


def test_without_an_emit_directory_no_path_is_made(monkeypatch, tmp_path):
    def no_path(*args):
        raise AssertionError("a Path was made")

    monkeypatch.setattr(verify, "Path", no_path)
    monkeypatch.chdir(tmp_path)
    report = verify_circuit(elaborate_source(LEAKY_CCCNOT_SRC), program="leaky.qbr")
    assert verdict(report, "a").status == "unsafe"
    assert list(tmp_path.iterdir()) == []


def test_the_driver_reaches_each_layer_through_its_module_attribute(monkeypatch):
    # a layer called through a reference captured earlier would escape a
    # wrapper set on the module, and its time would count as the driver's
    layers = ["track", "cond_restore_zero", "cond_restore_plus", "count_nodes", "tseitin"]
    layers += ["solve", "witness_violates"]
    calls = []
    for name in layers:

        def counted(*args, name=name, layer=getattr(verify, name), **kwargs):
            calls.append(name)
            return layer(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    # leaky with q4 ^= q1 first: cond1 of a folds to false, and cond2 is
    # q4 xor q1 (on leaky itself the leaf q4, which needs no node count),
    # solved sat and replayed
    src = LEAKY_CCCNOT_SRC.replace("CCNOT[a, q4", "CNOT[q1, q4];\nCCNOT[a, q4")
    v = verdict(verify_circuit(elaborate_source(src)), "a")
    assert (v.status, v.violated) == ("unsafe", "cond2")
    assert sorted(calls) == sorted(layers)  # one call each


def test_external_solver_reads_the_emitted_scripts(monkeypatch, tmp_path):
    scripts = tmp_path / "tmp"
    scripts.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scripts))
    log = tmp_path / "args.log"
    exe = tmp_path / "solver.sh"
    exe.write_text(f'#!/bin/sh\necho "$1" >> {log}\necho unsat\n')
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    path = tmp_path / "leaky.qbr"
    path.write_text(LEAKY_CCCNOT_SRC)
    d = tmp_path / "smt"
    assert main(["verify", str(path), "--solver", f"cmd:{exe}", "--emit-smtlib", str(d)]) == EXIT_SAFE
    # cond1 of a is false: written, and answered without the solver
    assert sorted(p.name for p in d.iterdir()) == ["leaky.a.cond1.smt2", "leaky.a.cond2.smt2"]
    assert log.read_text().split() == [str(d / "leaky.a.cond2.smt2")]
    assert list(scripts.glob("qborrow.*.smt2")) == []


def test_a_false_condition_starts_no_external_solver(tmp_path):
    # adder n=64: its 126 conditions are false, each answered unsat with the
    # internal path's sizes and written under --emit-smtlib, and the solver,
    # which would answer sat, is never started
    starts = tmp_path / "starts.log"
    exe = tmp_path / "solver.sh"
    exe.write_text(f'#!/bin/sh\necho "$1" >> {starts}\necho sat\n')
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    c = elaborate_source(adder_source(64))
    d = tmp_path / "smt"
    external = verify_circuit(c, solver=f"cmd:{exe}", emit_smtlib_dir=d)
    assert external.verdicts == verify_circuit(c).verdicts
    assert {(v.formula_nodes, v.cnf_vars, v.cnf_clauses, v.solve_ms) for v in external.verdicts} == {
        (2, 0, 2, 0.0),
        (0, 0, 0, 0.0),  # borrow@ qubits
    }
    assert len(list(d.glob("*.smt2"))) == 126
    assert not starts.exists()


def test_a_true_condition_starts_no_external_solver(tmp_path, capsys):
    # cond2 of `a` folds to true: answered sat with the empty witness, which
    # is replayed, as the internal path answers it; written under
    # --emit-smtlib, and the solver is never started
    starts = tmp_path / "starts.log"
    exe = tmp_path / "solver.sh"
    exe.write_text(f'#!/bin/sh\necho "$1" >> {starts}\necho sat\n')
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    path = tmp_path / "copy.qbr"
    path.write_text("borrow a; borrow@ b; CNOT[a, b]; release a; release b;\n")
    c = elaborate_source(path.read_text())
    d = tmp_path / "smt"
    external = verify_circuit(c, solver=f"cmd:{exe}", emit_smtlib_dir=d)
    fields = "qubit status violated witness budget formula_nodes cnf_vars cnf_clauses".split()
    got = [tuple(getattr(v, k) for k in fields) for v in external.verdicts]
    assert got == [tuple(getattr(v, k) for k in fields) for v in verify_circuit(c).verdicts]
    assert got[0] == ("a", "unsafe", "cond2", {}, None, 2, 0, 1)
    written = sorted(p.name for p in d.glob("*.smt2"))
    assert written == ["circuit.a.cond1.smt2", "circuit.a.cond2.smt2"]
    assert main(["verify", str(path), "--solver", f"cmd:{exe}"]) == EXIT_UNSAFE
    assert capsys.readouterr().out.startswith("a: Unsafe via cond2, witness {}\n")
    assert not starts.exists()


# --------------------------------------------------------------------------
# the cyclic collector is paused while the gate list and the DAG are built


@pytest.fixture
def gc_restored():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _resource_limit(monkeypatch):
    monkeypatch.setattr(boolform, "MAX_NODES", 10)
    verify_circuit(elaborate_source(SAFE_CCCNOT_SRC))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "run, error",
    [
        (lambda mp: elaborate_source(SAFE_CCCNOT_SRC), None),
        (lambda mp: verify_circuit(elaborate_source(LEAKY_CCCNOT_SRC)), None),
        (lambda mp: elaborate_source("borrow a;\nCNOT[a, a];\n"), ElabError),
        (lambda mp: verify_circuit(elaborate_source(SAFE_CCCNOT_SRC), budget_seconds=-1), UsageError),
        (_resource_limit, ResourceLimit),
    ],
    ids=["elaborate", "verify", "elab-error", "usage-error", "resource-limit"],
)
def test_the_collector_is_left_as_found(monkeypatch, gc_restored, enabled, run, error):
    (gc.enable if enabled else gc.disable)()
    seen = []  # the collector's state inside each loop
    stmt, track = elaborator._Elaborator.stmt, verify.track
    monkeypatch.setattr(
        elaborator._Elaborator, "stmt", lambda e, s: seen.append(gc.isenabled()) or stmt(e, s)
    )
    monkeypatch.setattr(verify, "track", lambda c: seen.append(gc.isenabled()) or track(c))
    if error is None:
        run(monkeypatch)
    else:
        with pytest.raises(error):
            run(monkeypatch)
    assert gc.isenabled() is enabled
    assert seen and not any(seen)


@pytest.mark.parametrize(
    "source, options",
    [
        (adder_source(16), {}),
        (mcx_source(64), {}),
        (mutant_sources(adder_source(8))[4], {}),
        (mutant_sources(adder_source(8))[17], {}),
        (mutant_sources(mcx_source(9))[3], {}),
        (ring_source(16), {}),
        (LEAKY_CCCNOT_SRC, {"solver": SHIM_SOLVER}),
        (ring_source(4), {"budget_conflicts": 1}),
    ],
    ids=["adder16", "mcx64", "mutant-a", "mutant-b", "mutant-c", "ring16", "leaky-cmd", "ring-budget"],
)
def test_verifying_leaves_no_cyclic_garbage(source, options):
    # the gate list and the DAG are freed by reference counting alone, so
    # pausing the collector while they are built holds no memory it would free
    gc.collect()
    verify_circuit(elaborate_source(source), **options)
    assert gc.collect() == 0


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
    env = dict(os.environ, PYTHONPATH=str(Path(qborrow.__file__).resolve().parent.parent))
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
    v = s.var(q)
    # the next serial and the support of its one variable, as the store gives them
    bad = BoolExpr("and", (v, s.true), None, len(s), s._bit(v))
    with pytest.raises(SelfCheckError):
        satcore.tseitin(bad)
