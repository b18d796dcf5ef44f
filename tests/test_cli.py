import importlib
import json
import os
import pkgutil
import re
import runpy
import shlex
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import qborrow
from qborrow import elaborate_source, parse_dimacs
from qborrow.benchgen import adder_gate_count, adder_source, mcx_gate_count, mcx_source
from qborrow.cli import cross_check, main
from qborrow.verify import (
    EXIT_DISAGREE,
    EXIT_ERROR,
    EXIT_SAFE,
    EXIT_UNKNOWN,
    EXIT_UNSAFE,
    Report,
    Verdict,
    report_exit_code,
    verify_circuit,
    witness_violates,
)

from conftest import LEAKY_CCCNOT_SRC, SAFE_CCCNOT_SRC, SHIM, ring_source


@pytest.fixture()
def qbr(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


# --------------------------------------------------------------------------
# generators


def test_adder_source_structure():
    src = adder_source(8)
    assert src.startswith("// adder.qbr\nlet n = 8;")
    c = elaborate_source(src)
    assert len(c.gates) == adder_gate_count(8) == 53
    assert c.n_qubits == 15


def test_adder_sources_differ_only_in_size_line():
    a, b = adder_source(8).splitlines(), adder_source(50).splitlines()
    assert len(a) == len(b)
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert len(diff) == 1 and a[diff[0]].startswith("let n = ")


def test_mcx_source_structure():
    src = mcx_source(4)
    c = elaborate_source(src)
    assert len(c.gates) == mcx_gate_count(4) == 32
    assert c.n_qubits == 9  # 2m-1 controls-and-spacers + target + ancilla
    assert [q.label for q in c.verify_qubits()] == ["anc"]


@pytest.mark.parametrize("m", [4, 5, 8, 11])
def test_mcx_gate_count_formula(m):
    assert len(elaborate_source(mcx_source(m)).gates) == 16 * (m - 2)


@pytest.mark.parametrize("n", [3, 4, 9, 17])
def test_adder_gate_count_formula(n):
    assert len(elaborate_source(adder_source(n)).gates) == 8 * (n - 2) + 5


def test_generator_size_validation():
    with pytest.raises(ValueError, match="size out of range"):
        adder_source(1)
    with pytest.raises(ValueError, match="size out of range"):
        adder_source(2)  # would index a[0] and a[2] in a 1-wide register
    with pytest.raises(ValueError, match="size out of range"):
        mcx_source(3)


def test_gen_subcommand(tmp_path):
    out = tmp_path / "a.qbr"
    assert main(["gen", "adder", "--size", "8", "-o", str(out)]) == EXIT_SAFE
    c = elaborate_source(out.read_text())
    assert len(c.gates) == 53


def test_gen_size_out_of_range(tmp_path, capsys):
    out = tmp_path / "a.qbr"
    assert main(["gen", "adder", "--size", "1", "-o", str(out)]) == EXIT_ERROR
    assert "size out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,size", [("adder", 4), ("mcx", 4)])
def test_gen_output_verifies_without_warnings(tmp_path, capsys, kind, size):
    out = tmp_path / f"{kind}.qbr"
    assert main(["gen", kind, "--size", str(size), "-o", str(out)]) == EXIT_SAFE
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_SAFE
    assert capsys.readouterr().err == ""


# --------------------------------------------------------------------------
# verify: exit codes


def test_verify_safe_program(qbr, capsys):
    path = qbr("safe.qbr", SAFE_CCCNOT_SRC)
    assert main(["verify", path]) == EXIT_SAFE
    out = capsys.readouterr().out
    assert "a: Safe" in out and "q.1: Skipped" in out


def test_verify_unsafe_program(qbr, capsys):
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    assert main(["verify", path]) == EXIT_UNSAFE
    out = capsys.readouterr().out
    assert "a: Unsafe via cond2" in out and "q4=1" in out


def test_verify_duplicate_operand_exits_2(qbr, capsys):
    path = qbr("dup.qbr", "borrow q[2];\nCNOT[q[1], q[1]];")
    assert main(["verify", path]) == EXIT_ERROR
    assert "appears twice" in capsys.readouterr().err


def test_verify_parse_error_exits_2(qbr, capsys):
    path = qbr("bad.qbr", "let x = ;")
    assert main(["verify", path]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "1:9" in err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.qbr")]) == EXIT_ERROR


def test_verify_oracle_agreement(qbr):
    path = qbr("safe.qbr", SAFE_CCCNOT_SRC)
    assert main(["verify", path, "--oracle"]) == EXIT_SAFE
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    assert main(["verify", path, "--oracle"]) == EXIT_UNSAFE


# --------------------------------------------------------------------------
# verify: external solvers


def fake_solver(tmp_path, body):
    path = tmp_path / "solver.sh"
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_external_solver_unsat_everywhere(qbr, tmp_path):
    exe = fake_solver(tmp_path, "echo unsat")
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    assert main(["verify", path, "--solver", f"cmd:{exe}"]) == EXIT_SAFE


def test_external_solver_sat_everywhere(qbr, tmp_path):
    exe = fake_solver(tmp_path, "echo sat")
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    # external sat verdicts carry no witness but still mean unsafe
    assert main(["verify", path, "--solver", f"cmd:{exe}"]) == EXIT_UNSAFE


def test_external_solver_garbage_is_unknown(qbr, tmp_path, capsys):
    # "unsatisfiable" must not be mistaken for "unsat": whole-line match only
    exe = fake_solver(tmp_path, "echo unsatisfiable")
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    assert main(["verify", path, "--solver", f"cmd:{exe}"]) == EXIT_UNKNOWN
    assert "Unknown" in capsys.readouterr().out


def test_external_solver_output_not_utf8_is_unknown(qbr, tmp_path, capsys):
    exe = fake_solver(tmp_path, r"printf '\377\n'")
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    assert main(["verify", path, "--solver", f"cmd:{exe}"]) == EXIT_UNKNOWN
    assert "a: Unknown (budget: output)" in capsys.readouterr().out
    # every condition of a bench program is false, answered without the solver
    assert main(["bench", "mcx", "--sizes", "4", "--solver", f"cmd:{exe}"]) == EXIT_SAFE
    out = capsys.readouterr().out
    assert out.splitlines()[-1].split()[:5] == ["mcx", "4", "9", "32", "all-safe"]


def test_solver_timeout_kills_its_process_group(qbr, tmp_path, capsys):
    mark = tmp_path / "MARK"
    exe = fake_solver(tmp_path, f"(sleep 1; touch {shlex.quote(str(mark))}) & sleep 5")
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    args = ["verify", path, "--solver", f"cmd:{exe}", "--budget-seconds", "0.3"]
    assert main(args) == EXIT_UNKNOWN
    assert "a: Unknown (budget: time)" in capsys.readouterr().out
    time.sleep(1.5)  # a surviving background child would have touched MARK
    assert not mark.exists()


def test_register_named_false_is_a_variable_to_the_solver(qbr, capsys):
    pytest.importorskip("sympy")  # the shim's decision procedure
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC.replace("q4", "false"))
    assert main(["verify", path, "--solver", "cmd:" + shlex.join(SHIM)]) == EXIT_UNSAFE
    assert "a: Unsafe via cond2" in capsys.readouterr().out


def test_ring_scripts_get_the_internal_verdict(qbr, tmp_path, capsys):
    # shared subterms: a tree-printed script would grow exponentially with k
    pytest.importorskip("sympy")
    path = qbr("ring8.qbr", ring_source(8))
    assert main(["verify", path]) == EXIT_SAFE
    d = tmp_path / "smt"
    args = ["verify", path, "--emit-smtlib", str(d), "--solver", "cmd:" + shlex.join(SHIM)]
    assert main(args) == EXIT_SAFE
    assert capsys.readouterr().out.count("a: Safe") == 2
    assert sorted(p.name for p in d.iterdir()) == ["ring8.a.cond1.smt2", "ring8.a.cond2.smt2"]


def test_external_solver_missing_binary(qbr):
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    assert main(["verify", path, "--solver", "cmd:/nonexistent/solver"]) == EXIT_UNKNOWN


@pytest.mark.parametrize(
    "body,code",
    [
        ('test -s "$1" && echo sat', EXIT_UNSAFE),
        ('test -s "$1" && echo unsat', EXIT_SAFE),
        ('test -s "$1" && echo unsatisfiable', EXIT_UNKNOWN),
        (None, EXIT_UNKNOWN),
    ],
    ids=["sat", "unsat", "garbage", "missing-binary"],
)
def test_external_solver_leaves_no_script(qbr, tmp_path, monkeypatch, body, code):
    scripts = tmp_path / "tmp"
    scripts.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scripts))
    exe = "/nonexistent/solver" if body is None else fake_solver(tmp_path, body)
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    # the solver sees a nonempty script, which is gone once verify returns
    assert main(["verify", path, "--solver", f"cmd:{exe}"]) == code
    assert list(scripts.glob("qborrow.*.smt2")) == []


def test_unknown_solver_name(qbr):
    path = qbr("safe.qbr", SAFE_CCCNOT_SRC)
    assert main(["verify", path, "--solver", "bogus"]) == EXIT_ERROR


@pytest.mark.parametrize(
    "solver, emit", [("bogus", "--emit-smtlib"), ("cmd:", "--emit-dimacs")]
)
def test_bad_solver_is_rejected_before_anything_is_emitted(solver, emit, tmp_path):
    (tmp_path / "adder8.qbr").write_text(adder_source(8))
    proc = run_cli(["verify", "adder8.qbr", "--solver", solver, emit, "out"], cwd=tmp_path)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert "error:" in proc.stderr
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------------
# emission


def test_emitted_files_and_names(qbr, tmp_path):
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    d = tmp_path / "out"
    assert main(["verify", path, "--emit-dimacs", str(d), "--emit-smtlib", str(d)]) == EXIT_UNSAFE
    names = sorted(p.name for p in d.iterdir())
    assert names == [
        "leaky.a.cond1.cnf",
        "leaky.a.cond1.smt2",
        "leaky.a.cond2.cnf",
        "leaky.a.cond2.smt2",
    ]
    assert (d / "leaky.a.cond2.cnf").read_text() == "c var 1 = q4\np cnf 1 1\n1 0\n"
    smt = (d / "leaky.a.cond2.smt2").read_text()
    assert smt == "(declare-const q!q4 Bool)\n(assert q!q4)\n(check-sat)\n"
    # every emitted cnf parses
    for p in d.glob("*.cnf"):
        parse_dimacs(p.read_text())


def test_emitted_files_per_qubit(qbr, tmp_path):
    path = qbr("adder.qbr", adder_source(8))
    d = tmp_path / "cnf"
    main(["verify", path, "--emit-dimacs", str(d)])
    assert len(list(d.iterdir())) == 7 * 2  # n-1 dirty qubits, two conditions


# --------------------------------------------------------------------------
# reports


def scrub(doc):
    doc = dict(doc)
    doc.pop("total_ms")
    doc["verdicts"] = [{k: v for k, v in row.items() if k != "solve_ms"} for row in doc["verdicts"]]
    return doc


def test_report_json_deterministic(qbr, tmp_path):
    path = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["verify", path, "--report", str(r1)])
    main(["verify", path, "--report", str(r2)])
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    assert scrub(d1) == scrub(d2)
    assert d1["qubits"] == 5 and d1["gates"] == 3
    byq = {v["qubit"]: v for v in d1["verdicts"]}
    assert byq["a"]["status"] == "unsafe"
    assert byq["a"]["violated"] == "cond2"
    assert byq["a"]["witness"] == {"q4": True}
    assert byq["q1"]["status"] == "skipped"


@pytest.mark.parametrize(
    "name, src, code",
    [("leaky", LEAKY_CCCNOT_SRC, EXIT_UNSAFE), ("cccnot", SAFE_CCCNOT_SRC, EXIT_SAFE)],
    ids=["leaky", "cccnot"],
)
def test_report_bytes_match_the_golden_file(name, src, code, tmp_path, monkeypatch):
    # pins key order, layout and number formats, which parsed comparisons do not;
    # the timing fields are the only bytes that may vary, so they are set to 0
    monkeypatch.chdir(tmp_path)
    Path(f"{name}.qbr").write_text(src)
    assert main(["verify", f"{name}.qbr", "--report", "r.json"]) == code
    got = re.sub(rb'"(total_ms|solve_ms)": [0-9.e+-]+', rb'"\1": 0', Path("r.json").read_bytes())
    assert got == (Path(__file__).parent / "golden" / f"{name}.report.json").read_bytes()


def test_report_echoes_config(qbr, tmp_path):
    path = qbr("safe.qbr", SAFE_CCCNOT_SRC)
    r = tmp_path / "r.json"
    main(["verify", path, "--report", str(r), "--budget-conflicts", "123"])
    doc = json.loads(r.read_text())
    assert set(doc["config"]) == {"solver", "budget_conflicts", "budget_seconds"}
    assert doc["config"]["budget_conflicts"] == 123
    assert doc["config"]["solver"] == "internal"


# --------------------------------------------------------------------------
# flags are the only configuration


def test_cli_ignores_qborrow_environment(qbr, tmp_path, monkeypatch, capsys):
    # the CLI reads no environment: variables named like its flags change nothing
    path = qbr("safe.qbr", SAFE_CCCNOT_SRC)
    emit, report = tmp_path / "emit", tmp_path / "r.json"
    monkeypatch.setenv("QBORROW_SOLVER", "cmd:false")
    monkeypatch.setenv("QBORROW_BUDGET_CONFLICTS", "0")
    monkeypatch.setenv("QBORROW_ORACLE", "1")
    monkeypatch.setenv("QBORROW_EMIT_SMTLIB", str(emit))
    assert main(["verify", path, "--report", str(report)]) == EXIT_SAFE
    assert json.loads(report.read_text())["config"]["solver"] == "internal"
    assert not emit.exists()
    with pytest.raises(SystemExit) as exc:
        main(["gen", "adder", "-o", str(tmp_path / "x.qbr")])  # --size is required
    assert exc.value.code == EXIT_ERROR
    assert "--size" in capsys.readouterr().err


# --------------------------------------------------------------------------
# witness replay and cross-checks


def test_witness_replays(leaky_circuit):
    a = leaky_circuit.qubit("a")
    assert witness_violates(leaky_circuit, a, {"q4": True}, "cond2")
    assert not witness_violates(leaky_circuit, a, {"q4": False}, "cond2")


def test_cross_check_flags_wrong_verdict(safe_circuit, capsys):
    report = verify_circuit(safe_circuit)
    assert cross_check(safe_circuit, report)
    # forge a wrong verdict: the checker must catch it
    forged = Report(
        program=report.program,
        n_qubits=report.n_qubits,
        n_gates=report.n_gates,
        verdicts=[Verdict("a", "unsafe", violated="cond1", witness={"a": False})],
    )
    assert not cross_check(safe_circuit, forged)
    assert "disagreement" in capsys.readouterr().err


def test_exit_code_mapping():
    mk = lambda *statuses: Report("p", 1, 1, [Verdict("q", s) for s in statuses])
    assert report_exit_code(mk("safe", "skipped")) == EXIT_SAFE
    assert report_exit_code(mk()) == EXIT_SAFE
    assert report_exit_code(mk("safe", "unsafe", "unknown")) == EXIT_UNSAFE
    assert report_exit_code(mk("safe", "unknown")) == EXIT_UNKNOWN
    assert EXIT_DISAGREE == 4


def test_records_compare_by_value_and_get_fresh_defaults():
    from qborrow.boolform import BoolStore, FormulaState
    from qborrow.satcore import Cnf

    assert Verdict("q", "safe") == Verdict("q", "safe", None, None, None, 0.0, 0, 0, 0)
    assert Verdict("q", "safe") != Verdict("q", "safe", cnf_vars=1)
    a, b = Report("p", 1, 1), Report("p", 1, 1)
    assert a == b and a.verdicts == [] and a.config == {}
    assert a.verdicts is not b.verdicts and a.config is not b.config
    assert a != Report("p", 1, 1, [Verdict("q", "safe")])
    assert Cnf([[1]], 1) == Cnf([[1]], 1, {}, None) != Cnf([[1]], 2)
    assert Cnf([], 0).var_map is not Cnf([], 0).var_map
    store = BoolStore()
    assert FormulaState(store, {}) == FormulaState(store, {}) != FormulaState(BoolStore(), {})


# --------------------------------------------------------------------------
# bench


def test_bench_empty_sizes(capsys):
    assert main(["bench", "adder", "--sizes", ""]) == EXIT_SAFE
    out = capsys.readouterr().out
    assert "kind" in out  # header only
    assert "adder" not in out.splitlines()[-1]


def test_bench_rows_and_report(tmp_path, capsys):
    rep = tmp_path / "bench.json"
    code = main(["bench", "mcx", "--sizes", "4,5", "--report", str(rep)])
    assert code == EXIT_SAFE
    out = capsys.readouterr().out
    assert out.count("all-safe") == 2
    doc = json.loads(rep.read_text())
    assert [r["size"] for r in doc["rows"]] == [4, 5]
    assert [r["gates"] for r in doc["rows"]] == [32, 48]
    assert all(r["verdict"] == "all-safe" for r in doc["rows"])
    assert all(r["verify_ms"] > 0 for r in doc["rows"])


def test_bench_bad_size(capsys):
    assert main(["bench", "adder", "--sizes", "8,1"]) == EXIT_ERROR
    assert "size out of range" in capsys.readouterr().err


# --------------------------------------------------------------------------
# malformed input to the command line: exit 2, never a traceback


def run_cli(args, cwd=None):
    src = str(Path(qborrow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "qborrow.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "adder", "--sizes", "4", "--solver", "bogus"],
        ["bench", "adder", "--sizes", "x"],
        ["bench", "mcx", "--sizes", "4", "--budget-seconds", "abc"],
        ["bench", "mcx", "--sizes", "4", "--budget-conflicts", "abc"],
        ["gen", "adder", "--size", "abc", "-o", "out.qbr"],
        ["gen", "adder", "--size", "100000000", "-o", "out.qbr"],
        # an output path that cannot be written: exit 1 would misreport a safe program
        ["verify", "prog.qbr", "--report", "missing/r.json"],
        ["verify", "prog.qbr", "--emit-dimacs", "prog.qbr"],
        ["verify", "prog.qbr", "--emit-smtlib", "prog.qbr/x"],
        ["gen", "adder", "--size", "4", "-o", "missing/x.qbr"],
        ["bench", "adder", "--sizes", "4", "--report", "missing/r.json"],
        # a budget that is not finite or is negative
        ["verify", "prog.qbr", "--budget-seconds", "inf", "--solver", "cmd:true"],
        ["verify", "prog.qbr", "--budget-seconds", "nan"],
        ["verify", "prog.qbr", "--budget-seconds", "-1"],
        ["verify", "prog.qbr", "--budget-seconds", "inf"],
        ["verify", "prog.qbr", "--budget-conflicts", "-1"],
    ],
)
def test_malformed_input_exits_2(args, tmp_path):
    (tmp_path / "prog.qbr").write_text(SAFE_CCCNOT_SRC)
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1, proc.stderr


@pytest.mark.parametrize(
    "source",
    [
        "let x = " + "(" * 400 + "1" + ")" * 400 + ";\n",
        "let x = " + "+".join(["1"] * 3000) + ";\n",
        "borrow a;\n" + "for i = 1 to 1 {\n" * 1000 + "X[a];\n" + "}\n" * 1000,
    ],
    ids=["parentheses", "operator-chain", "for-loops"],
)
def test_deep_nesting_exits_2(source, tmp_path):
    (tmp_path / "deep.qbr").write_text(source)
    proc = run_cli(["verify", "deep.qbr"], cwd=tmp_path)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: deep.qbr:")
    assert "levels of nesting" in proc.stderr


def test_literal_over_the_int_string_limit_exits_2(tmp_path):
    # Python's int() refuses strings of over 4300 digits
    (tmp_path / "big.qbr").write_text("let n = " + "9" * 5000 + ";\n")
    proc = run_cli(["verify", "big.qbr"], cwd=tmp_path)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == proc.stderr.count("error:") == 1, proc.stderr
    assert proc.stderr.startswith("error: big.qbr:1:9: integer literal 999")
    assert proc.stderr.endswith("999 exceeds 64-bit range\n")


def test_source_that_is_not_utf8_exits_2(tmp_path):
    (tmp_path / "latin1.qbr").write_bytes(b"borrow a;\n// caf\xe9\nX[a];\n")
    proc = run_cli(["verify", "latin1.qbr"], cwd=tmp_path)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert proc.stderr == "error: latin1.qbr: not UTF-8 text (invalid continuation byte at byte 16)\n"


# --------------------------------------------------------------------------
# misc plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qborrow" in capsys.readouterr().out


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing file argument
    assert exc.value.code == 2


def test_import_leaves_numpy_unloaded(qbr):
    # numpy is for the tests' reference oracle alone; `verify --oracle` runs without it
    src = str(Path(qborrow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    safe, leaky = qbr("safe.qbr", SAFE_CCCNOT_SRC), qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    code = (
        "import sys, qborrow, qborrow.cli; qborrow.cli.main(sys.argv[1:]); "
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", safe, "--oracle"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    blocked = (
        "import sys; sys.modules['numpy'] = None; "
        "from qborrow.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    for path, expected in ((safe, EXIT_SAFE), (leaky, EXIT_UNSAFE)):
        proc = subprocess.run(
            [sys.executable, "-c", blocked, "verify", path, "--oracle"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == expected, proc.stderr


def _loaded_by_verify(argv, watched, *flags):
    """Run `main(argv)` in a fresh interpreter started with `flags`; return
    its exit code and which `watched` modules it loaded that the interpreter
    had not loaded itself."""
    src = str(Path(qborrow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; before = set(sys.modules); from qborrow.cli import main; "
        "code = main(sys.argv[2:]); loaded = set(sys.modules) - before; "
        "print(sorted(loaded & set(sys.argv[1].split(',')))); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, ",".join(watched), *argv],
        capture_output=True, text=True, env=env,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout.splitlines()[-1]


def test_verify_leaves_the_external_solver_modules_unloaded(qbr, tmp_path):
    # only `cmd:` solvers run a subprocess, only reports need json, and
    # benchgen, the idle analysis and the numpy oracle are not verify's
    watched = (
        "shlex", "signal", "subprocess", "json",
        "qborrow.benchgen", "qborrow.idle", "qborrow.oracle", "numpy",
    )
    safe = qbr("safe.qbr", SAFE_CCCNOT_SRC)
    assert _loaded_by_verify(["verify", safe], watched) == (EXIT_SAFE, "[]")
    report = tmp_path / "r.json"
    assert _loaded_by_verify(["verify", safe, "--report", str(report)], watched) == (
        EXIT_SAFE,
        "['json']",
    )
    assert json.loads(report.read_text())["verdicts"][0]["status"] == "safe"


def test_verify_leaves_tempfile_unloaded(qbr):
    # only a cmd: solver without an emit directory writes a temporary
    # script; -S keeps site from loading tempfile first
    leaky = qbr("leaky.qbr", LEAKY_CCCNOT_SRC)
    assert _loaded_by_verify(["verify", leaky], ["tempfile"], "-S") == (EXIT_UNSAFE, "[]")
    shim = "cmd:" + shlex.join(SHIM)
    assert _loaded_by_verify(["verify", leaky, "--solver", shim], ["tempfile"], "-S") == (
        EXIT_UNSAFE,
        "['tempfile']",
    )


def test_only_the_parse_types_are_dataclasses():
    # the types built once per token and AST node stay dataclasses; every
    # other record the CLI loads, QubitId included, is a NamedTuple or a
    # slotted class
    src = str(Path(qborrow.__file__).resolve().parent.parent)
    code = (
        "import dataclasses, sys, qborrow.cli\n"
        "for name, m in sorted(sys.modules.items()):\n"
        "    for v in vars(m).values() if name.startswith('qborrow.') else ():\n"
        "        if isinstance(v, type) and v.__module__ == name:\n"
        "            if dataclasses.is_dataclass(v):\n"
        "                print(name, v.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    ast = "Num Name Neg BinOp RegRef Let Declare Release GateStmt For ProgramAst".split()
    expected = {("qborrow.frontend", c) for c in ["Token", *ast]}
    got = [tuple(line.split()) for line in proc.stdout.splitlines()]
    assert len(got) == len(expected) == 12 and set(got) == expected


def test_console_script_entry_point_is_cli_main(capsys):
    # install-free: pyproject's [project.scripts] entry resolves to main
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["qborrow"]
    module, _, attr = target.partition(":")
    assert (module, attr) == ("qborrow.cli", "main")
    assert getattr(importlib.import_module(module), attr) is main
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0 and capsys.readouterr().out == f"qborrow {qborrow.__version__}\n"


def test_every_name_the_benchmark_binds_is_bound():
    # perfbench's tracer wraps each function named in its LAYER_OF wherever
    # a qborrow module binds it, and its workers call these attributes of
    # qborrow.cli, so a refactor that drops one would break the benchmark.
    # The tracer is run from its path, which writes no bytecode
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    bound = {
        attr
        for info in pkgutil.iter_modules(qborrow.__path__)
        for attr, value in vars(importlib.import_module(f"qborrow.{info.name}")).items()
        if callable(value) and getattr(value, "__module__", "").startswith("qborrow.")
    }
    assert set(runpy.run_path(str(path))["LAYER_OF"]) - bound == set()
    cli = importlib.import_module("qborrow.cli")
    for name in ("main", "cmd_verify", "verify_circuit", "witness_violates", "track", "solve"):
        assert callable(getattr(cli, name, None)), name


def test_console_script_installed():
    import shutil

    exe = shutil.which("qborrow")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0 and "qborrow" in proc.stdout
