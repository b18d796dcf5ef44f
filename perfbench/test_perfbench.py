"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_passes_the_gate_on_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "FAIL" not in proc.stdout
    result = last_json(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0


def test_without_sources_it_fails_without_a_result():
    bare = ROOT / ".perfbench" / "test-no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "adder", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mutant_cache_matches_the_generated_sources():
    programs = inputs.load_mutants()
    assert len(programs) == 181
    assert sum(len(p.safe) for p in programs) == 733


def test_gate_rejects_a_wrong_verdict_and_a_witness_that_does_not_replay():
    runner = worker.InProcess([])
    wrong = inputs.Program("leaky", inputs.LEAKY_SRC, {"a": True}, skipped=4)
    gate = worker.Gate()
    runner.run_one(wrong, gate)
    assert gate.failed == 1 and "expected safe" in gate.errors[0]

    right = inputs.Program("leaky", inputs.LEAKY_SRC, {"a": False}, skipped=4)
    circuit, report = runner.verify(right.source)
    (verdict,) = [v for v in report.verdicts if v.qubit == "a"]
    verdict.witness = {label: False for label in verdict.witness}  # q4=0 hides the leak
    gate = worker.Gate()
    worker.check_report(gate, right, circuit, report, runner.cli.witness_violates)
    assert gate.failed == 1 and "does not replay" in gate.errors[0]


def test_tracer_wraps_each_function_wherever_it_is_bound():
    import qborrow
    from qborrow import boolform, cli, satcore

    originals = (boolform.track, satcore.solve)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.track is boolform.track is qborrow.track is not originals[0]
        assert cli.solve is satcore.solve is qborrow.solve is not originals[1]
        tr.program = "leaky"
        tr.call(tracer.ROOT, worker.InProcess([]).verify, (inputs.LEAKY_SRC,))
    finally:
        tr.uninstall()
    assert (boolform.track, satcore.solve) == originals
    assert cli.track is originals[0]
    names = {s[0] for s in tr.spans}
    assert {"program", "parse_source", "elaborate", "verify_circuit", "track",
            "cond_restore_zero", "tseitin", "solve"} <= names
    _, root_total, root_self = tracer.layer_times(tr.spans)
    assert root_total > 0 and root_self < root_total
    assert tr.counts["satcore.calls.sat"] == 1  # leaky: cond1 is the constant false, cond2 sat


def test_untraced_work_inside_verify_circuit_fails_the_traced_run():
    def layers(self_ms):
        times = dict.fromkeys(tracer.TIME_METRICS, 0.0)
        times["satcore.solve_ms.unsat"] = 100.0 - self_ms
        times["cli.driver_self_ms"] = self_ms
        counts = dict.fromkeys(tracer.COUNT_METRICS, 0)
        return [(times, counts, 100.0, 0.0)]

    passes = {False: [1.0], True: [1.1]}
    _, problems = worker.per_layer(passes, layers(1.0))
    assert problems == []
    _, problems = worker.per_layer(passes, layers(10.0))
    assert len(problems) == 1 and "cli.driver_self_ms" in problems[0]


def test_cli_processes_run_without_qborrow_settings(monkeypatch):
    monkeypatch.setenv("QBORROW_ORACLE", "1")
    runner = worker.CliProcesses([])
    try:
        assert not any(k.startswith("QBORROW_") for k in runner.env)
    finally:
        runner.close()


def test_setup_probes_are_scaled_to_the_reference_speed(monkeypatch):
    from time import monotonic

    import calib
    import run

    # a machine at half the reference speed: calibrations take twice as long
    monkeypatch.setattr(calib, "spawn_ms", lambda reps=1, env=None: 2 * calib.REF_SPAWN_MS)
    cmd = run.worker_cmd("adder", 1, extra=["--setup-only", "--smoke"])
    monkeypatch.setattr(run, "child_json", lambda cmd, deadline: {"setup_s": 0.3})
    assert run.setup_probes(cmd, 3, monotonic() + 60) == [0.15] * 3


def test_each_program_is_scaled_by_the_calibrations_beside_it():
    class Runner:
        ref_ms = 10.0
        cal_every_s = 0.25
        cals = iter([10.0, 20.0, 40.0])
        reps = []

        def calibrate(self, reps):
            self.reps.append(reps)
            return next(self.cals)

        def run_one(self, p, gate, tr=None):
            return p.source

    order = [inputs.Program(str(i), t) for i, t in enumerate((0.1, 0.2, 0.3))]
    runner = Runner()
    scaled, cals = worker.run_pass(runner, order, worker.Gate())
    assert cals == [10.0, 20.0, 40.0]
    # 0.1 and 0.2 ran between the calibrations of 10 and 20 ms, 0.3 between 20 and 40
    assert scaled == pytest.approx([0.1 / 1.5, 0.2 / 1.5, 0.3 / 3.0])
    # each calibration after programs lasts a fifth of their time: 0.3 s -> 6 x 10 ms
    assert runner.reps == [1, 6, 6]


def test_cli_peak_rss_is_that_of_the_cli_processes_alone():
    prog = inputs.Program("leaky", inputs.LEAKY_SRC, {"a": False}, exit_code=1, skipped=4)
    runner = worker.CliProcesses([prog])
    try:
        gate = worker.Gate()
        assert runner.run_one(prog, gate) > 0 and gate.failed == 0
        assert runner.peak_rss_mb() > 5
    finally:
        runner.close()
