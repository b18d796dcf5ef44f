"""Run one workload in its own process and print one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

`run.py` starts this; it is not meant to be run by hand.  A process per
workload makes `peak_rss_mb` belong to that workload alone.

A run is one untimed warm-up program, then whole passes over the seeded
program set (one closed-loop client: each program starts after the previous
one ends), each pass in a new seeded order, until `--seconds` have passed,
at least MIN_PASSES passes are done and at least MIN_SAMPLES programs are
pooled.

Every program time is taken at the reference speed of `calib.py`: a run
calibrates before its first pass, then after every `cal_every_s` of program
time and at the end of each pass, and each program's time is scaled by the
mean of the calibrations before and after it.  verify_ms.p50 and .p90 are
percentiles over the program times pooled over the run's untraced passes;
wall_s is the median over those passes of the pass's summed program times.  With `--trace 1`,
untraced and traced passes alternate, and the difference between their pass
times is the tracing overhead.  The correctness gate checks every program
right after it is timed; timing excludes the gate.  The first failure ends
the run.
"""

import argparse
import gc
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calib
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# programs verified per run, over all passes.  60, not the 100 that would
# put ten programs beyond p90: runs are bound by this count on adder, mcx
# and cli-small, and at 100 one run of each of the four workloads took
# about 155 s together in a slow spell, so 22 runs of each would overrun
# an hour
MIN_SAMPLES = 60
# with three, adder p50 (the n=16 programs, six samples) spread 0.09 over ten runs
MIN_PASSES = 4
MIN_TRACED_PASSES = 2  # counters must repeat exactly between them
HARD_LIMIT_S = 150.0  # stop adding passes past this, samples or not
# A calibration after a stretch of programs repeats the reference task for
# about this share of the stretch's time, so that long programs are matched
# by a long look at the machine's speed: consecutive 20 ms loops read 11.5,
# 18.2 and 16.3 ms.
CAL_SHARE = 0.2
VERIFY_SELF_MAX_PCT = 5.0  # untraced work inside verify_circuit, of program time

SUMMARY_RE = re.compile(r"^(\d+ safe, \d+ unsafe, \d+ skipped, \d+ unknown) in [0-9.]+ ms$")
VERDICT_RE = re.compile(r"^(\S+): (Safe|Unsafe via (cond[12])(?:, witness \{(.*)\})?|Unknown.*)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# correctness gate


class Gate:
    """Checks every result against the expected answers; counts failures."""

    def __init__(self):
        self.errors: list[str] = []
        self.failed = 0
        self.attempted_qubits = 0
        self.undecided = 0
        self.cond2_unused = 0
        self._seen: dict[str, tuple] = {}

    def fail(self, pid: str, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{pid}: {msg}")

    def same_as_before(self, pid: str, signature: tuple) -> bool:
        return self._seen.setdefault(pid, signature) == signature

    def verdicts(self, p, circuit, got: dict, replay) -> bool:
        """got: label -> (status, violated, witness).  True when all match."""
        self.attempted_qubits += len(p.safe)
        self.undecided += sum(1 for s, _, _ in got.values() if s not in ("safe", "unsafe"))
        self.cond2_unused += sum(1 for _, which, _ in got.values() if which == "cond1")
        if set(got) != set(p.safe):
            self.fail(p.pid, f"verified qubits {sorted(got)} != {sorted(p.safe)}")
            return False
        by_label = {q.label: q for q in circuit.qubits}
        for label, safe in p.safe.items():
            status, which, witness = got[label]
            if status not in ("safe", "unsafe"):
                self.fail(p.pid, f"{label} undecided: {status}")
                return False
            if (status == "safe") != safe:
                self.fail(p.pid, f"{label} is {status}, expected {'safe' if safe else 'unsafe'}")
                return False
            if status == "unsafe" and not replay(circuit, by_label[label], witness, which):
                self.fail(p.pid, f"{label} witness {witness} does not replay as {which}")
                return False
        return True


def check_report(gate: Gate, p, circuit, report, replay) -> None:
    if p.gates is not None and len(circuit.gates) != p.gates:
        gate.fail(p.pid, f"{len(circuit.gates)} gates, expected {p.gates}")
        return
    skipped = sum(v.status == "skipped" for v in report.verdicts)
    if skipped != p.skipped:
        gate.fail(p.pid, f"{skipped} skipped qubits, expected {p.skipped}")
        return
    got = {
        v.qubit: (v.status, v.violated, v.witness)
        for v in report.verdicts
        if v.status != "skipped"
    }
    if not gate.verdicts(p, circuit, got, replay):
        return
    signature = tuple(
        (v.qubit, v.status, v.violated, tuple(sorted((v.witness or {}).items())),
         v.formula_nodes, v.cnf_vars, v.cnf_clauses)
        for v in report.verdicts
    )
    if not gate.same_as_before(p.pid, signature):
        gate.fail(p.pid, "report differs from an earlier pass over the same source")


def check_cli(gate: Gate, p, proc, circuit, replay) -> None:
    if proc.returncode != p.exit_code:
        gate.fail(p.pid, f"exit {proc.returncode}, expected {p.exit_code}: {proc.stderr.strip()[:200]}")
        return
    if p.exit_code == 2:
        if proc.stdout or not proc.stderr.startswith("error: "):
            gate.fail(p.pid, f"malformed input: unexpected output {proc.stderr[:200]!r}")
        return
    lines = proc.stdout.splitlines()
    m = SUMMARY_RE.match(lines[-1]) if lines else None
    if m is None or m.group(1) != p.summary:
        gate.fail(p.pid, f"summary {lines[-1] if lines else ''!r}, expected {p.summary!r}")
        return
    got = {}
    for line in lines[:-1]:
        v = VERDICT_RE.match(line)
        if v is None:
            continue
        label, text, which, bits = v.groups()
        status = "safe" if text == "Safe" else "unsafe" if which else "unknown"
        witness = None
        if bits is not None:
            pairs = (b.split("=") for b in bits.split(", ") if b)
            witness = {k: v == "1" for k, v in pairs}
        got[label] = (status, which, witness)
    # Safe lines end in a timing, so compare the parsed verdicts, not the text
    if gate.verdicts(p, circuit, got, replay) and not gate.same_as_before(p.pid, repr(sorted(got.items()))):
        gate.fail(p.pid, "output differs from an earlier run of the same file")


# ---------------------------------------------------------------------------
# in-process workloads


class InProcess:
    def __init__(self, programs):
        from qborrow import cli, elaborator, frontend

        self.cli, self.elaborator, self.frontend = cli, elaborator, frontend

    def verify(self, source):
        circuit = self.elaborator.elaborate(self.frontend.parse_source(source))
        return circuit, self.cli.verify_circuit(circuit)

    def run_one(self, p, gate: Gate, tr=None) -> float:
        """Time one program from source text to report, then gate it."""
        t0 = perf_counter()
        if tr is None:
            circuit, report = self.verify(p.source)
        else:
            circuit, report = tr.call(tracer.ROOT, self.verify, (p.source,))
        elapsed = perf_counter() - t0
        args = (gate, p, circuit, report, self.cli.witness_violates)
        if tr is None:
            check_report(*args)
        else:
            tr.call(tracer.REPLAY, check_report, args)
        return elapsed

    # a 20 ms loop after every 0.1 s of programs, repeated after longer ones
    calibrate = staticmethod(calib.kernel_ms)
    ref_ms = calib.REF_KERNEL_MS
    cal_every_s = 0.1

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


# ---------------------------------------------------------------------------
# CLI workload


class CliProcesses:
    def __init__(self, programs):
        from qborrow import cli, elaborator

        self.cli = cli
        self.dir = WORK / f"work-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        self.circuits = {}  # for replaying the witnesses the CLI prints
        for i, p in enumerate(programs):
            path = self.dir / f"{i}-{p.pid}.qbr"
            path.write_text(p.source)
            self.paths[p.pid] = path
            if p.exit_code != 2:
                self.circuits[p.pid] = elaborator.elaborate_source(p.source)
        # the CLI reads QBORROW_* variables (oracle, jobs, solver, budgets,
        # report files); drop them so it runs at its defaults, as the
        # in-process workloads do
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("QBORROW_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.child_spans: list[dict] = []  # one entry per traced process
        self.peak_rss_kb = 0  # largest untraced CLI process

    def run_one(self, p, gate: Gate, tr=None) -> float:
        """Time one CLI process from spawn to exit, then gate its output."""
        path = str(self.paths[p.pid])
        spans_out = self.dir / "spans.json"
        if tr is None:
            cmd = [sys.executable, "-m", "qborrow.cli", "verify", path]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_out), p.pid, "verify", path]
        out, err = self.dir / "stdout", self.dir / "stderr"
        with out.open("wb") as fo, err.open("wb") as fe:
            t0 = perf_counter()
            child = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env)
            # wait4, not wait: the peak RSS of this process alone, which the
            # calibration processes beside it do not mask
            watchdog = threading.Timer(60.0, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        if tr is None:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        proc = subprocess.CompletedProcess(
            cmd, child.returncode, out.read_text(), err.read_text()
        )
        args = (gate, p, proc, self.circuits.get(p.pid), self.cli.witness_violates)
        if tr is None:
            check_cli(*args)
        else:
            self.child_spans.append(json.loads(spans_out.read_text()))
            spans_out.unlink()
            tr.call(tracer.REPLAY, check_cli, args)
        return elapsed

    # a fresh interpreter that imports what the CLI imports, about 180 ms,
    # after every two seconds of CLI processes: once a pass
    cal_every_s = 2.0
    ref_ms = calib.REF_SPAWN_MS

    def calibrate(self, reps: int) -> float:
        return calib.spawn_ms(reps, self.env)

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# measurement


def pass_layers(runner, tr, gate_unused: int):
    """Per-layer numbers of one traced pass: (times, counts, root ms, root self ms)."""
    if isinstance(runner, CliProcesses):
        times = dict.fromkeys(tracer.TIME_METRICS, 0.0)
        counts = dict.fromkeys(tracer.COUNT_METRICS, 0)
        root_total = root_self = 0.0
        children, runner.child_spans = runner.child_spans, []
        for child in children:
            t, total, self_ms = tracer.layer_times(child["spans"])
            for k, v in t.items():
                times[k] += v
            for k, v in child["counts"].items():
                counts[k] += v
            root_total += total
            root_self += self_ms
        own, _, _ = tracer.layer_times(tr.spans)  # replays run in this process
        times["oracle.replay_ms"] += own["oracle.replay_ms"]
        counts["oracle.replays"] += tr.counts["oracle.replays"]
    else:
        times, root_total, root_self = tracer.layer_times(tr.spans)
        counts = dict(tr.counts)
    counts["boolform.cond2_unused"] = gate_unused
    return times, counts, root_total, root_self


def run_pass(runner, order, gate: Gate, tr=None, cal_before=None) -> tuple[list[float], list[float]]:
    """Run the programs in order; their times at the reference speed, and
    the calibrations, starting with `cal_before` when the pass follows
    another straight away."""
    cals = [runner.calibrate(1) if cal_before is None else cal_before]
    groups = []  # program times between two calibrations
    pending = []
    for i, p in enumerate(order):
        # start every program from the same heap: garbage left by the one
        # before would otherwise make the collector's work depend on order
        gc.collect()
        if tr is not None:
            tr.program = p.pid
        pending.append(runner.run_one(p, gate, tr))
        since = sum(pending)
        if since >= runner.cal_every_s or i == len(order) - 1:
            groups.append(pending)
            cals.append(runner.calibrate(max(1, round(CAL_SHARE * since * 1000.0 / runner.ref_ms))))
            pending = []
    scaled = []
    for i, times in enumerate(groups):
        factor = calib.scale(cals[i], cals[i + 1], runner.ref_ms)
        scaled += [t * factor for t in times]
    return scaled, cals


@dataclass
class Measured:
    gate: Gate
    # summed program times of each pass, at the reference speed; untraced
    # passes under False, traced ones under True
    passes: dict = field(default_factory=lambda: {False: [], True: []})
    samples: list = field(default_factory=list)  # untraced program times
    cals: list = field(default_factory=list)  # every calibration, in ms
    layers: list = field(default_factory=list)  # one pass_layers() per traced pass
    spans_out: list = field(default_factory=list)


def measure(runner, programs, seconds: float, trace: bool, smoke: bool, seed: int) -> Measured:
    m = Measured(Gate())
    rng = random.Random(seed)
    # warm-up: the smallest program, untimed but gated
    run_pass(runner, [min(programs, key=lambda p: len(p.source))], m.gate)

    t_start = perf_counter()
    traced = False
    cal_before = None
    while True:
        order = list(programs)
        rng.shuffle(order)  # interleave sizes so a slow spell hits all of them
        if traced:
            tr = tracer.Tracer()
            tr.install()
            unused_before = m.gate.cond2_unused
            try:
                pass_times, cals = run_pass(runner, order, m.gate, tr, cal_before)
            finally:
                tr.uninstall()
            m.layers.append(pass_layers(runner, tr, m.gate.cond2_unused - unused_before))
            m.spans_out.append(tr.spans)
        else:
            pass_times, cals = run_pass(runner, order, m.gate, cal_before=cal_before)
            m.samples += pass_times
        m.passes[traced].append(sum(pass_times))
        m.cals += cals[cal_before is not None:]
        cal_before = cals[-1]
        if m.gate.failed:
            break
        elapsed = perf_counter() - t_start
        if trace:
            traced = not traced
            done = min(map(len, m.passes.values())) >= MIN_TRACED_PASSES
        else:
            done = len(m.samples) >= MIN_SAMPLES and len(m.passes[False]) >= MIN_PASSES
        if not smoke:
            done = done and elapsed >= seconds
        elif not trace:
            done = True
        if done or elapsed >= HARD_LIMIT_S:
            break
    return m


def end_to_end(m: Measured, runner) -> dict:
    gate = m.gate
    decided = 1.0 - gate.undecided / gate.attempted_qubits if gate.attempted_qubits else 1.0
    ms = [1000.0 * t for t in m.samples]
    return {
        "wall_s": statistics.median(m.passes[False]),
        "verify_ms.p50": statistics.median(ms),
        "verify_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[-1]
        if len(ms) >= 2 else ms[0],
        "peak_rss_mb": runner.peak_rss_mb(),
        "decided_share": decided,
    }


def per_layer(passes: dict, layers) -> tuple[dict, list[str]]:
    problems = []
    counts = layers[0][1]
    for i, (_, c, _, _) in enumerate(layers[1:], 2):
        diff = sorted(k for k in c if c[k] != counts[k])
        if diff:
            problems.append(f"counters differ between traced passes 1 and {i}: {diff}")
    out = {k: statistics.median(t[k] for t, _, _, _ in layers) for k in tracer.TIME_METRICS}
    out.update({k: v for k, v in counts.items() if k != "boolform.cond2_built"})
    built = counts["boolform.cond2_built"]
    out["boolform.cond2_useful_ratio"] = 1.0 - counts["boolform.cond2_unused"] / built if built else 1.0
    untraced = statistics.median(passes[False])
    out["trace.overhead_pct"] = 100.0 * (statistics.median(passes[True]) - untraced) / untraced
    root_total = sum(r for _, _, r, _ in layers)
    root_self = sum(s for _, _, _, s in layers)
    coverage = 100.0 * (1.0 - root_self / root_total) if root_total else 100.0
    out["trace.coverage_pct"] = coverage
    if coverage < 95.0:
        problems.append(f"layer self times cover {coverage:.1f}% of traced program time (< 95%)")
    # the root's only children are parse, elaborate and verify_circuit, so
    # coverage is near 100% by construction; work left unwrapped inside
    # verify_circuit shows up as its self time instead
    untraced_pct = 100.0 * sum(t["cli.driver_self_ms"] for t, _, _, _ in layers) / (root_total or 1.0)
    if untraced_pct > VERIFY_SELF_MAX_PCT:
        problems.append(
            f"cli.driver_self_ms is {untraced_pct:.1f}% of traced program time "
            f"(> {VERIFY_SELF_MAX_PCT}%): a layer inside verify_circuit is not traced"
        )
    return out, problems


def write_spans(workload: str, seed: int, spans_out) -> None:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        for n, spans in enumerate(spans_out):
            for rec in tracer.span_records(spans, n):
                f.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import qborrow

    if Path(qborrow.__file__).resolve().parent != (SRC / "qborrow").resolve():
        print(f"error: imported qborrow from {qborrow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs

    programs = inputs.make_inputs(args.workload, args.seed, smoke=args.smoke)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = (CliProcesses if args.workload == "cli-small" else InProcess)(programs)
    try:
        m = measure(runner, programs, args.seconds, bool(args.trace), args.smoke, args.seed)
        traced_passes = len(m.passes[True])
        doc = {
            "setup_s": setup_s,
            "programs_per_pass": len(programs),
            "passes": len(m.passes[False]) + traced_passes,
            "attempted": len(m.samples) + traced_passes * len(programs),
            "failed": m.gate.failed,
            "errors": m.gate.errors,
            "samples": len(m.samples),
            "calibration_ms": statistics.median(m.cals),
            "ref_ms": runner.ref_ms,
        }
        if args.trace and m.layers and m.passes[False]:
            doc["metrics"], problems = per_layer(m.passes, m.layers)
            doc["errors"] += problems
            write_spans(args.workload, args.seed, m.spans_out)
        elif not args.trace and m.samples:
            doc["metrics"] = end_to_end(m, runner)
    finally:
        runner.close()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
