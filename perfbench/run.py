"""qborrow benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload adder --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`, never from an installed copy.  Workloads, metrics and the
layer map are described in `perfbench/README.md`; names and units come from
`BENCHMARK.json`.

`--trace 0` reports the end-to-end metrics:
  * setup_s: median over SETUP_PROBES fresh processes, run after the
    measuring process, that import qborrow, generate the seeded inputs and
    load the expected answers; each is taken at the reference speed of
    `calib.py`, against the calibration processes run before and after it;
  * everything else from one worker process that runs only this workload.
`--trace 1` reports the per-layer metrics: a worker that alternates
untraced and traced passes, then an import probe in fresh interpreters.
The whole run, and every process it starts, stays on one CPU, so that the
calibrations and the work they calibrate see the same CPU.

The last line of standard output is the JSON result.  Exit code 0 means the
run finished and every output passed the correctness gate; 1 means the gate
failed (the result says how), 2 means no result could be produced.
`--smoke` runs every workload at its smallest size, traced and untraced,
through the same gate; its last line is correct only if every run was, and
sums their attempted and failed counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("adder", "mcx", "mutants", "cli-small")

SETUP_PROBES = 7
IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0  # the whole run, probes included

IMPORT_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import qborrow.cli
ms = (time.perf_counter() - t) * 1000.0
print(json.dumps({"ms": ms, "numpy": "numpy" in sys.modules, "file": qborrow.cli.__file__}))
"""


class NoResult(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required unless --smoke is given")
    return args


def child_json(cmd, deadline: float) -> dict:
    """Run one child to completion and parse the JSON on its last line."""
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise NoResult(f"{' '.join(map(str, cmd[1:3]))} ran out of time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise NoResult(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_cmd(workload, seed, seconds=None, trace=0, extra=()):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    return cmd + list(extra)


def import_probe(deadline: float) -> dict:
    src = ROOT / "src"
    out = child_json([sys.executable, "-c", IMPORT_PROBE, str(src)], deadline)
    if Path(out["file"]).resolve().parent.parent != src.resolve():
        raise NoResult(f"qborrow imported from {out['file']}, not from {src}")
    return out


def setup_probes(cmd, n: int, deadline: float) -> list[float]:
    """Set-up times of n fresh processes, at the reference speed; one
    calibration process before the first, then one after each."""
    cals, out = [calib.spawn_ms()], []
    for _ in range(n):
        setup_s = child_json(cmd, deadline)["setup_s"]
        cals.append(calib.spawn_ms())
        out.append(setup_s * calib.scale(cals[-2], cals[-1], calib.REF_SPAWN_MS))
    return out


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(workload, seed, seconds, trace, smoke, deadline) -> dict:
    extra = ["--smoke"] if smoke else []
    doc = child_json(worker_cmd(workload, seed, seconds, trace, extra), deadline)
    if "metrics" not in doc:
        return doc
    # the probes run after the measuring process, when process starts run warm
    if trace:
        probes = [import_probe(deadline) for _ in range(1 if smoke else IMPORT_PROBES)]
        doc["metrics"]["import.qborrow_ms"] = statistics.median(p["ms"] for p in probes)
        doc["metrics"]["import.numpy_loaded"] = int(all(p["numpy"] for p in probes))
    else:
        cmd = worker_cmd(workload, seed, extra=["--setup-only"])
        setups = setup_probes(cmd, 0 if smoke else SETUP_PROBES, deadline)
        doc["metrics"]["setup_s"] = statistics.median(setups or [doc["setup_s"]])
    return doc


def result_line(doc: dict, spec: list) -> dict:
    metrics = doc.get("metrics", {})
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in spec})
    errors = list(doc["errors"])
    if missing or extra:
        errors.append(f"metrics missing {missing} or not in BENCHMARK.json {extra}")
    return {
        "correct": doc["failed"] == 0 and not errors,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in metrics
        },
    }, errors


def report(workload: str, doc: dict, result: dict, errors: list) -> None:
    print(
        f"# {workload}: {doc['passes']} passes of {doc['programs_per_pass']} programs, "
        f"{doc['samples']} untraced programs timed; calibration took "
        f"{doc['calibration_ms']:.4g} ms (reference {doc['ref_ms']:g} ms), "
        f"so times as measured are {doc['calibration_ms'] / doc['ref_ms']:.3f}x those below"
    )
    for name, m in result["metrics"].items():
        print(f"{workload:<10} {name:<30} {m['value']:>14.6g} {m['unit']}")
    for e in errors:
        print(f"{workload}: FAIL {e}")


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "qborrow" / "__init__.py").is_file():
        print(f"error: no qborrow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_to_one_cpu()
    runs = (
        [(w, t) for w in WORKLOADS for t in (0, 1)]
        if args.smoke else [(args.workload, args.trace)]
    )
    results = []
    for workload, trace in runs:
        try:
            doc = run_one(workload, args.seed, args.seconds, trace, args.smoke, deadline)
        except NoResult as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        result, errors = result_line(doc, spec["per_layer" if trace else "end_to_end"])
        report(workload, doc, result, errors)
        results.append(result)
    if args.smoke:
        # one line for all the smoke runs: correct only if every run was
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
