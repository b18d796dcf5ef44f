"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/prove.py --workloads adder,mcx --seeds 1-10
    python3 perfbench/prove.py --seeds 1-10 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs,
their quartiles and the spread (Q3 - Q1) / median next to the metric's bound
from BENCHMARK.json, and the wall time of each run.  It exits 1 if any run
fails or any spread, `setup_s` included, is above its bound.

With `--out` it appends the series (every run, failed ones included, and
those figures) to the JSON file's `series` list, which is how
`baseline.json` is made, and compares its medians with the series before
it: a median more than its metric's bound away from the earlier one also
makes it exit 1.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_seeds(workload: str, seeds: list[int], seconds: int) -> tuple[list, bool]:
    """One run.py run per seed; every run is kept, failed ones with their output."""
    runs, ok = [], True
    for seed in seeds:
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        run = {"seed": seed, "exit": proc.returncode, "run_s": monotonic() - t0}
        runs.append(run)
        if proc.returncode != 0:
            ok = False
            run["output"] = (proc.stdout[-2000:] + proc.stderr[-2000:]).strip()
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{run['output']}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        # the machine's speed during the run, as run.py prints it
        cal = re.search(r"calibration took ([0-9.e+-]+) ms", proc.stdout)
        if cal:
            run["calibration_ms"] = float(cal.group(1))
    return runs, ok


def spreads(workload: str, runs: list, bounds: dict) -> tuple[dict, bool]:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run.get("metrics", {}).items():
            values.setdefault(name, []).append(value)
    durations = [r["run_s"] for r in runs]
    print(f"# {workload}: runs took {min(durations):.1f}-{max(durations):.1f} s")
    rows, ok = {}, True
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
        if spread > bounds[name]:
            flag, ok = "  <-- ABOVE BOUND", False
        print(f"{workload:<10} {name:<16} median {med:12.6g}  IQR/median {spread:6.3f}  "
              f"bound {bounds[name]:.2f}{flag}")
        print(" " * 11 + " ".join(f"{v:.4g}" for v in vals))
    return rows, ok


def compare(before: dict, after: dict, bounds: dict) -> bool:
    """Medians of two series of the same code must agree within each bound."""
    ok = True
    for workload, cur in after["workloads"].items():
        prev = before["workloads"].get(workload)
        if prev is None:
            continue
        for name, row in cur["metrics"].items():
            old = prev["metrics"].get(name, {}).get("median")
            if not old:
                continue
            change = (row["median"] - old) / old
            flag = ""
            if abs(change) > bounds[name]:
                flag, ok = "  <-- ABOVE BOUND", False
            print(f"{workload:<10} {name:<16} median {old:12.6g} -> {row['median']:<12.6g} "
                  f"{change:+7.3f}  bound {bounds[name]:.2f}{flag}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out")
    p.add_argument("--note", default="", help="written into --out as is, e.g. the machine")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(args.out) if args.out else None
    series = json.loads(out.read_text())["series"] if out and out.exists() else []
    doc = {
        "run_seconds": args.seconds, "python": sys.version.split()[0],
        "cpus": os.cpu_count(), "note": args.note, "workloads": {},
    }
    series.append(doc)
    ok = True
    for workload in args.workloads.split(","):
        runs, ran_ok = run_seeds(workload, seed_list(args.seeds), args.seconds)
        rows, steady = spreads(workload, runs, bounds)
        ok = ok and ran_ok and steady
        doc["workloads"][workload] = {"seeds": args.seeds, "runs": runs, "metrics": rows}
        if out:  # after every workload, so a cut series keeps what it ran
            out.write_text(json.dumps({"series": series}, indent=1) + "\n")
    if len(series) >= 2:
        print("# medians against the series before")
        ok = compare(series[-2], doc, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
