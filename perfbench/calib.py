"""Calibration: the machine's speed right now, measured next to the program.

The shared machine this benchmark was built on changes speed by 20% and more
for seconds to minutes at a time, and by 40% between two series of runs a
few minutes apart; process CPU time moves with wall time, so this is CPU
speed, not scheduling.  No estimator over one run's own samples removes a
slow spell that lasts the whole run.  So every timing is taken next to a
fixed reference task that does not involve qborrow, and reported at the
reference speed:

    time at reference speed = measured time * REF / reference task's time

where the reference task's time is the mean of the calibrations just before
and just after the timed work.  A change to qborrow moves the measured time
and leaves the reference task alone, so it shows in full; a slow spell moves
both, and cancels.

Two reference tasks, each shaped like the work it calibrates:

  * `kernel_ms()`: a pure-Python loop over dicts, tuples and lists in the
    measuring process, for the in-process workloads (`REF_KERNEL_MS`);
  * `spawn_ms()`: a fresh interpreter that imports what `qborrow.cli`
    imports from outside qborrow, numpy included, timed from spawn to exit,
    for the CLI processes and the set-up probes (`REF_SPAWN_MS`).  Process
    starts and imports slow down unlike bytecode: against the loop, CLI
    process times tracked with a slope of 0.4 sample by sample, against
    this task with 0.8.

The REF constants are round figures near what each task took on the
machine the benchmark was built on (2 vCPUs, Python 3.11.7), so reported
times read close to that machine's milliseconds.
"""

import subprocess
import sys
from time import perf_counter

REF_KERNEL_MS = 20.0
REF_SPAWN_MS = 180.0
KERNEL_STEPS = 25_000  # about 20 ms on the machine above

SPAWN_CODE = (
    "import argparse, concurrent.futures, dataclasses, json, shlex, subprocess, tempfile\n"
    "import numpy\n"
)


def kernel(steps: int = KERNEL_STEPS) -> int:
    counts: dict = {}
    odd = []
    acc = 0
    for i in range(steps):
        k = (i * 40503) & 1023
        t = (k, i & 7)
        counts[t] = counts.get(t, 0) + 1
        if k & 1:
            odd.append(t)
        acc ^= hash(t) & 0xFFFF
    odd.sort()
    return acc + sum(counts.values()) + len(odd)


def kernel_ms(reps: int = 1) -> float:
    """Mean time of `reps` runs of the loop."""
    t0 = perf_counter()
    for _ in range(reps):
        kernel()
    return (perf_counter() - t0) * 1000.0 / reps


def spawn_ms(reps: int = 1, env=None) -> float:
    """Mean time of `reps` calibration processes, one after the other."""
    t0 = perf_counter()
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", SPAWN_CODE], capture_output=True, env=env, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"calibration process exited {proc.returncode}: {proc.stderr[-400:]!r}"
            )
    return (perf_counter() - t0) * 1000.0 / reps


def scale(before_ms: float, after_ms: float, ref_ms: float) -> float:
    """Factor that takes a time measured between two calibrations to the
    reference speed."""
    return ref_ms / ((before_ms + after_ms) / 2.0)
