"""`qborrow` CLI process with the layer spans of `tracer.py` switched on.

    python3 perfbench/cli_child.py SPANS_OUT PROGRAM_ID verify FILE ...

Imports `qborrow.cli`, installs the tracer, runs `cli.main` on the remaining
arguments with its `cmd_verify` call as the root span (argument parsing stays
outside, as the benchmark's own code does in the in-process workloads),
writes the spans and counters to SPANS_OUT as JSON when it ends, and exits
with the CLI's exit code.  `worker.py` runs
this in place of `python -m qborrow.cli` for the traced passes of the
`cli-small` workload.
"""

import json
import sys
from pathlib import Path

import tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spans_out, program, *argv = sys.argv[1:]
    sys.path.insert(0, str(SRC))
    from qborrow import cli

    tr = tracer.Tracer()
    tr.program = program
    tr.install()
    cmd_verify = cli.cmd_verify
    cli.cmd_verify = lambda *args, **kwargs: tr.call(tracer.ROOT, cmd_verify, args, kwargs)
    try:
        code = cli.main(argv)
    finally:
        cli.cmd_verify = cmd_verify
        tr.uninstall()
        Path(spans_out).write_text(json.dumps({"spans": tr.spans, "counts": tr.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
