"""Spans around the calls into each qborrow layer, recorded from outside.

`Tracer.install()` replaces each traced function at every `qborrow.*` module
attribute bound to it, so calls through `cli`, through the package namespace
or through the defining module all record a span, wherever the function is
defined.  `uninstall()` puts the originals back.  Spans stay in memory; the
caller writes them out when the run ends.

A span is (name, start, end, parent index, program id, tag).  Its self time
is its duration minus that of its children; summing self times by layer gives
the per-layer metrics, and the benchmark's own `program` root span measures
what the layers must account for.
"""

import sys
from time import perf_counter

# traced function name -> per-layer time metric its self time adds to
LAYER_OF = {
    "tokenize": "frontend.parse_ms",
    "parse_source": "frontend.parse_ms",
    "elaborate": "elaborator.elaborate_ms",
    "verify_circuit": "cli.driver_self_ms",
    "track": "boolform.track_ms",
    "cond_restore_zero": "boolform.cond1_ms",
    "cond_restore_plus": "boolform.cond2_ms",
    "count_nodes": "boolform.count_nodes_ms",
    "tseitin": "satcore.tseitin_ms",
    "solve": "satcore.solve_ms.{tag}",
    "witness_violates": "oracle.replay_ms",
    "apply_classical": "oracle.replay_ms",
}
ROOT = "program"  # the benchmark's own span: source text -> finished report
REPLAY = "replay"  # the benchmark's own span around the witness replays

TIME_METRICS = (
    "frontend.parse_ms",
    "elaborator.elaborate_ms",
    "boolform.track_ms",
    "boolform.cond1_ms",
    "boolform.cond2_ms",
    "boolform.count_nodes_ms",
    "satcore.tseitin_ms",
    "satcore.solve_ms.unsat",
    "satcore.solve_ms.sat",
    "satcore.solve_ms.const",
    "cli.driver_self_ms",
    "oracle.replay_ms",
)
COUNT_METRICS = (
    "frontend.tokens",
    "elaborator.gates",
    "elaborator.qubits",
    "boolform.store_nodes",
    "boolform.cond_nodes",
    "boolform.cond_const",
    "boolform.cond2_built",
    "satcore.cnf_vars",
    "satcore.cnf_clauses",
    "satcore.calls.unsat",
    "satcore.calls.sat",
    "satcore.calls.const",
    "oracle.replays",
)


def _solve_tag(result, args, kwargs) -> str:
    root = args[1] if len(args) > 1 else kwargs.get("root")
    return "const" if root is None else result.status


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.program = None
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, tag=None):
        kwargs = kwargs or {}
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans[idx] = (name, t0, perf_counter(), parent, self.program, "error")
            raise
        finally:
            self._stack.pop()
        t1 = perf_counter()
        self.spans[idx] = (name, t0, t1, parent, self.program, tag and tag(result, args, kwargs))
        return result

    def _counted(self, name, result, args, kwargs):
        c = self.counts
        if name == "tokenize":
            c["frontend.tokens"] += len(result)
        elif name == "elaborate":
            c["elaborator.gates"] += len(result.gates)
            c["elaborator.qubits"] += result.n_qubits
        elif name == "track":
            c["boolform.store_nodes"] += len(result.store)
        elif name in ("cond_restore_zero", "cond_restore_plus"):
            c["boolform.cond_const"] += result.op in ("false", "true")
            c["boolform.cond2_built"] += name == "cond_restore_plus"
        elif name == "count_nodes":
            c["boolform.cond_nodes"] += result
        elif name == "tseitin":
            cnf = result[0]
            c["satcore.cnf_vars"] += cnf.n_vars
            c["satcore.cnf_clauses"] += len(cnf.clauses)
        elif name == "solve":
            tag = _solve_tag(result, args, kwargs)
            c[f"satcore.calls.{tag}"] += 1
            return tag
        elif name == "witness_violates":
            c["oracle.replays"] += 1
        return None

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(
                name, fn, args, kwargs, lambda r, a, k: tracer._counted(name, r, a, k)
            )

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every traced function at each qborrow.* attribute bound to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qborrow" or n.startswith("qborrow."))
        ]
        originals = {}
        for m in modules:
            for attr, value in vars(m).items():
                if (
                    attr in LAYER_OF
                    and callable(value)
                    and getattr(value, "__module__", "").startswith("qborrow.")
                ):
                    originals.setdefault(id(value), (attr, value))
        wrappers = {key: self._wrapper(attr, fn) for key, (attr, fn) in originals.items()}
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in wrappers and originals[id(value)][1] is value:
                    setattr(m, attr, wrappers[id(value)])
                    self._patched.append((m, attr, value))
        missing = set(LAYER_OF) - {attr for attr, _ in originals.values()}
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions not found in qborrow: {sorted(missing)}")

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patched):
            setattr(m, attr, value)
        self._patched.clear()


# -- aggregation ---------------------------------------------------------------


def layer_times(spans) -> tuple[dict, float, float]:
    """Per-layer self time in ms, plus the total and the self time of the
    root spans (what the layers leave unaccounted)."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _pid, _tag in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out = dict.fromkeys(TIME_METRICS, 0.0)
    root_total = root_self = 0.0
    for i, (name, t0, t1, parent, _pid, tag) in enumerate(spans):
        self_ms = (t1 - t0 - child_time[i]) * 1000.0
        if name == ROOT:
            root_total += (t1 - t0) * 1000.0
            root_self += self_ms
        elif name in LAYER_OF:
            metric = LAYER_OF[name].format(tag=tag)
            if metric in out:
                out[metric] += self_ms
    return out, root_total, root_self


def span_records(spans, pass_no: int):
    for i, (name, t0, t1, parent, pid, tag) in enumerate(spans):
        yield {
            "pass": pass_no, "id": i, "name": name, "start": t0, "end": t1,
            "parent": parent, "program": pid, "tag": tag,
        }
