"""The traced run: per-layer numbers, measured from outside the program.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each layer
function in ``LAYER_FUNCTIONS`` by a timing wrapper at every place a
succorder module binds it, so the CLI's calls and the calls one layer makes
into another are both seen; ``Tracer.uninstall`` puts the originals back.
Each wrapper records one span (name, start, end, parent span, op id).  The
wrapper of the ``iter_layers`` generator records the time spent inside it and
the number of sets it yielded.  Spans stay in memory and are written once,
at the end of the run.

The run has four parts:

1. start-up: ``python -c pass`` and ``python -X importtime`` in child processes;
2. process calls: a share of the workload's calls as real processes, to
   compare the CLI's own ``elapsed:`` figure with the wall time;
3. a sweep that calls each layer function directly on every input graph
   (the oracle only at n <= 9, ``delete_decompose`` only up to
   ``SWEEP_DELETE_MAX_ISETS`` sets);
4. a replay of the workload's calls through ``succorder.cli.main`` in
   process, each call made once traced and once untraced, in alternating
   order, which gives the tracing overhead.

A layer that neither the calls nor the sweep reach on the workload's graphs
is timed on the paper's sample graphs instead; the span file says so.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import gen
import procs
import workloads

LAYER_FUNCTIONS = (
    "graph.parse_edge_list",
    "graph.is_connected",
    "layers.iter_layers",
    "counting.sigma",
    "counting.compute_b_table",
    "counting.pr_good",
    "polynomial.build_polynomial",
    "polynomial.bad_distribution",
    "polynomial.eval_indicator",
    "polynomial.eval_partial",
    "polynomial.delete_decompose",
    "regular.detect_fully_regular",
    "oracle.brute_sigma",
    "oracle.brute_distribution",
    "oracle.brute_event",
    "randgraph.random_connected_graph",
)

SWEEP_DELETE_MAX_ISETS = 40_000
SWEEP_ORACLE_MAX_N = 9
STARTUP_REPEATS = 5
PROCESS_SHARE = 0.2
REPLAY_SHARE = 0.5

PER_LAYER = [
    ("startup.python_ms", "ms"),
    ("startup.import_succorder_ms", "ms"),
    ("startup.import_numpy_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.unreported_ms", "ms"),
    *((f"{name}_ms", "ms") for name in LAYER_FUNCTIONS),
    ("layers.isets", "count"),
    ("layers.alpha_max", "count"),
    ("layers.max_layer_sets", "count"),
    ("layers.enum_ratio", "ratio"),
    ("counting.sigma_us_per_iset", "us"),
    ("counting.b_bits_max", "bits"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    """In-memory spans around the program's layer functions."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.fn: dict[str, object] = {}
        originals = {}
        for name in LAYER_FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"succorder.{module}"), attr)
            originals[id(original)] = (name, original)
            wrap = self._wrap_generator if attr == "iter_layers" else self._wrap
            self.fn[name] = wrap(name, original)
        self._originals = originals

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "name": name, "start": time.perf_counter()}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            inner = fn(*args, **kwargs)
            busy, sets = 0.0, 0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        layer = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - start
                    sets += len(layer)
                    yield layer
            finally:
                inner.close()
                span.update(end=time.perf_counter(), busy_ms=busy * 1000.0, sets=sets)

        return traced

    def install(self) -> None:
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "succorder"]:
            for attr, value in list(vars(module).items()):
                if id(value) in self._originals:
                    name, original = self._originals[id(value)]
                    if value is original:
                        setattr(module, attr, self.fn[name])
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()


def clear_caches() -> None:
    """Empty every functools cache in the program, so each call starts cold."""
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "succorder":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _importtime(stderr: str) -> tuple[float, float]:
    """(top-level succorder imports, numpy) cumulative ms from ``-X importtime``."""
    succorder_us = numpy_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        cumulative = int(parts[1])
        if not name.startswith(" ") and name.split(".")[0] == "succorder":
            succorder_us += cumulative
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = cumulative
    return succorder_us / 1000.0, numpy_us / 1000.0


def _startup(launcher: procs.Launcher) -> dict[str, float]:
    python_ms, succorder_ms, numpy_ms = [], [], []
    for _ in range(STARTUP_REPEATS):
        python_ms.append(launcher.run(["-c", "pass"]).wall_ms)
        call = launcher.run(["-X", "importtime", "-c", "import succorder.cli"])
        s_ms, n_ms = _importtime(call.stderr)
        succorder_ms.append(s_ms)
        numpy_ms.append(n_ms)
    return {
        "startup.python_ms": statistics.median(python_ms),
        "startup.import_succorder_ms": statistics.median(succorder_ms),
        "startup.import_numpy_ms": statistics.median(numpy_ms),
    }


def _call_main(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Tally:
    """Checked calls and failures of the traced run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.passing: list[tuple] = []
        self.summaries: list[tuple[str, dict]] = []

    def check(self, op, gi, code: int, stdout: str) -> None:
        self.attempted += 1
        try:
            summary = checks.check(op, gi, code, stdout)
        except checks.CheckFailure as exc:
            self.failures.append(f"{op.label}: {exc}")
            return
        self.passing.append((op, gi, stdout))
        self.summaries.append((op.graph, summary))

    def require(self, condition: bool, message: str) -> None:
        self.attempted += 1
        if not condition:
            self.failures.append(message)


def _sweep(tracer: Tracer, tally: Tally, label: str, gi, text: str) -> dict:
    """Call every layer function once on one graph; return its exact counts."""
    fn = tracer.fn
    tracer.op = f"{label}:{gi.name}"
    clear_caches()
    n = gi.n
    half = sum(1 << v for v in range(0, n, 2))
    g = fn["graph.parse_edge_list"](text)
    fn["graph.is_connected"](g)
    sizes = [len(layer) for layer in fn["layers.iter_layers"](g)]
    tally.require(sum(sizes) == gi.isets and len(sizes) - 1 == gi.alpha,
                  f"{gi.name}: iter_layers gave {sum(sizes)} sets, alpha {len(sizes) - 1}")
    sigma = fn["counting.sigma"](g).sigma
    table = fn["counting.compute_b_table"](g)
    scale = math.lcm(*range(1, n + 1))
    bits = max((b * scale**k).numerator.bit_length()
               for k, layer in enumerate(table.layers) for b in layer.values())
    fn["counting.pr_good"](g, half)
    counts = fn["polynomial.bad_distribution"](fn["polynomial.build_polynomial"](g)).counts
    tally.require(counts[0] == sigma, f"{gi.name}: sigma {sigma} != A[0] {counts[0]}")
    fn["polynomial.eval_indicator"](g, half)
    fn["polynomial.eval_partial"](g, 1, half & ~1)
    fn["regular.detect_fully_regular"](g)
    if n > 1 and gi.isets <= SWEEP_DELETE_MAX_ISETS:
        fn["polynomial.delete_decompose"](g, 1 << (n - 1))
    if n <= SWEEP_ORACLE_MAX_N:
        tally.require(fn["oracle.brute_sigma"](g) == sigma, f"{gi.name}: oracle sigma differs")
        fn["oracle.brute_distribution"](g)
        fn["oracle.brute_event"](g, 1, half & ~1)
    if gi.gen_seed is not None:
        fn["randgraph.random_connected_graph"](n, gi.density, gi.gen_seed)
    tracer.op = None
    return {"isets": sum(sizes), "alpha": len(sizes) - 1, "max_layer": max(sizes), "b_bits": bits}


def _median_ms(spans: list[dict], key=None) -> float:
    return statistics.median(key(s) if key else (s["end"] - s["start"]) * 1000.0 for s in spans)


def traced_run(inputs, seconds: float, launcher: procs.Launcher,
               out_path: Path) -> tuple[dict, Tally]:
    """Run the four parts and return the per-layer metrics and the check tally."""
    import succorder.cli

    tally = Tally()
    metrics = _startup(launcher)
    graphs = inputs.graphs
    budget_start = time.perf_counter()

    unreported = []
    for op in inputs.ops:
        gi = graphs[op.graph]
        call = launcher.run(["-m", "succorder", *op.argv(gi)])
        tally.check(op, gi, call.exit_code, call.stdout)
        if call.elapsed_ms is not None:
            unreported.append(call.wall_ms - call.elapsed_ms)
        if len(unreported) >= 3 and time.perf_counter() - budget_start > PROCESS_SHARE * seconds:
            break
    metrics["cli.unreported_ms"] = statistics.median(unreported) if unreported else 0.0

    tracer = Tracer()
    tracer.install()
    counts = {}
    for gi in graphs.values():
        if gi.path and gi.name != "warmup":
            text = Path(gi.path).read_text(encoding="utf-8")
            counts[gi.name] = _sweep(tracer, tally, "sweep", gi, text)
    covered = {s["name"] for s in tracer.spans}
    if not covered.issuperset(LAYER_FUNCTIONS):
        for name, (n, edges) in workloads.SAMPLE_GRAPHS.items():
            adj = gen.from_edges(n, edges)
            gi = workloads.GraphInput(name, adj, isets=gen.count_independent_sets(adj),
                                      alpha=gen.independence_number(adj))
            _sweep(tracer, tally, "sample", gi, gen.edge_list_text(adj, name))
    tracer.uninstall()

    needed_by_op: dict[str, int] = {}
    pairs: list[tuple[float, float]] = []
    replay_start = time.perf_counter()
    rounds, index = None, 0
    while rounds is None or index < rounds * len(inputs.ops):
        op = inputs.ops[index % len(inputs.ops)]
        gi = graphs[op.graph]
        argv = op.argv(gi)
        op_id = f"{op.label}#{index}"
        needed_by_op[op_id] = gi.isets
        times = {}
        for traced in ((True, False) if index % 2 == 0 else (False, True)):
            clear_caches()
            if traced:
                tracer.install()
                tracer.op = op_id
                with tracer.span("cli.main") as span:
                    code, stdout = _call_main(succorder.cli.main, argv)
                tracer.op = None
                tracer.uninstall()
                times[traced] = (span["end"] - span["start"]) * 1000.0
            else:
                start = time.perf_counter()
                code, stdout = _call_main(succorder.cli.main, argv)
                times[traced] = (time.perf_counter() - start) * 1000.0
            tally.check(op, gi, code, stdout)
        pairs.append((times[True], times[False]))
        index += 1
        if rounds is None and index == len(inputs.ops):
            first_round = time.perf_counter() - replay_start
            rounds = max(1, round(REPLAY_SHARE * seconds / first_round))

    for index in checks.cross_check(tally.summaries):
        tally.failures.append(f"call {index} disagrees with other calls on its graph")

    spans = tracer.spans
    on_workload = [s for s in spans if not (s["op"] or "").startswith("sample:")]
    source = {}
    for name in LAYER_FUNCTIONS:
        chosen = [s for s in on_workload if s["name"] == name]
        source[name] = "workload" if chosen else "sample_graphs"
        chosen = chosen or [s for s in spans if s["name"] == name]
        key = None
        if name == "layers.iter_layers":
            # one full enumeration per graph: the sweep's direct drains, which
            # are the only iter_layers spans without a parent
            chosen = [s for s in chosen if s["parent"] is None]
            key = lambda s: s["busy_ms"]  # noqa: E731
        metrics[f"{name}_ms"] = _median_ms(chosen, key)
    metrics["cli.main_ms"] = _median_ms([s for s in spans if s["name"] == "cli.main"])

    isets_of = {f"sweep:{name}": graphs[name].isets for name in counts}
    isets_of.update(needed_by_op)
    sigma_spans = [s for s in on_workload if s["name"] == "counting.sigma"]
    metrics["counting.sigma_us_per_iset"] = _median_ms(
        sigma_spans, lambda s: (s["end"] - s["start"]) * 1e6 / isets_of[s["op"]])
    metrics["layers.isets"] = sum(c["isets"] for c in counts.values())
    metrics["layers.alpha_max"] = max(c["alpha"] for c in counts.values())
    metrics["layers.max_layer_sets"] = max(c["max_layer"] for c in counts.values())
    metrics["counting.b_bits_max"] = max(c["b_bits"] for c in counts.values())
    yielded = sum(s.get("sets", 0) for s in spans
                  if s["name"] == "layers.iter_layers" and s["op"] in needed_by_op)
    metrics["layers.enum_ratio"] = yielded / sum(needed_by_op.values())
    traced_total = sum(t for t, _ in pairs)
    untraced_total = sum(u for _, u in pairs)
    metrics["trace.overhead_pct"] = 100.0 * (traced_total - untraced_total) / untraced_total

    out_path.write_text(json.dumps({"layer_source": source, "graphs": counts, "spans": spans}),
                        encoding="utf-8")
    return metrics, tally
