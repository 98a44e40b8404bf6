"""succorder benchmark: real ``python -m succorder <cmd> --json`` processes on seeded inputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 36 --trace 0

Workloads are ``cli_small``, ``count_large`` and ``features_mid`` (see
``workloads.py``).  Load is closed-loop: one client, one child process at a
time.  A run draws its graphs and calls from the seed, then sets up
``SETUP_REPEATS`` times (write the graph files, record |IS| and alpha,
compute the oracle's answers, make one untimed warm-up call that also fills
``__pycache__``); ``setup_s`` is the median.  It then makes rounds of calls,
every call of the workload once per round in a seeded order, and stops at
the round boundary nearest to ``--seconds``.  Every call's output is
checked; ``failed`` counts calls with a nonzero exit, a timeout, or wrong or
unparsable output, so ``failed / attempted`` is the error rate.

``--trace 0`` prints the end-to-end metrics of untraced processes.
``--trace 1`` runs the in-process traced run of ``tracing.py`` and prints the
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller report (environment
fingerprint, per-call records, spans) goes under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import checks
import procs
import tracing
import workloads

WORKLOADS = ("cli_small", "count_large", "features_mid")
SETUP_REPEATS = 5
#: No new round starts once a run has taken this long, whatever --seconds says.
MAX_MEASURE_S = 120.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_ms.p50", "ms"),
    ("wall_ms.p90", "ms"),
    ("isets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def fingerprint(root: Path, workload: str, seed: int, ops) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "calls_per_round": dict(Counter(op.command for op in ops)),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cli(op, gi) -> list[str]:
    return ["-m", "succorder", *op.argv(gi)]


def measure(workload: str, seed: int, seconds: float, root: Path, work: Path,
            launcher: procs.Launcher) -> tuple[dict, dict]:
    """The untraced run: set-up timing, then timed and checked CLI processes."""
    run_start = time.perf_counter()
    inputs = workloads.choose(workload, seed)
    setup_times, problems = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workloads.build(inputs, work / "inputs", root)
        warm = launcher.run(_cli(inputs.warmup, inputs.graphs["warmup"]))
        setup_times.append(time.perf_counter() - start)
        try:
            checks.check(inputs.warmup, inputs.graphs["warmup"], warm.exit_code, warm.stdout)
        except checks.CheckFailure as exc:
            problems.append(f"warm-up call: {exc}")

    rng = random.Random(seed)
    records, summaries, passing = [], [], []
    measure_start = time.perf_counter()
    done = 0
    while True:
        for op in rng.sample(inputs.ops, len(inputs.ops)):
            gi = inputs.graphs[op.graph]
            call = launcher.run(_cli(op, gi))
            record = {"op": op.label, "argv": op.argv(gi), "wall_ms": call.wall_ms,
                      "elapsed_ms": call.elapsed_ms, "maxrss_kb": call.maxrss_kb,
                      "exit_code": call.exit_code, "timed_out": call.timed_out,
                      "isets": gi.isets, "ok": True}
            if call.elapsed_ms is not None:
                record["unreported_ms"] = call.wall_ms - call.elapsed_ms
            try:
                summary = checks.check(op, gi, call.exit_code, call.stdout)
            except checks.CheckFailure as exc:
                record.update(ok=False, reason="timed out" if call.timed_out else str(exc))
            else:
                summaries.append((len(records), op.graph, summary))
                passing.append((op, gi, call.stdout))
            records.append(record)
        done += 1
        taken = time.perf_counter() - measure_start
        # stop at the round boundary nearest to --seconds
        if taken + taken / done / 2 >= seconds:
            break
        if time.perf_counter() - run_start > MAX_MEASURE_S:
            break

    for index in checks.cross_check([(graph, summary) for _, graph, summary in summaries]):
        records[summaries[index][0]].update(
            ok=False, reason="disagrees with other calls on its graph")
    problems += checks.selftest(passing)

    walls = [r["wall_ms"] for r in records]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_ms.p50": statistics.median(walls),
        "wall_ms.p90": statistics.quantiles(walls, n=10)[8],
        "isets_per_s": sum(r["isets"] for r in records) / (sum(walls) / 1000.0),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
    }
    unreported = [r["unreported_ms"] for r in records if "unreported_ms" in r]
    report = {
        "fingerprint": fingerprint(root, workload, seed, inputs.ops),
        "attempted": len(records),
        "failures": [f"{r['op']}: {r['reason']}" for r in records if not r["ok"]],
        "rounds": done,
        "setup_s": setup_times,
        "unreported_ms_median": statistics.median(unreported) if unreported else None,
        "graphs": {gi.name: {"n": gi.n, "edges": gi.edges, "isets": gi.isets, "alpha": gi.alpha,
                             "density": gi.density, "gen_seed": gi.gen_seed}
                   for gi in inputs.graphs.values()},
        "problems": problems,
        "calls": records,
    }
    return metrics, report


def traced(workload: str, seed: int, seconds: float, root: Path, work: Path,
           launcher: procs.Launcher) -> tuple[dict, dict]:
    inputs = workloads.choose(workload, seed)
    workloads.build(inputs, work / "inputs", root)
    metrics, tally = tracing.traced_run(inputs, seconds, launcher, work / "spans.json")
    report = {
        "fingerprint": fingerprint(root, workload, seed, inputs.ops),
        "problems": checks.selftest(tally.passing),
        "attempted": tally.attempted,
        "failures": tally.failures,
    }
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "succorder" / "__main__.py").is_file():
        print(f"error: no succorder sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with procs.Launcher(procs.child_env(root), work) as launcher:
        if args.trace:
            metrics, report = traced(args.workload, args.seed, args.seconds, root, work, launcher)
        else:
            metrics, report = measure(args.workload, args.seed, args.seconds, root, work, launcher)
    units = dict(tracing.PER_LAYER if args.trace else END_TO_END)
    attempted, failed = report["attempted"], len(report["failures"])
    report["metrics"] = metrics
    (work / "report.json").write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")

    print(f"fingerprint: {json.dumps(report['fingerprint'])}", file=sys.stderr)
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}", file=sys.stderr)
    print(f"error_rate: {failed}/{attempted}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not report["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
