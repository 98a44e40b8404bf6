"""The three workloads: which graphs, which CLI calls, and the expected answers.

Everything is derived from the workload seed.  Graph files are written under
the run's own directory, so the program only ever sees edge-list files and
argv.

* ``cli_small``: the paper's worked examples (C5, C5 with a chord, K2,2, P3,
  K1) and seeded connected graphs on 6..9 vertices, through all eight
  commands, plus ``bench --n 20``.  Answers come from ``succorder.oracle``,
  run inside the benchmark.
* ``count_large``: ``count``, ``poly`` and ``distribution`` on three sparse
  graphs (n = 24, 26, 28) and two wide ones (n = 36, 38), 15k to 70k sets.
* ``features_mid``: ``delete --set`` (one and two vertices), ``eval --good``
  (half and all of V) and ``eval --bad T --good S`` on graphs at n = 20..24.

Seeded graphs are drawn with an independent-set count close to a fixed
target (see ``gen.graph_near_target``), and features_mid's vertex sets are
picked by the number of sets they leave, so each seed asks for nearly the
same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import gen

#: The paper's worked examples, as edge lists.
SAMPLE_GRAPHS = {
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "c5_chord": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]),
    "k2_2": (4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    "p3": (3, [(0, 1), (1, 2)]),
    "k1": (1, []),
}

#: (name, n, density range, target |IS|) per seeded graph.  The machine this
#: was tuned on switches every few seconds between a fast and a slow mode about
#: 1.4x apart.  A workload whose calls all cost the same has a median that jumps
#: between the two modes' levels from run to run; so count_large and
#: features_mid spread their call costs over a ladder of sizes whose steps are
#: no wider than that factor, which makes their median and 90th percentile move
#: smoothly with the time spent in each mode, as a mean does.
SMALL_SLOTS = [
    ("seeded6", 6, 0.1, 0.6, 14),
    ("seeded7", 7, 0.1, 0.6, 18),
    ("seeded8", 8, 0.1, 0.6, 24),
    ("seeded9", 9, 0.1, 0.6, 32),
]
LARGE_SLOTS = [
    ("sparse24", 24, 0.05, 0.10, 15_000),
    ("wide36", 36, 0.20, 0.25, 25_000),
    ("sparse26", 26, 0.05, 0.10, 35_000),
    ("wide38", 38, 0.20, 0.25, 50_000),
    ("sparse28", 28, 0.05, 0.10, 70_000),
]
MID_SLOTS = [
    ("mid20", 20, 0.02, 0.30, 3_000),
    ("mid22", 22, 0.02, 0.30, 6_000),
    ("mid24", 24, 0.02, 0.30, 12_000),
]
#: features_mid picks its vertex sets so that these shares of |IS(G)| survive:
#: |IS(G - S)| for one and for two deleted vertices, and |IS(G[S + T])| for the
#: universe that eval --bad T --good S enumerates.
DELETE_ONE_SHARE, DELETE_TWO_SHARE, EVAL_BAD_SHARE = 0.7, 0.5, 0.25
CANDIDATES = 8
#: Per graph, features_mid makes two deletions, one eval of all of V, and these
#: many evals of a random half and with bad vertices.
EVAL_HALF_PER_GRAPH, EVAL_BAD_PER_GRAPH = 3, 4

#: bench --n 20 runs on a seed whose graph has close to this many independent sets.
BENCH_N, BENCH_DENSITY, BENCH_ISETS = 20, 0.2, 2000

WARMUP_GRAPH = "c5_chord"
#: Graphs up to this size get their answers from the brute-force oracle.
ORACLE_MAX_N = 9
WARMUP_SIGMA = 60


@dataclass
class GraphInput:
    """One input graph and its exact properties, computed by the benchmark."""

    name: str
    adj: list[int]
    density: float | None = None
    gen_seed: int | None = None
    written: bool = True  # False for the graph bench builds for itself
    path: str | None = None  # relative to the repository root, set by ``build``
    isets: int = 0
    alpha: int = 0

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def edges(self) -> int:
        return len(gen.edges_of(self.adj))

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


@dataclass
class Op:
    """One CLI call.  Masks are vertex bitmasks; ``expected`` holds oracle answers."""

    command: str
    graph: str
    good: int = 0
    bad: int = 0
    removed: int = 0
    seed: int = 0
    expected: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.command}:{self.graph}"

    def argv(self, gi: GraphInput) -> list[str]:
        if self.command == "bench":
            return ["bench", "--n", str(gi.n), "--density", str(gi.density),
                    "--seed", str(self.seed), "--json"]
        argv = [self.command, gi.path]
        if self.command == "eval":
            if self.bad:
                argv += ["--bad", _vertex_list(self.bad)]
            argv += ["--good", _vertex_list(self.good)]
        elif self.command == "delete":
            argv += ["--set", _vertex_list(self.removed)]
        elif self.command == "verify":
            argv += ["--seed", str(self.seed)]
        return argv + ["--json"]


@dataclass
class Inputs:
    graphs: dict[str, GraphInput]
    ops: list[Op]
    warmup: Op


def _vertex_list(mask: int) -> str:
    return ",".join(str(v) for v in range(mask.bit_length()) if (mask >> v) & 1)


def _random_subset(rng: random.Random, n: int, exclude: int = 0) -> int:
    return rng.getrandbits(n) & ((1 << n) - 1) & ~exclude


def _random_vertices(rng: random.Random, n: int, k: int) -> int:
    mask = 0
    for v in rng.sample(range(n), k):
        mask |= 1 << v
    return mask


def _random_independent(rng: random.Random, gi: GraphInput, k: int) -> int:
    """A random independent set of k vertices (k = 1, or 2 when a pair exists)."""
    first = rng.randrange(gi.n)
    if k == 1:
        return 1 << first
    others = [v for v in range(gi.n) if v != first and not (gi.adj[first] >> v) & 1]
    return (1 << first) | (1 << rng.choice(others)) if others else 1 << first


def choose(workload: str, seed: int) -> Inputs:
    """Draw the workload's graphs and calls from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    n, edges = SAMPLE_GRAPHS[WARMUP_GRAPH]
    graphs = {"warmup": GraphInput("warmup", gen.from_edges(n, edges))}
    warmup = Op("count", "warmup", expected={"sigma": WARMUP_SIGMA})
    if workload == "cli_small":
        for name, (n, edges) in SAMPLE_GRAPHS.items():
            graphs[name] = GraphInput(name, gen.from_edges(n, edges))
        slots = SMALL_SLOTS
    elif workload == "count_large":
        slots = LARGE_SLOTS
    elif workload == "features_mid":
        slots = MID_SLOTS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, (name, n, lo, hi, target) in enumerate(slots):
        adj, density, gen_seed = gen.graph_near_target(n, lo, hi, target, seed * 10 + i)
        graphs[name] = GraphInput(name, adj, density, gen_seed)

    ops: list[Op] = []
    for gi in list(graphs.values())[1:]:
        n = gi.n
        if workload == "cli_small":
            ops += [Op("count", gi.name), Op("poly", gi.name), Op("distribution", gi.name),
                    Op("eval", gi.name, good=_random_subset(rng, n) or 1),
                    Op("regular", gi.name), Op("verify", gi.name, seed=rng.randrange(1000))]
            if n > 1:
                bad = _random_independent(rng, gi, rng.choice((1, 2)))
                good = _random_subset(rng, n, bad)
                removed = _random_vertices(rng, n, rng.choice((1, 2)))
                ops += [Op("eval", gi.name, bad=bad, good=good),
                        Op("delete", gi.name, removed=removed)]
        elif workload == "count_large":
            ops += [Op(cmd, gi.name) for cmd in ("count", "poly", "distribution")]
        else:
            isets = gen.count_independent_sets(gi.adj)

            def closest(candidates: list[int], share: float, keep) -> int:
                return min(candidates, key=lambda mask: abs(
                    gen.count_independent_sets(gi.adj, keep(mask)) - share * isets))

            removed_one = closest([_random_vertices(rng, n, 1) for _ in range(CANDIDATES)],
                                  DELETE_ONE_SHARE, lambda mask: gi.full & ~mask)
            removed_two = closest([_random_vertices(rng, n, 2) for _ in range(CANDIDATES)],
                                  DELETE_TWO_SHARE, lambda mask: gi.full & ~mask)
            ops += [Op("delete", gi.name, removed=removed_one),
                    Op("delete", gi.name, removed=removed_two),
                    Op("eval", gi.name, good=gi.full)]
            ops += [Op("eval", gi.name, good=_random_vertices(rng, n, n // 2))
                    for _ in range(EVAL_HALF_PER_GRAPH)]
            for _ in range(EVAL_BAD_PER_GRAPH):
                bad = _random_independent(rng, gi, 2)
                good = closest([_random_subset(rng, n, bad) for _ in range(CANDIDATES)],
                               EVAL_BAD_SHARE, lambda mask: mask | bad)
                ops.append(Op("eval", gi.name, bad=bad, good=good))
    if workload == "cli_small":
        bench = graphs["bench20"] = _bench_graph(seed)
        ops.append(Op("bench", bench.name, seed=bench.gen_seed))
    return Inputs(graphs, ops, warmup)


def build(inputs: Inputs, directory: Path, root: Path) -> None:
    """Set-up: write the graph files, record |IS| and alpha, compute oracle answers."""
    directory.mkdir(parents=True, exist_ok=True)
    for gi in inputs.graphs.values():
        if gi.written:
            path = directory / f"{gi.name}.txt"
            path.write_text(gen.edge_list_text(gi.adj, gi.name), encoding="utf-8")
            gi.path = str(path.relative_to(root))
        gi.isets = gen.count_independent_sets(gi.adj)
        gi.alpha = gen.independence_number(gi.adj)
    if any(inputs.graphs[op.graph].n <= ORACLE_MAX_N for op in inputs.ops):
        _oracle_expectations(inputs.graphs, inputs.ops)


def _bench_graph(seed: int) -> GraphInput:
    """The graph bench --n 20 --seed s builds, found with the benchmark's own copy
    of the construction: the first seed from ``seed * 1000`` whose |IS| is within
    3% of BENCH_ISETS."""
    for gen_seed in range(seed * 1000, seed * 1000 + 1000):
        adj = gen.random_connected_adj(BENCH_N, BENCH_DENSITY, gen_seed)
        if abs(gen.count_independent_sets(adj) - BENCH_ISETS) <= 0.03 * BENCH_ISETS:
            return GraphInput("bench20", adj, BENCH_DENSITY, gen_seed, written=False)
    raise RuntimeError("no bench seed found")


def _oracle_expectations(graphs: dict[str, GraphInput], ops: list[Op]) -> None:
    """Fill ``op.expected`` from the brute-force oracle for graphs up to ORACLE_MAX_N."""
    from succorder import Graph
    from succorder.oracle import brute_distribution, brute_event, brute_sigma

    def graph(adj: list[int]) -> Graph:
        return Graph(len(adj), tuple(adj))

    for op in ops:
        gi = graphs[op.graph]
        if gi.n > ORACLE_MAX_N:
            continue
        g = graph(gi.adj)
        if op.command in ("count", "verify"):
            op.expected = {"sigma": brute_sigma(g)}
        elif op.command in ("poly", "distribution"):
            op.expected = {"A": list(brute_distribution(g).counts)}
        elif op.command == "eval":
            op.expected = {"probability": brute_event(g, op.bad, op.good & ~op.bad)}
        elif op.command == "delete":
            keep = [v for v in range(gi.n) if not (op.removed >> v) & 1]
            sub = [0] * len(keep)
            for i, u in enumerate(keep):
                for j, v in enumerate(keep):
                    if (gi.adj[u] >> v) & 1:
                        sub[i] |= 1 << j
            u_s = [Fraction(0)] * (gi.alpha + 1)
            for members in gen.independent_sets(gi.adj):
                if members & op.removed:
                    u_s[members.bit_count()] += brute_event(g, members, 0)
            op.expected = {
                "p_g": checks.poly_from_distribution(brute_distribution(g).counts)[1],
                "p_gprime": checks.poly_from_distribution(
                    brute_distribution(graph(sub)).counts)[1],
                "u_s": u_s,
            }
        elif op.command == "regular":
            a_seq: list[set[int]] = [set() for _ in range(gi.alpha + 1)]
            for members in gen.independent_sets(gi.adj):
                a_seq[members.bit_count()].add(gen.outside_count(gi.adj, members))
            regular = all(len(values) == 1 for values in a_seq)
            op.expected = {"fully_regular": regular}
            if regular:
                op.expected["a"] = [values.pop() for values in a_seq]
