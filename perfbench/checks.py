"""Checks on the CLI's JSON output, and a test that they catch corrupted output.

``check`` validates one call on its own: exit status, JSON shape, the
identities every answer must satisfy (sigma' = sigma / n!, the bad-vertex
counts sum to n! and vanish from alpha on, F is the binomial transform of
those counts, the deletion identity, probabilities in [0, 1]) and, where the
workload computed them, the oracle's answers.  ``cross_check`` then compares
calls on the same graph with each other.  ``selftest`` corrupts good outputs
and confirms that ``check`` rejects every corruption.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter
from fractions import Fraction

import gen


class CheckFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def poly_from_distribution(counts) -> tuple[list[int], list[Fraction]]:
    """F and P coefficients from the bad-vertex counts A_k.

    F(x) = sum_k A_k (x + 1)^k, so f_j = sum_k C(k, j) A_k; trailing zeros are
    trimmed as the program trims them, and p_j = f_j / n!.
    """
    nfact = sum(counts)
    f = [sum(math.comb(k, j) * a for k, a in enumerate(counts)) for j in range(len(counts))]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f, [Fraction(c, nfact) for c in f]


def _vertices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _padded_equal(a: list, b: list) -> bool:
    width = max(len(a), len(b))
    return all((a[j] if j < len(a) else 0) == (b[j] if j < len(b) else 0) for j in range(width))


def _at_minus_one(p: list[Fraction]) -> Fraction:
    return sum(-c if j & 1 else c for j, c in enumerate(p))


def check(op, gi, exit_code: int, stdout: str) -> dict:
    """Validate one call; return the values ``cross_check`` compares.

    Raises CheckFailure with the reason when the call is wrong.
    """
    require(exit_code == 0, f"exit code {exit_code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        raise CheckFailure("stdout is not one JSON document") from None
    try:
        return _check_document(op, gi, doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckFailure(f"malformed payload: {exc!r}") from None


def _check_document(op, gi, doc: dict) -> dict:
    n = gi.n
    nfact = math.factorial(n)
    require(doc["command"] == op.command, f"command {doc['command']!r}")
    info = doc["input"]
    require(info["n"] == n and info["connected"] is True, f"input {info}")
    if op.command != "bench":
        require(info["edges"] == gi.edges, f"edge count {info['edges']} != {gi.edges}")
    payload = doc["payload"]
    expected = op.expected
    summary: dict = {}

    if op.command in ("count", "verify", "bench"):
        sigma = int(payload["sigma"])
        require(0 <= sigma <= nfact, f"sigma {sigma} outside [0, n!]")
        summary["sigma_prime"] = Fraction(sigma, nfact)
        if "sigma" in expected:
            require(sigma == expected["sigma"], f"sigma {sigma} != oracle {expected['sigma']}")
        if op.command == "verify":
            require(all(v == "ok" for v in payload["checks"].values()),
                    f"checks {payload['checks']}")
        else:
            require(Fraction(payload["sigma_prime"]) == Fraction(sigma, nfact),
                    "sigma' != sigma / n!")
        if op.command == "bench":
            require(payload["n"] == n and payload["seed"] == op.seed,
                    "bench echoes the wrong n or seed")
            require(payload.get("self_check", "ok") == "ok", "bench self-check not ok")

    elif op.command in ("poly", "distribution"):
        counts = [int(c) for c in payload["A"]]
        f = [int(c) for c in payload["f_coeffs"]]
        p = [Fraction(c) for c in payload["p_coeffs"]]
        sigma = int(payload["sigma"])
        require(len(counts) == n + 1 and min(counts) >= 0,
                "A has the wrong length or a negative entry")
        require(sum(counts) == nfact, "sum of A != n!")
        require(not any(counts[max(gi.alpha, 1):]), "orderings with alpha or more bad vertices")
        require(sigma == counts[0], "sigma != A[0]")
        require(p and p[0] == 1, "p_coeffs[0] != 1")
        require(f == poly_from_distribution(counts)[0], "f_coeffs is not the transform of A")
        require(p == [Fraction(c, nfact) for c in f], "p_coeffs != f_coeffs / n!")
        if "A" in expected:
            require(counts == expected["A"], f"A {counts} != oracle {expected['A']}")
        summary["sigma_prime"] = Fraction(sigma, nfact)
        summary["p"] = p

    elif op.command == "eval":
        probability = Fraction(payload["probability"])
        require(0 <= probability <= 1, f"probability {probability} outside [0, 1]")
        require(payload["good"] == _vertices(op.good & ~op.bad), f"good {payload['good']}")
        require(payload["bad"] == _vertices(op.bad), f"bad {payload['bad']}")
        if "probability" in expected:
            require(probability == expected["probability"],
                    f"probability {probability} != oracle {expected['probability']}")
        if not op.bad and op.good == gi.full:
            summary["sigma_prime"] = probability

    elif op.command == "delete":
        p_g, p_sub, r_s, u_s = ([Fraction(c) for c in payload[key]]
                                for key in ("p_g", "p_gprime", "r_s", "u_s"))
        require(payload["set"] == _vertices(op.removed), f"set {payload['set']}")
        require(p_g[0] == 1 and p_sub[0] == 1, "constant coefficient != 1")
        width = max(len(p_g), len(p_sub), len(r_s), len(u_s))

        def coeff(seq: list[Fraction], j: int) -> Fraction:
            return seq[j] if j < len(seq) else Fraction(0)

        require(all(coeff(p_g, j) == coeff(p_sub, j) - coeff(r_s, j) + coeff(u_s, j)
                    for j in range(width)), "P_G != P_G' - R_S + U_S")
        require(payload.get("identity_holds", True) is True, "identity_holds is not true")
        for key, got in (("p_g", p_g), ("p_gprime", p_sub), ("u_s", u_s)):
            if key in expected:
                require(_padded_equal(got, expected[key]), f"{key} != oracle")
        summary["sigma_prime"] = _at_minus_one(p_g)
        summary["p"] = p_g

    elif op.command == "regular":
        if payload["fully_regular"]:
            a = payload["a"]
            require(payload["alpha"] == gi.alpha and len(a) == gi.alpha + 1 and a[0] == n,
                    f"profile alpha {payload['alpha']}, a {a}")
        else:
            w = payload["witness"]
            sets = [sum(1 << v for v in w[key]) for key in ("set_a", "set_b")]
            for members, value in zip(sets, (w["a_a"], w["a_b"])):
                require(gen.is_independent(gi.adj, members), "witness set is not independent")
                require(members.bit_count() == w["size"], "witness set has the wrong size")
                require(gen.outside_count(gi.adj, members) == value, "witness a-value is wrong")
            require(w["a_a"] != w["a_b"], "witness a-values are equal")
        if "fully_regular" in expected:
            require(payload["fully_regular"] == expected["fully_regular"],
                    "regularity verdict != oracle")
        if "a" in expected:
            require(payload["a"] == expected["a"], f"a {payload['a']} != {expected['a']}")
    else:
        raise CheckFailure(f"unknown command {op.command!r}")
    return summary


def cross_check(results: list[tuple[str, dict]]) -> set[int]:
    """Indices of calls that disagree with the other calls on the same graph.

    ``results`` holds ``(graph name, summary)`` per passing call.  For each
    graph, every sigma' (from count, poly, delete's P_G(-1), eval of all of V,
    verify, bench) must be one value, and so must every P_G.  The value most
    calls agree on is taken as right.
    """
    bad: set[int] = set()
    for key in ("sigma_prime", "p"):
        by_graph: dict[str, list[tuple[int, object]]] = {}
        for index, (graph, summary) in enumerate(results):
            if key in summary:
                value = tuple(summary[key]) if key == "p" else summary[key]
                by_graph.setdefault(graph, []).append((index, value))
        for entries in by_graph.values():
            mode = Counter(value for _, value in entries).most_common(1)[0][0]
            bad.update(index for index, value in entries if value != mode)
    return bad


def _corruptions(command: str, doc: dict) -> list[dict]:
    """Wrong variants of a correct document, each of which ``check`` must reject."""
    out = []

    def variant(edit) -> None:
        wrong = copy.deepcopy(doc)
        edit(wrong["payload"])
        out.append(wrong)

    def bump(values: list, index: int, amount) -> None:
        values[index] = str(Fraction(values[index]) + amount)

    if command in ("count", "verify", "bench"):
        variant(lambda p: p.update(sigma=str(int(p["sigma"]) + 1)))
    if command in ("poly", "distribution"):
        variant(lambda p: bump(p["A"], 0, 1))
        variant(lambda p: bump(p["f_coeffs"], -1, 1))
    if command == "eval":
        variant(lambda p: p.update(probability="3/2"))
    if command == "delete":
        variant(lambda p: bump(p["u_s"], -1, Fraction(1, 7)))
    if command == "regular":
        if doc["payload"]["fully_regular"]:
            variant(lambda p: p["a"].__setitem__(0, p["a"][0] + 1))
        else:
            variant(lambda p: p["witness"].update(a_b=p["witness"]["a_a"]))
    return out


def selftest(samples: list[tuple[object, object, str]]) -> list[str]:
    """Corrupt one passing output per command; return the corruptions not caught."""
    missed = []
    seen = set()
    for op, gi, stdout in samples:
        if op.command in seen:
            continue
        seen.add(op.command)
        wrongs = [json.dumps(doc) for doc in _corruptions(op.command, json.loads(stdout))]
        wrongs.append(stdout[: len(stdout) // 2])
        for wrong in wrongs:
            try:
                check(op, gi, 0, wrong)
            except CheckFailure:
                continue
            missed.append(f"{op.label}: corrupted output passed: {wrong[:120]}")
    return missed
