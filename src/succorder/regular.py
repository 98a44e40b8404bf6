"""Fully regular graphs: detection and the closed-form ordering count.

A graph is fully regular when a(I), the number of vertices outside the
closed neighbourhood of an independent set I, depends only on |I|.  For
such graphs the layer sizes and the successive-ordering count collapse to
closed forms in the constants a_0..a_alpha, which this module evaluates
and cross-validates against the general engine.  The CLI's ``regular``
handler lives here; the module computes in integers throughout and
imports no ``fractions``.
"""

from __future__ import annotations

import math

from .errors import require_internal
from .graph import Graph, Record, VertexSet, vertices_of
from .layers import Layer, iter_layers


class RegularityProfile(Record):
    """The constants a_0..a_alpha of a fully regular graph (a_0 = n)."""

    __slots__ = ("a_seq",)
    a_seq: tuple[int, ...]

    @property
    def alpha(self) -> int:
        return len(self.a_seq) - 1


class RegularityWitness(Record):
    """Two same-size independent sets with different outside counts."""

    __slots__ = ("size", "first_set", "first_value", "other_set", "other_value")
    size: int
    first_set: VertexSet
    first_value: int
    other_set: VertexSet
    other_value: int


def detect_fully_regular(g: Graph) -> RegularityProfile | RegularityWitness:
    """Group a(I) by |I| over all independent sets.

    Returns the profile when each group is constant, otherwise the first
    witness pair in enumeration order (layer by layer, mask-ascending).
    Detection is by exhaustive grouping over one enumeration, reading a(I)
    from the neighbourhood each set carries.
    """
    n = g.n

    def outside_count(layer: Layer) -> int | RegularityWitness:
        first_value = n - layer.nbhds[0].bit_count()
        for mask, nbhd in zip(layer.sets, layer.nbhds):
            value = n - nbhd.bit_count()
            if value != first_value:
                return RegularityWitness(layer.k, layer.sets[0], first_value, mask, value)
        return first_value

    a_seq: list[int] = []
    for verdict in map(outside_count, iter_layers(g)):
        if isinstance(verdict, RegularityWitness):
            return verdict
        a_seq.append(verdict)
    return RegularityProfile(tuple(a_seq))


def count_check(g: Graph, profile: RegularityProfile) -> bool:
    """Check the layer sizes against a_0 a_1 ... a_{i-1} / i! for every i = 0..alpha."""

    def fits(layer: Layer) -> bool:
        numerator = math.prod(profile.a_seq[:layer.k])
        count, rem = divmod(numerator, math.factorial(layer.k))
        return not rem and count == len(layer)

    fitted = list(map(fits, iter_layers(g)))
    return all(fitted) and len(fitted) == profile.alpha + 1


def sigma_closed_form(profile: RegularityProfile) -> int:
    """Closed-form ordering count a_0! * sum_i prod_{j<=i} (-a_j)/(a_0 - a_j).

    Defined for the profiles of fully regular graphs, which have a_0 > a_1
    > ... > a_alpha = 0 (a maximum independent set leaves no vertex
    outside); any other profile raises ValueError.  Each term is a_0! times
    its product, reached by exact integer steps: the a_0 - a_j are distinct
    integers in 1..a_0, so their running product divides a_0!.  Each step's
    remainder is asserted 0.
    """
    a = profile.a_seq
    if not a or a[-1] or any(x <= y for x, y in zip(a, a[1:])):
        raise ValueError(f"profile {a} is not a_0 > a_1 > ... > a_alpha = 0")
    total = term = math.factorial(a[0])
    for a_j in a[1:]:
        term, rem = divmod(-a_j * term, a[0] - a_j)
        require_internal(rem == 0, f"closed-form term at a_j = {a_j} is not an integer")
        total += term
    return total


def _cmd_regular(opts: dict, g: Graph) -> dict:
    """The CLI's ``regular`` command (see ``cli._COMMANDS``)."""
    verdict = detect_fully_regular(g)
    if isinstance(verdict, RegularityProfile):
        return {
            "fully_regular": True,
            "alpha": verdict.alpha,
            "a": list(verdict.a_seq),
        }
    return {
        "fully_regular": False,
        "witness": {
            "size": verdict.size,
            "set_a": vertices_of(verdict.first_set),
            "a_a": verdict.first_value,
            "set_b": vertices_of(verdict.other_set),
            "a_b": verdict.other_value,
        },
    }
