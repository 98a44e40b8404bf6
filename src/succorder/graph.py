"""Graph representation on bitmask vertex sets, plus edge-list parsing.

Vertices are integers 0..n-1 and every vertex subset is a plain Python int
used as a bitmask (bit v set <=> vertex v in the set).  Capacity is capped
at 64 vertices: one machine word per set keeps all subset operations O(1),
and the enumeration engines are compute-bound long before a wider
representation would pay off.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

from .errors import ParseError

MAX_VERTICES = 64

#: A vertex subset encoded as a bitmask.  Purely documentary alias.
VertexSet = int


def iter_vertices(mask: VertexSet) -> Iterator[int]:
    """Yield the vertices of a mask in increasing order; a negative mask is a ValueError."""
    if mask < 0:
        raise ValueError(f"vertex mask must be nonnegative, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertices_of(mask: VertexSet) -> list[int]:
    return list(iter_vertices(mask))


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Record:
    """Immutable value record; subclasses name their fields in ``__slots__``.

    The constructor takes the fields positionally or by name.  Records
    compare and hash field-wise, and only with records of the same type, so
    a record never equals a tuple; assignment raises AttributeError.  Fields
    listed in ``_hidden`` are left out of ``repr``.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = [name for name in self.__slots__ if name not in self._hidden]
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Graph(Record):
    """A finite simple graph: vertex count ``n`` plus per-vertex neighbour masks ``adj``.

    ``adj[v]`` is the open neighbourhood of ``v``.  Instances are immutable
    and hashable, so they are safe to share across workers and usable as
    cache keys.
    """

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        super().__init__(n, adj)
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for {self.n} vertices")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {self.n}")
            if row & (1 << v):
                raise ValueError(f"self-loop at vertex {v}")
            for u in iter_vertices(row):
                if not self.adj[u] & (1 << v):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in iter_vertices(self.adj[u]) if u < v]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))


def _decimal(field: str) -> int:
    """Value of an ASCII ``[0-9]+`` field.

    ``int`` alone would also accept signs, underscores and non-ASCII digits,
    silently reinterpreting input such as ``1_1`` as 11.
    """
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"{field!r} is not a decimal integer")
    return int(field)


#: How many characters ``_lines`` splits at a time, at least.
_BLOCK = 4096
#: Where ``_lines`` may end a block: after a line feed, or after a carriage
#: return that does not start a CRLF pair.  Both end a line for ``splitlines``.
_CUT = re.compile(r"\n|\r(?!\n)")


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` as ``text.splitlines()`` gives them, a block at a time.

    Only one block's lines are held at once, not a list of every line, and
    no character is searched twice for a cut, so the walk is linear in the
    text.
    """
    start = 0
    while start < len(text):
        cut = _CUT.search(text, start + _BLOCK)
        end = cut.end() if cut else len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first non-comment line is ``n m``; the following m non-comment lines
    are ``u v`` with 0-based endpoints; every field is ASCII ``[0-9]+``.
    Lines starting with ``#`` and blank lines are skipped.  Duplicate edges
    are tolerated (they collapse to one).  Lines are read one at a time and
    each edge goes straight into the adjacency rows, so parsing holds no
    per-line or per-edge list: its memory does not grow with the text.
    """
    n = edges = 0
    m: int | None = None
    adj: list[int] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip().lstrip("\ufeff")
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if m is None:
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m', got {line!r}")
            try:
                n, m = _decimal(fields[0]), _decimal(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field in {line!r}") from None
            if not 1 <= n <= MAX_VERTICES:
                raise ParseError(f"line {lineno}: vertex count {n} outside [1, {MAX_VERTICES}]")
            adj = [0] * n
            continue
        if edges >= m:
            raise ParseError(f"line {lineno}: unexpected data after {m} edges")
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v', got {line!r}")
        try:
            u, v = _decimal(fields[0]), _decimal(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if not (u < n and v < n):
            raise ParseError(f"line {lineno}: vertex index out of range in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        edges += 1
    if m is None:
        raise ParseError("line 1: empty input, expected header 'n m'")
    if edges != m:
        raise ParseError(f"expected {m} edges, found only {edges}")
    return Graph(n, tuple(adj))


def open_neighborhood(g: Graph, members: VertexSet) -> VertexSet:
    """Union of adj[v] over v in the set (members themselves may appear)."""
    if members & ~g.full_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    nb = 0
    for v in iter_vertices(members):
        nb |= g.adj[v]
    return nb


def closed_neighborhood(g: Graph, members: VertexSet) -> VertexSet:
    return members | open_neighborhood(g, members)


def a_value(g: Graph, members: VertexSet) -> int:
    """Number of vertices outside the closed neighbourhood of the set."""
    return g.n - closed_neighborhood(g, members).bit_count()


def is_independent(g: Graph, members: VertexSet) -> bool:
    return not members & open_neighborhood(g, members)


def is_connected(g: Graph) -> bool:
    """Single connected component, by bitmask BFS from vertex 0."""
    visited = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in iter_vertices(frontier):
            reach |= g.adj[v]
        frontier = reach & ~visited
        visited |= frontier
    return visited == g.full_mask


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep``, relabelled to 0..k-1.

    Returns the subgraph together with ``old`` where ``old[i]`` is the
    original label of the subgraph's vertex ``i`` (increasing order).
    """
    if keep & ~g.full_mask:
        raise ValueError("keep mask mentions vertices outside the graph")
    if not keep:
        raise ValueError("induced subgraph needs at least one vertex")
    old = tuple(iter_vertices(keep))
    new_index = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        row = 0
        for u in iter_vertices(g.adj[v] & keep):
            row |= 1 << new_index[u]
        adj.append(row)
    return Graph(len(old), tuple(adj)), old
