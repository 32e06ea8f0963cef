"""Simple undirected graphs plus the structural checks the solvers rely on.

Vertices are dense integers 0..n-1.  Graphs are immutable; inducing
numbers the kept vertices in increasing order, so the sorted vertex set is
the map that translates witnesses back (the graph itself comes back when
every vertex is kept).  One breadth-first search, ``reach``, records which
vertex discovered each one; ``components``, ``shortest_path``,
``is_bipartite``, the caterpillar spine walk and the rerouting layer
distances read its order and discoverers.  It takes any adjacency sequence
(vertex ids 0..len(adj)-1), so the reconfiguration, encoding and s-path
graphs share it with ``Graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from operator import eq, itemgetter
from typing import Iterable, NamedTuple, NoReturn, Optional, Sequence


def reach(adj: Sequence[Iterable[int]], start: int, parent: list[int]) -> list[int]:
    """Every vertex reachable from start through open ones, breadth first.

    A vertex is open while its ``parent`` entry is -1.  Each vertex reached
    gets the vertex that discovered it, earlier in the returned order, and
    start gets itself; so a caller closes vertices in advance by giving them
    any value >= 0, and they are neither reached nor overwritten.
    """
    parent[start] = start
    reached = [start]
    for u in reached:  # the list grows as it is read: breadth first
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                reached.append(w)
    return reached


def components(adj: Sequence[Iterable[int]]) -> list[list[int]]:
    """Vertex sets of the components, each sorted, ordered by smallest vertex."""
    parent = [-1] * len(adj)
    return [sorted(reach(adj, v, parent)) for v in range(len(adj)) if parent[v] < 0]


def shortest_path(
    adj: Sequence[Iterable[int]], src: int, dst: int
) -> Optional[list[int]]:
    """Vertices of a shortest src-dst path, or None when dst is out of reach.

    One ``reach`` from src, in adjacency order, with the discoverers read
    back from dst.  The search covers src's whole component, not only the
    part up to dst.
    """
    parent = [-1] * len(adj)
    reach(adj, src, parent)
    if parent[dst] < 0:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _first_fault(n: int, edges: Iterable[tuple[int, int]]) -> NoReturn:
    """Raise the first fault among the edges, in input order."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    raise AssertionError("a bulk check refused edges with no fault")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``edges`` is the tuple of (low, high) pairs in increasing order, the
    input's own tuples where they already are, from one sort; ``adjacency``
    holds each vertex's neighbours as a sorted tuple, read off that order.
    No edge set is kept: bulk checks run over the sorted pairs (a repeat is
    two equal neighbours), and a failed one rescans the input in order to
    name the first fault.  Cost: one sort plus O(n + m).
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # read again, in order, if a check fails
        pairs = [e if e[0] < e[1] else (e[1], e[0]) for e in map(tuple, edges)]
        pairs.sort()
        if pairs and (pairs[0][0] < 0 or max(map(itemgetter(1), pairs)) >= n
                      or any(starmap(eq, pairs)) or any(map(eq, pairs, pairs[1:]))):
            _first_fault(n, edges)
        self.edges = tuple(pairs)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:  # a row gets its lower neighbours, then its higher
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adjacency = tuple(map(tuple, adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge, read off u's row; False for ids outside 0..n-1."""
        return 0 <= u < self.n and v in self.adjacency[u]

    def connected_components(self) -> list[list[int]]:
        """Vertex sets of the components, each sorted, ordered by smallest vertex."""
        return components(self.adjacency)

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced on the given vertices.

        New id i is the i-th smallest kept vertex, so the sorted vertices
        map witnesses back.  Vertices that cover the graph give back the
        graph itself, which is immutable.  The edges come from the kept
        vertices' adjacency, so the cost follows the subgraph's size and
        degrees, not the whole graph's.
        """
        kept = sorted(set(vertices))
        if kept and not (0 <= kept[0] and kept[-1] < self.n):
            raise ValueError(f"vertex out of range for n={self.n}")
        if len(kept) == self.n:
            return self
        new_id = {v: i for i, v in enumerate(kept)}
        adj = self.adjacency
        edges = [
            (i, new_id[w]) for i, u in enumerate(kept) for w in adj[u]
            if u < w and w in new_id
        ]
        return Graph(len(kept), edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class CaterpillarStructure:
    """Spine of a caterpillar plus its solver ordering.

    The spine induces a path whose two endpoints have degree 1 in the whole
    graph (a leaf is promoted onto each end when needed).  ``ordering`` lists
    the vertices v_1..v_n produced by the breadth-first walk that starts at
    one spine endpoint and, at each spine vertex, visits its leaves before
    the next spine vertex.  Every vertex off the spine is a leaf, attached
    to the latest spine vertex before it in ``ordering``.
    """

    spine: tuple[int, ...]
    ordering: tuple[int, ...]


def recognize_caterpillar(g: Graph) -> Optional[CaterpillarStructure]:
    """Decompose a connected caterpillar; None for every other graph.

    A graph qualifies exactly when it is a tree whose non-leaf vertices
    induce a path.  A single vertex counts, with a one-vertex spine; the
    empty graph does not.  The spine is one ``reach`` from the lower-id end
    of that path, with the leaves closed in advance, plus a leaf promoted
    onto each end.  That walk also settles connectivity, so no separate
    search runs.  Deterministic tie-breaks: the promoted endpoint leaves are
    the lowest-id candidates, the spine runs from its lower-id endpoint, and
    leaves of a spine vertex are ordered by increasing id.
    """
    if g.m != g.n - 1:
        return None  # a cycle, or too few edges to connect the graph
    if g.n <= 2:
        return CaterpillarStructure(tuple(range(g.n)), tuple(range(g.n)))

    # The internal (degree >= 2) vertices must form a path, which breadth
    # first from one of its ends walks in order; the leaves are closed in
    # advance, so only internal vertices are open.  With n - 1 edges a graph
    # of two or more components holds a cycle, whose vertices are internal:
    # either no internal vertex is an end, or the walk misses that cycle.
    # So a walk from an end that reaches every internal vertex means a tree.
    adj, degree = g.adjacency, list(map(len, g.adjacency))
    parent = [-1 if d >= 2 else v for v, d in enumerate(degree)]
    ends = []
    for v in range(g.n):
        if parent[v] < 0:
            d = sum(1 for w in adj[v] if parent[w] < 0)
            if d > 2:
                return None
            if d < 2:
                ends.append(v)
    if not ends:
        return None
    path = reach(adj, ends[0], parent)
    if -1 in parent:
        return None  # an internal vertex off the path

    # both path ends are internal, so each has a leaf to promote
    first = next(w for w in adj[path[0]] if degree[w] == 1)
    last = next(w for w in adj[path[-1]] if degree[w] == 1 and w != first)
    spine = [first, *path, last]
    if first > last:
        spine.reverse()

    # every vertex off the spine is a leaf of its one neighbour, and the
    # spine's ends have no leaves; neighbour tuples are sorted by id
    spine_set = set(spine)
    ordering = [spine[0]]
    for s in spine[1:]:
        ordering.append(s)
        ordering.extend(w for w in adj[s] if w not in spine_set)
    return CaterpillarStructure(tuple(spine), tuple(ordering))


@dataclass(frozen=True)
class PathDecomposition:
    """Sequence of vertex bags."""

    bags: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


class DecompositionCheck(NamedTuple):
    valid: bool
    width: int


def check_path_decomposition(g: Graph, pd: PathDecomposition) -> DecompositionCheck:
    """Validate a path decomposition of g; the width is reported either way.

    Checks that the bags cover every vertex, that each vertex occupies a
    contiguous run of bags (its bag count equals the span from its first bag
    to its last), and that every edge is inside some bag (with contiguous
    runs, the two spans overlap).  One pass over the bags, one over the edges.
    """
    first, last, count = [-1] * g.n, [-1] * g.n, [0] * g.n
    for i, bag in enumerate(pd.bags):
        for v in bag:
            if not 0 <= v < g.n:
                raise ValueError(f"bag vertex {v} out of range for n={g.n}")
            if first[v] < 0:
                first[v] = i
            last[v] = i
            count[v] += 1
    # an uncovered vertex has count 0 against a span of 1 (from -1 to -1)
    valid = all(c == b - a + 1 for a, b, c in zip(first, last, count)) and all(
        max(first[u], first[v]) <= min(last[u], last[v]) for u, v in g.edges
    )
    return DecompositionCheck(valid, pd.width)


def is_partial_two_tree(g: Graph) -> bool:
    """True if repeatedly deleting vertices of degree at most 2 empties g.

    Every partial 2-tree survives this elimination to the end, so a True
    answer is the structural sanity certificate used for compiled instances;
    the width-2 claim itself is certified by an explicit decomposition.
    """
    deg = list(map(len, g.adjacency))
    alive = [True] * g.n
    queue = [v for v in range(g.n) if deg[v] <= 2]
    removed = 0
    for v in queue:  # the list grows as it is read: first in, first out
        if not alive[v] or deg[v] > 2:
            continue
        alive[v] = False
        removed += 1
        for w in g.neighbors(v):
            if alive[w]:
                deg[w] -= 1
                if deg[w] <= 2:
                    queue.append(w)
    return removed == g.n


def is_bipartite(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Bipartition of g, or None if some component has an odd cycle.

    Each component is two-colored by one ``reach`` from its lowest vertex,
    which lands in the first part: every other vertex takes the side
    opposite its discoverer's.  Then every edge is checked once.
    """
    adj, parent = g.adjacency, [-1] * g.n
    order = [v for s in range(g.n) if parent[s] < 0 for v in reach(adj, s, parent)]
    side = [1] * g.n
    for v in order:  # a start is its own discoverer: 1 ^ 1 puts it on side 0
        side[v] = side[parent[v]] ^ 1
    if any(side[u] == side[v] for u, v in g.edges):
        return None
    return (
        frozenset(v for v in range(g.n) if side[v] == 0),
        frozenset(v for v in range(g.n) if side[v] == 1),
    )
