"""Exhaustive reconfiguration oracle for desk-size instances.

The state space is the reconfiguration graph: one node per proper list
coloring, one edge per single-vertex recoloring.  ``reachable`` answers
one question about it, for the solve driver and everything downstream that
needs ground truth (tests, the experiments runner, witness extraction);
``build`` enumerates all of it, for ``lcr oracle stats``, the demos and
the tests' references.  Both refuse an instance whose product of list
sizes passes the state cap before any other work.  Each coloring carries
an integer code, one mixed-radix digit per vertex (the position of its
color in its sorted list), vertex 0 most significant, so code order is
lexicographic order; recoloring one vertex adds a multiple of its place
value to the code.

``build`` enumerates the proper colorings with an iterative backtracker
that places the vertices in breadth-first order, so each vertex after the
first of its component meets a placed neighbour, and sorting the codes
numbers the nodes in lexicographic order.  One set intersection per vertex
and shift finds every edge, once the hits whose addition carried into a
higher digit are dropped.

``reachable`` searches breadth first from both ends (Pohl, "Bi-directional
search", Machine Intelligence 6, 1971), generating moves as it goes.  Each
round grows the side with the smaller frontier by one whole level and
records, for each new coloring, every coloring of the level before that
reaches it (its discoverers).  Before a round the sides share no coloring,
so a shortest path is longer than their depths together; the first round
that meets fixes its length, and every coloring of the new level that the
other side holds lies at that one distance.  Those meeting colorings and
their discoverers, read back level by level, mark each coloring on f0's
side that lies on a shortest path; on fr's side every discoverer does.
The walk takes, from f0, the least marked successor at each level and,
past the meeting level, the least discoverer: the least shortest sequence
of colorings.  That is the path a breadth-first search of ``build``'s
graph reads back from first discoverers.  Its rows are sorted and its
nodes in lexicographic order, so by induction on the level it orders each
level by the least path to each node, and each node's first discoverer is
the one whose least path is least.  So the witness is the same, while the
search sees only the colorings within its two depths of either end.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from math import prod
from operator import add, contains
from typing import Optional, Sequence

from .errors import StateSpaceTooLarge, UnknownNode
from .graph import Graph, components, reach
from .instance import Coloring, LcrInstance, Step

DEFAULT_STATE_CAP = 2_000_000


def state_space_size(lists: Sequence[frozenset[int]]) -> int:
    return prod(len(lst) for lst in lists)


def _sorted_lists_within_cap(
    lists: Sequence[frozenset[int]], cap: int
) -> list[list[int]]:
    """The lists, sorted, once the product of their sizes is within cap.

    The product is taken only until it passes cap, so a refusal costs what
    the cap's size does, not the instance's, and carries that partial
    product as a lower bound.  An empty list anywhere makes the product 0.
    """
    if cap < 0:
        raise ValueError(f"state cap must be non-negative, not {cap}")
    size = 1
    for k in map(len, lists):
        size *= k
        if size > cap:
            break
    if size > cap and all(lists):
        raise StateSpaceTooLarge(size, cap)
    return [sorted(lst) for lst in lists]


def _strides(sorted_lists: Sequence[Sequence[int]]) -> list[int]:
    """Place value of each vertex's digit in a coloring's code."""
    strides = [1] * len(sorted_lists)
    for v in range(len(sorted_lists) - 2, -1, -1):
        strides[v] = strides[v + 1] * len(sorted_lists[v + 1])
    return strides


def _proper_colorings(
    g: Graph, sorted_lists: Sequence[Sequence[int]], strides: Sequence[int]
) -> tuple[list[int], list[Coloring]]:
    """Codes and colorings of every proper list coloring, sorted by code.

    A coloring's code is the mixed-radix number whose digit for v is the
    position of its color in ``sorted_lists[v]``, vertex 0 most significant,
    so code order is lexicographic order.  An explicit-stack backtracker
    places the vertices in breadth-first order, component by component
    from the lowest unplaced vertex, and offers each one only the colors
    that no placed neighbour holds.
    """
    if g.n == 0:
        return [0], [()]
    adj = g.adjacency
    parent = [-1] * g.n
    order = [v for s in range(g.n) if parent[s] < 0 for v in reach(adj, s, parent)]
    rank = {v: d for d, v in enumerate(order)}
    earlier = [[u for u in adj[v] if rank[u] < d] for d, v in enumerate(order)]
    options = [
        [(c, p * strides[v]) for p, c in enumerate(sorted_lists[v])] for v in order
    ]
    last = g.n - 1
    partial = [0] * g.n
    prefix = [0] * g.n
    codes: list[int] = []
    colorings: list[Coloring] = []
    # stack[d] iterates the colors left to try at depth d; only stack[0..d]
    # is live, the slots above are overwritten on the way down
    stack = [iter(options[0])] * g.n
    d = 0
    while d >= 0:
        v, before = order[d], earlier[d]
        for c, w in stack[d]:
            for u in before:
                if partial[u] == c:
                    break
            else:
                partial[v] = c
                if d == last:
                    codes.append(prefix[d] + w)
                    colorings.append(tuple(partial))
                    continue
                prefix[d + 1] = prefix[d] + w
                d += 1
                stack[d] = iter(options[d])
                break
        else:
            d -= 1
    perm = sorted(range(len(codes)), key=codes.__getitem__)
    return [codes[i] for i in perm], [colorings[i] for i in perm]


@dataclass
class ReconfigurationGraph:
    """Reconfiguration graph with canonically numbered nodes."""

    graph: Graph
    lists: tuple[frozenset[int], ...]
    nodes: tuple[Coloring, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def components(self) -> list[list[int]]:
        return components(self.adj)


def build(
    g: Graph,
    lists: Sequence[frozenset[int]],
    cap: int = DEFAULT_STATE_CAP,
) -> ReconfigurationGraph:
    """Enumerate all proper colorings and link those one recoloring apart.

    Nodes are numbered in code order, which is lexicographic order.  For
    each vertex v and each shift k * strides[v], k from 1 to |L(v)| - 1,
    the proper codes that are also some proper code plus the shift come
    from one set intersection.  A hit y is a recoloring of v only when its
    digit for v is at least k, that is y % (strides[v] * |L(v)|) >= shift;
    otherwise the addition carried into a higher digit.  Each adjacency
    list is sorted once every edge is in.  A cap below 0 is a ValueError.
    """
    lists = tuple(map(frozenset, lists))
    sorted_lists = _sorted_lists_within_cap(lists, cap)
    strides = _strides(sorted_lists)
    codes, colorings = _proper_colorings(g, sorted_lists, strides)
    nodes = tuple(colorings)
    # adjacency entries reuse the map's own id objects rather than a fresh
    # int each, which would add about 32 bytes per edge end
    id_of_code = dict(zip(codes, range(len(codes))))
    proper = id_of_code.keys()
    adj: list[list[int]] = [[] for _ in nodes]
    # no proper code, no edge; an empty list also zeroes the strides before it
    for stride, lst in zip(strides, sorted_lists) if codes else ():
        period = stride * len(lst)
        for shift in range(stride, period, stride):
            for y in proper & map(add, codes, repeat(shift)):
                if y % period >= shift:
                    i, j = id_of_code[y - shift], id_of_code[y]
                    adj[i].append(j)
                    adj[j].append(i)
    rows = tuple(map(tuple, map(sorted, adj)))
    return ReconfigurationGraph(g, lists, nodes, rows)


def _node_id(rg: ReconfigurationGraph, f: Sequence[int]) -> int:
    i = bisect_left(rg.nodes, tuple(f))  # the nodes are in lexicographic order
    if rg.nodes[i:i + 1] != (tuple(f),):
        raise UnknownNode(f"{tuple(f)} is not a proper list coloring here")
    return i


def _next_level(frontier, seen, moving):
    """The level after ``frontier``: each coloring one move past it that
    ``seen`` lacks, mapped to every frontier coloring that reaches it (its
    discoverers), and its (code, coloring) pairs; ``seen`` gains the level."""
    level: dict[int, list[int]] = {}
    fresh = []
    for code, col in frontier:
        for v, nbrs, moves in moving:
            for c, shift in moves[col[v]]:
                for u in nbrs:
                    if col[u] == c:
                        break
                else:
                    y = code + shift
                    discoverers = level.get(y)
                    if discoverers is not None:
                        discoverers.append(code)
                    elif y not in seen:
                        level[y] = [code]
                        fresh.append((y, col[:v] + (c,) + col[v + 1:]))
    seen.update(level)
    return level, fresh


def reachable(
    g: Graph,
    lists: Sequence[frozenset[int]],
    f0: Sequence[int],
    fr: Sequence[int],
    cap: int = DEFAULT_STATE_CAP,
) -> tuple[Optional[list[Step]], int]:
    """The least shortest recoloring sequence from f0 to fr, or None if fr is
    out of reach, and the number of colorings the search visited.

    Refuses as ``build`` does, with the same partial product, once the
    product of the list sizes passes cap; then raises ``UnknownNode`` for
    an end that is not a proper list coloring.  The module docstring has
    the search and why its steps are those of a search of ``build``'s graph.
    """
    sorted_lists = _sorted_lists_within_cap(lists, cap)
    for f in (f0, fr):
        if (
            len(f) != g.n
            or not all(map(contains, lists, f))
            or any(f[u] == f[v] for u, v in g.edges)
        ):
            raise UnknownNode(f"{tuple(f)} is not a proper list coloring here")
    strides = _strides(sorted_lists)
    moving = [
        (v, g.adjacency[v], {
            c: tuple((other, (q - p) * stride) for q, other in enumerate(lst) if q != p)
            for p, c in enumerate(lst)
        })
        for v, (stride, lst) in enumerate(zip(strides, sorted_lists))
        if len(lst) > 1
    ]

    def code(f):
        return sum(lst.index(c) * s for c, lst, s in zip(f, sorted_lists, strides))

    src, dst = code(f0), code(fr)
    if src == dst:
        return [], 1
    # each side maps every coloring it has seen to its discoverers one level
    # nearer its own end
    ahead, back = {src: []}, {dst: []}
    ahead_front, back_front = [(src, tuple(f0))], [(dst, tuple(fr))]
    ahead_depth = back_depth = 0
    while ahead_front and back_front:
        if len(ahead_front) <= len(back_front):
            level, ahead_front = _next_level(ahead_front, ahead, moving)
            ahead_depth += 1
            meet = [y for y in level if y in back]
        else:
            level, back_front = _next_level(back_front, back, moving)
            back_depth += 1
            meet = [y for y in level if y in ahead]
        if meet:
            break
    else:
        return None, len(ahead) + len(back)
    # the colorings of each level ahead that lie on a shortest path, read back
    # from the meeting ones; the last is {src}
    marked = [meet]
    for _ in range(ahead_depth):
        marked.append({x for y in marked[-1] for x in ahead[y]})
    path = [src]
    for layer in reversed(marked[:-1]):
        path.append(min(y for y in layer if path[-1] in ahead[y]))
    for _ in range(back_depth):
        path.append(min(back[path[-1]]))
    colorings = [
        tuple(lst[y // s % len(lst)] for lst, s in zip(sorted_lists, strides)) for y in path
    ]
    steps = []
    for fa, fb in zip(colorings, colorings[1:]):
        (v,) = [x for x in range(g.n) if fa[x] != fb[x]]
        steps.append((v, fb[v]))
    return steps, len(ahead) + len(back) - len(meet)


def component_of(rg: ReconfigurationGraph, f: Sequence[int]) -> frozenset[int]:
    """Node ids of the component containing f."""
    return frozenset(reach(rg.adj, _node_id(rg, f), [-1] * len(rg.adj)))


def oracle_decide(inst: LcrInstance, cap: int = DEFAULT_STATE_CAP) -> bool:
    """Reachability answer straight from the two-sided search."""
    return reachable(inst.graph, inst.lists, inst.f0, inst.fr, cap)[0] is not None
