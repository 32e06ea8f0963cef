"""Exhaustive reconfiguration oracle for desk-size instances.

Builds the full reconfiguration graph: one node per proper list coloring,
one edge per single-vertex recoloring.  Everything downstream that needs
ground truth (tests, the experiments runner, witness extraction) goes
through this module.

An instance whose product of list sizes passes the state cap is refused
before any other work.  Otherwise an iterative backtracker enumerates the
proper colorings, placing the vertices in breadth-first order, so each
vertex after the first of its component meets a placed neighbour.  Each
coloring carries an integer code, one mixed-radix digit per vertex, and
sorting the codes numbers the nodes in lexicographic order.  Recoloring
one vertex adds a multiple of its place value to the code, so one set
intersection per vertex and shift finds every edge, once the hits whose
addition carried into a higher digit are dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from math import prod
from operator import add
from typing import Optional, Sequence

from .errors import StateSpaceTooLarge, UnknownNode
from .graph import Graph, components, reach, shortest_path
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


def reachable(
    rg: ReconfigurationGraph, f0: Sequence[int], fr: Sequence[int]
) -> Optional[list[Step]]:
    """Shortest recoloring sequence from f0 to fr, or None if unreachable."""
    path = shortest_path(rg.adj, _node_id(rg, f0), _node_id(rg, fr))
    if path is None:
        return None
    steps = []
    for a, b in zip(path, path[1:]):
        fa, fb = rg.nodes[a], rg.nodes[b]
        (v,) = [x for x in range(rg.graph.n) if fa[x] != fb[x]]
        steps.append((v, fb[v]))
    return steps


def component_of(rg: ReconfigurationGraph, f: Sequence[int]) -> frozenset[int]:
    """Node ids of the component containing f."""
    return frozenset(reach(rg.adj, _node_id(rg, f), [-1] * len(rg.adj)))


def oracle_decide(inst: LcrInstance, cap: int = DEFAULT_STATE_CAP) -> bool:
    """Reachability answer straight from the full reconfiguration graph."""
    rg = build(inst.graph, inst.lists, cap)
    return reachable(rg, inst.f0, inst.fr) is not None
