"""Exhaustive reconfiguration oracle for desk-size instances.

Builds the full reconfiguration graph: one node per proper list coloring,
one edge per single-vertex recoloring.  Everything downstream that needs
ground truth (tests, the experiments runner, witness extraction) goes
through this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from .errors import StateSpaceTooLarge, UnknownNode
from .graph import Graph
from .instance import Coloring, LcrInstance, Step

DEFAULT_STATE_CAP = 2_000_000


def state_space_size(lists: Sequence[frozenset[int]]) -> int:
    return prod(len(lst) for lst in lists)


def enumerate_colorings(
    g: Graph,
    lists: Sequence[frozenset[int]],
    cap: int = DEFAULT_STATE_CAP,
) -> list[Coloring]:
    """All proper list colorings of g in lexicographic order.

    The product of the list sizes must stay within cap; the backtracking
    itself prunes on the first clashing neighbor.
    """
    size = state_space_size(lists)
    if size > cap:
        raise StateSpaceTooLarge(size, cap)
    sorted_lists = [sorted(lst) for lst in lists]
    earlier = [
        [u for u in g.neighbors(v) if u < v] for v in range(g.n)
    ]
    out: list[Coloring] = []
    partial = [0] * g.n

    def fill(v: int):
        if v == g.n:
            out.append(tuple(partial))
            return
        for c in sorted_lists[v]:
            if all(partial[u] != c for u in earlier[v]):
                partial[v] = c
                fill(v + 1)

    fill(0)
    return out


@dataclass
class ReconfigurationGraph:
    """Reconfiguration graph with canonically numbered nodes."""

    graph: Graph
    lists: tuple[frozenset[int], ...]
    nodes: tuple[Coloring, ...]
    index: dict[Coloring, int]
    adj: tuple[tuple[int, ...], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def components(self) -> list[list[int]]:
        seen = [False] * len(self.nodes)
        comps = []
        for start in range(len(self.nodes)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps


def build(
    g: Graph,
    lists: Sequence[frozenset[int]],
    cap: int = DEFAULT_STATE_CAP,
) -> ReconfigurationGraph:
    """Enumerate all proper colorings and link those one recoloring apart."""
    lists = tuple(frozenset(lst) for lst in lists)
    nodes = tuple(enumerate_colorings(g, lists, cap))
    index = {f: i for i, f in enumerate(nodes)}
    sorted_lists = [sorted(lst) for lst in lists]
    adj: list[list[int]] = [[] for _ in nodes]
    for i, f in enumerate(nodes):
        for v in range(g.n):
            fv = f[v]
            head, tail = f[:v], f[v + 1:]
            for c in sorted_lists[v]:
                if c == fv:
                    continue
                j = index.get(head + (c,) + tail)
                if j is not None and j > i:
                    adj[i].append(j)
                    adj[j].append(i)
    return ReconfigurationGraph(
        g, lists, nodes, index, tuple(tuple(sorted(a)) for a in adj)
    )


def _node_id(rg: ReconfigurationGraph, f: Sequence[int]) -> int:
    i = rg.index.get(tuple(f))
    if i is None:
        raise UnknownNode(f"{tuple(f)} is not a proper list coloring here")
    return i


def reachable(
    rg: ReconfigurationGraph, f0: Sequence[int], fr: Sequence[int]
) -> Optional[list[Step]]:
    """Shortest recoloring sequence from f0 to fr, or None if unreachable."""
    src, dst = _node_id(rg, f0), _node_id(rg, fr)
    if src == dst:
        return []
    parent = {src: -1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in rg.adj[u]:
            if w not in parent:
                parent[w] = u
                if w == dst:
                    queue.clear()
                    break
                queue.append(w)
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    steps = []
    for a, b in zip(path, path[1:]):
        fa, fb = rg.nodes[a], rg.nodes[b]
        (v,) = [x for x in range(rg.graph.n) if fa[x] != fb[x]]
        steps.append((v, fb[v]))
    return steps


def component_of(rg: ReconfigurationGraph, f: Sequence[int]) -> frozenset[int]:
    """Node ids of the component containing f."""
    start = _node_id(rg, f)
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in rg.adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def oracle_decide(inst: LcrInstance, cap: int = DEFAULT_STATE_CAP) -> bool:
    """Reachability answer straight from the full reconfiguration graph."""
    rg = build(inst.graph, inst.lists, cap)
    return reachable(rg, inst.f0, inst.fr) is not None
