"""Shortest-path rerouting on layered graphs.

A shortest s-t path is rerouted by swapping one vertex at a time while every
intermediate path stays shortest.  With d the s-t distance, layer i holds the
vertices at distance i from s and d-i from t; a shortest path picks exactly
one vertex per layer, and two shortest paths are adjacent when they differ in
exactly one pick.  Vertices outside every layer can never appear on a
shortest path, so instances are pruned down to the layered part up front.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import Disconnected, StateSpaceTooLarge
from .graph import Graph, reach, shortest_path

SPath = tuple[int, ...]

DEFAULT_PATH_CAP = 100_000


def _distances(adj: Sequence[Sequence[int]], start: int) -> list[int]:
    """Breadth-first distance of each vertex from start; -1 out of reach."""
    parent, dist = [-1] * len(adj), [-1] * len(adj)
    for v in reach(adj, start, parent):  # start, its own parent, gets -1 + 1
        dist[v] = dist[parent[v]] + 1
    return dist


def compute_layers(
    g: Graph, s: int, t: int, names: Optional[Sequence[int]] = None
) -> tuple[int, tuple[tuple[int, ...], ...], Graph, dict[int, int]]:
    """Distance, layers, and the graph pruned to the layered vertices.

    Layer i collects the vertices at distance i from s and d-i from t; only
    those can lie on a shortest s-t path.  Returns (d, layers, pruned graph,
    old-to-new id map).  Pruned id i is the i-th kept vertex, as
    ``Graph.induced_subgraph`` numbers them, so each layer comes out sorted.
    ``names``, if given, lists in increasing order the id each vertex of g
    stands for, as when a parser relabels a sparse text; s, t, the messages
    and the map's old ids are then those ids.
    """
    label = range(g.n) if names is None else names
    a, b = bisect_left(label, s), bisect_left(label, t)  # the ends' vertices
    if s not in label[a:a + 1] or t not in label[b:b + 1]:
        raise ValueError("endpoint out of range")
    adj = g.adjacency
    dist_s = _distances(adj, a)
    if dist_s[b] == -1:
        raise Disconnected(f"no path between {s} and {t}")
    d = dist_s[b]
    dist_t = _distances(adj, b)
    keep = [v for v in range(g.n) if dist_s[v] != -1 and dist_s[v] + dist_t[v] == d]
    layers: list[list[int]] = [[] for _ in range(d + 1)]
    for i, v in enumerate(keep):
        layers[dist_s[v]].append(i)
    id_map = {label[v]: i for i, v in enumerate(keep)}
    return d, tuple(map(tuple, layers)), g.induced_subgraph(keep), id_map


@dataclass(frozen=True)
class SprInstance:
    """Pruned rerouting instance: graph, endpoints, the two paths, layers."""

    graph: Graph
    s: int
    t: int
    p0: SPath
    pr: SPath
    d: int
    layers: tuple[tuple[int, ...], ...]
    id_map: dict[int, int]


def build_spr_instance(
    g: Graph, s: int, t: int, p0: Sequence[int], pr: Sequence[int],
    names: Optional[Sequence[int]] = None,
) -> SprInstance:
    """Prune to the layered vertices and validate the two endpoint paths.

    ``names`` is as in ``compute_layers``; the paths use those ids too.
    """
    d, layers, pruned, id_map = compute_layers(g, s, t, names)
    try:
        new_p0 = tuple(id_map[v] for v in p0)
        new_pr = tuple(id_map[v] for v in pr)
    except KeyError as exc:
        raise ValueError(f"path vertex {exc.args[0]} is on no shortest path") from exc
    inst = SprInstance(pruned, id_map[s], id_map[t], new_p0, new_pr, d, layers, id_map)
    for name, p in (("p0", new_p0), ("pr", new_pr)):
        if not is_s_path(inst, p):
            raise ValueError(f"{name} is not a shortest s-t path")
    return inst


def is_s_path(inst: SprInstance, p: Sequence[int]) -> bool:
    """True if p is a shortest s-t path (one vertex per layer, consecutive edges)."""
    if len(p) != inst.d + 1:
        return False
    if p[0] != inst.s or p[-1] != inst.t:
        return False
    if any(not 0 <= v < inst.graph.n for v in p):
        return False
    if any(p[i] not in inst.layers[i] for i in range(len(p))):
        return False
    return all(inst.graph.has_edge(u, v) for u, v in zip(p, p[1:]))


def adjacent_s_paths(p: Sequence[int], q: Sequence[int]) -> bool:
    """True if the paths differ in exactly one vertex."""
    return len(set(p) ^ set(q)) == 2


def enumerate_s_paths(inst: SprInstance, cap: int = DEFAULT_PATH_CAP) -> list[SPath]:
    """All shortest s-t paths, depth first in increasing vertex order, kept
    on a stack of neighbour iterators (one per layer) instead of recursion."""
    layer_sets = [set(layer) for layer in inst.layers]
    out: list[SPath] = []
    prefix = [inst.s]
    pending = [iter(inst.graph.neighbors(inst.s))]
    while pending:
        if len(prefix) == inst.d + 1:
            out.append(tuple(prefix))
            if len(out) > cap:
                raise StateSpaceTooLarge(len(out), cap)
        else:
            w = next((w for w in pending[-1] if w in layer_sets[len(prefix)]), None)
            if w is not None:
                prefix.append(w)
                pending.append(iter(inst.graph.neighbors(w)))
                continue
        prefix.pop()
        pending.pop()
    return out


def brute_solve(
    inst: SprInstance, cap: int = DEFAULT_PATH_CAP
) -> Optional[list[SPath]]:
    """Breadth-first rerouting search over all shortest paths.

    Returns a shortest rerouting sequence p0..pr (a single-element list when
    they coincide) or None when pr is out of reach.
    """
    paths = enumerate_s_paths(inst, cap)
    index = {p: i for i, p in enumerate(paths)}
    if inst.p0 not in index or inst.pr not in index:
        raise ValueError("endpoint paths missing from the enumeration")

    # bucket paths by each single-layer wildcard to find the swap neighbors
    buckets: dict[tuple, list[int]] = {}
    for i, p in enumerate(paths):
        for j in range(1, inst.d):
            key = p[:j] + (-1,) + p[j + 1:]
            buckets.setdefault(key, []).append(i)
    adj: list[set[int]] = [set() for _ in paths]
    for group in buckets.values():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                adj[group[a]].add(group[b])
                adj[group[b]].add(group[a])

    chain = shortest_path(adj, index[inst.p0], index[inst.pr])
    return None if chain is None else [paths[i] for i in chain]
