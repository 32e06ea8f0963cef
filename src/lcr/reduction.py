"""Compile shortest-path rerouting into list coloring reconfiguration.

Every interior layer i of the rerouting instance becomes one layer vertex
u_i whose color list mirrors layer i: color (i, j) stands for the j-th layer
vertex.  A proper coloring of the layer vertices therefore spells out one
candidate path; to force consecutive picks to be adjacent in the source
graph, every missing edge between consecutive interior layers gets a
forbidden vertex joined to u_i and u_{i+1} whose two-color list names
exactly that missing pair.  Layer-1 picks are always adjacent to s and
layer-(d-1) picks to t, so those gaps need no gadgets.  Rerouting sequences
and recoloring sequences translate into each other step by step.

The compiled graph is bipartite (layer vertices versus forbidden vertices)
and admits a width-2 path decomposition that walks the layers in order.
Adding a clique on the layer vertices and joining every forbidden vertex to
every layer vertex yields a threshold graph (weights 1 and 0, bound 1)
without changing the set of proper list colorings, since every added edge
joins vertices with disjoint lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateDistance,
    ImproperColoring,
    InvalidRerouting,
    InvalidSequence,
)
from .graph import Graph, PathDecomposition
from .instance import Coloring, LcrInstance, Step, is_proper_list_coloring, is_valid_sequence
from .rerouting import SPath, SprInstance, adjacent_s_paths, is_s_path


@dataclass(frozen=True)
class ForbiddenVertex:
    """Gadget vertex for the missing edge (layer, x) -- (layer+1, y)."""

    vertex: int
    layer: int
    x: int
    y: int


@dataclass(frozen=True)
class ReducedInstance:
    """A compiled instance with the one map back to its rerouting instance.

    Layer vertex u_i (1 <= i < spr.d) has id i-1; the forbidden vertices
    follow, in ``forbidden``'s order.  Color c picks ``spr.layers[i][j]``
    for ``pair_of[c] == (i, j)``.
    """

    lcr: LcrInstance
    forbidden: tuple[ForbiddenVertex, ...]
    pair_of: dict[int, tuple[int, int]]
    spr: SprInstance


def compile_spr(spr: SprInstance) -> ReducedInstance:
    """Build the equivalent list coloring reconfiguration instance.

    Layer vertex u_i takes id i-1; forbidden vertices follow, ordered by
    (layer, x, y), each joined only to its two layer vertices and listing
    just its missing pair; the rest of this module relies on that.  Color
    ids are dense, layer by layer, one per vertex of an interior layer.
    The start coloring paints u_i with p0's pick in layer i; each forbidden
    vertex then takes the lowest list color on neither neighbor (one of the
    two is always free, because its pair cannot sit on a path).  The target
    coloring comes from pr the same way.
    """
    d = spr.d
    if d <= 1:
        raise DegenerateDistance(f"distance {d} leaves nothing to compile")

    pair_of: dict[int, tuple[int, int]] = {}
    color: dict[int, int] = {}  # source vertex of an interior layer -> its color
    lists: list[frozenset[int]] = []
    for i in range(1, d):
        for j, v in enumerate(spr.layers[i]):
            color[v] = len(pair_of)
            pair_of[len(pair_of)] = (i, j)
        lists.append(frozenset(map(color.__getitem__, spr.layers[i])))

    num_layer = d - 1
    edges: list[tuple[int, int]] = []
    forbidden: list[ForbiddenVertex] = []
    for i in range(1, d - 1):
        for x, vx in enumerate(spr.layers[i]):
            for y, vy in enumerate(spr.layers[i + 1]):
                if spr.graph.has_edge(vx, vy):
                    continue
                w = num_layer + len(forbidden)
                forbidden.append(ForbiddenVertex(w, i, x, y))
                edges += ((i - 1, w), (i, w))
                lists.append(frozenset((color[vx], color[vy])))

    g = Graph(num_layer + len(forbidden), edges)

    def endpoint(path: SPath) -> Coloring:
        f = [color[v] for v in path[1:d]]
        for w in range(num_layer, g.n):
            f.append(min(lists[w] - {f[u] for u in g.neighbors(w)}))
        return tuple(f)

    inst = LcrInstance(g, tuple(lists), endpoint(spr.p0), endpoint(spr.pr))
    return ReducedInstance(inst, tuple(forbidden), pair_of, spr)


@dataclass(frozen=True)
class ThresholdWitness:
    """Vertex weights plus bound certifying a threshold graph."""

    weights: tuple[int, ...]
    bound: int

    def verify(self, g: Graph) -> bool:
        """Edges must be exactly the pairs whose weights sum to the bound.

        Every edge must reach the bound; then the edges are all such pairs
        exactly when their number matches a count of the pairs that reach it,
        taken by two pointers over the sorted weights.
        """
        weights, bound = self.weights, self.bound
        if any(weights[u] + weights[v] < bound for u, v in g.edges):
            return False
        ws = sorted(weights[v] for v in range(g.n))
        pairs, lo, hi = 0, 0, g.n - 1
        while lo < hi:
            if ws[lo] + ws[hi] >= bound:  # so does ws[k] + ws[hi] for lo <= k < hi
                pairs += hi - lo
                hi -= 1
            else:
                lo += 1
        return pairs == g.m


def to_threshold(red: ReducedInstance) -> tuple[LcrInstance, ThresholdWitness]:
    """Complete the layer vertices into a clique and join them to the rest.

    The edges are every pair (a, b) with a < k and a < b < n, for the k
    layer vertices (ids 0..k-1) among n; they include the compiled edges.
    Layer vertices weigh 1, forbidden vertices 0, bound 1.  Every added edge
    joins vertices whose lists are disjoint, so the proper list colorings,
    and hence the reconfiguration answer, are untouched.
    """
    base = red.lcr
    n, k = base.graph.n, red.spr.d - 1
    g = Graph(n, [(a, b) for a in range(k) for b in range(a + 1, n)])
    inst = LcrInstance(g, base.lists, base.f0, base.fr)
    return inst, ThresholdWitness((1,) * k + (0,) * (n - k), 1)


def emit_path_decomposition(red: ReducedInstance) -> PathDecomposition:
    """Width <= 2 path decomposition walking the layer vertices in order.

    For each consecutive layer pair we list one bag per forbidden vertex
    between them, then a two-vertex connector bag; ``forbidden`` is in layer
    order, so one walk over it fills the bags.  A distance-2 instance has a
    single layer vertex and gets the one singleton bag.
    """
    d, forbidden = red.spr.d, red.forbidden
    if d == 2:
        return PathDecomposition((frozenset({0}),))
    bags: list[frozenset[int]] = []
    k = 0
    for i in range(1, d - 1):
        while k < len(forbidden) and forbidden[k].layer == i:
            bags.append(frozenset({i - 1, i, forbidden[k].vertex}))
            k += 1
        bags.append(frozenset({i - 1, i}))
    return PathDecomposition(tuple(bags))


def coloring_to_spath(red: ReducedInstance, f: Sequence[int]) -> SPath:
    """Read the encoded shortest path off a proper coloring."""
    if not is_proper_list_coloring(red.lcr, f):
        raise ImproperColoring("only proper colorings encode paths")
    spr = red.spr
    picks = (spr.layers[i][j] for i, j in map(red.pair_of.__getitem__, f[:spr.d - 1]))
    return (spr.s, *picks, spr.t)


def spath_sequence_to_recoloring(
    red: ReducedInstance, seq: Sequence[SPath]
) -> list[Step]:
    """Expand a rerouting sequence into a recoloring witness.

    For each swap at layer i, forbidden neighbors of u_i sitting on the
    incoming color first dodge to their other list color; then u_i moves.
    After the last swap the forbidden vertices are recolored to match fr.
    """
    spr = red.spr
    if (not seq or tuple(seq[0]) != spr.p0 or tuple(seq[-1]) != spr.pr
            or not all(is_s_path(spr, p) for p in seq)
            or not all(map(adjacent_s_paths, seq, seq[1:]))):
        raise InvalidRerouting("not a rerouting sequence between p0 and pr")

    color = {spr.layers[i][j]: c for c, (i, j) in red.pair_of.items()}
    cur = list(red.lcr.f0)
    steps: list[Step] = []

    def recolor(v: int, c: int):
        if cur[v] != c:
            cur[v] = c
            steps.append((v, c))

    for p, q in zip(seq, seq[1:]):
        (i,) = [k for k in range(1, spr.d) if p[k] != q[k]]
        u = i - 1
        target = color[q[i]]
        for w in red.lcr.graph.neighbors(u):  # u's forbidden vertices
            if cur[w] == target:
                (other,) = red.lcr.lists[w] - {target}
                recolor(w, other)
        recolor(u, target)
    for w in range(spr.d - 1, red.lcr.graph.n):
        recolor(w, red.lcr.fr[w])
    return steps


def recoloring_to_spath_sequence(
    red: ReducedInstance, steps: Sequence[Step]
) -> list[SPath]:
    """Project a recoloring witness back onto its rerouting sequence.

    The sequence is checked once; after that each step on layer vertex
    u_i moves the encoded path's layer-i vertex (every step changes a
    color), and runs of forbidden recolorings collapse away.
    """
    if not is_valid_sequence(red.lcr, steps):
        raise InvalidSequence("not a valid recoloring sequence for the instance")
    spr = red.spr
    path = list(coloring_to_spath(red, red.lcr.f0))
    seq = [tuple(path)]
    for v, c in steps:
        if v < spr.d - 1:
            i, j = red.pair_of[c]
            path[i] = spr.layers[i][j]
            seq.append(tuple(path))
    return seq
