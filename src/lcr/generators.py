"""Seeded random instance generators.

All generators draw from ``random.Random(seed)`` so a 64-bit seed pins the
output exactly; serializers record the seed in a header comment.
"""

from __future__ import annotations

import random
from typing import Optional

from .graph import Graph
from .instance import LcrInstance
from .rerouting import SprInstance, build_spr_instance


def _greedy_coloring(g: Graph, lists, rng: random.Random) -> tuple[int, ...]:
    """Random proper list coloring, greedily in vertex id order.

    Only for a tree numbered parent first, with lists of two or more
    colors: each vertex then meets one colored neighbor and has a color
    left.
    """
    coloring: list[Optional[int]] = [None] * g.n
    for v in range(g.n):
        free = sorted(lists[v].difference(map(coloring.__getitem__, g.neighbors(v))))
        coloring[v] = rng.choice(free)
    return tuple(coloring)


def gen_caterpillar(
    spine_len: int,
    leaf_prob: float = 0.5,
    colors: int = 4,
    list_range: tuple[int, int] = (2, 3),
    seed: int = 0,
    leaves_per_spine: Optional[int] = None,
) -> LcrInstance:
    """Random normalized caterpillar instance.

    Spine vertices 0..spine_len-1 form a path; each gets either exactly
    ``leaves_per_spine`` leaves or a run of leaves drawn with probability
    ``leaf_prob``.  List sizes are drawn from ``list_range`` and clamped to
    [2, degree+1], so the instance is already normalized; leaves always end
    up with two colors.  Endpoint colorings come from independent randomized
    greedy runs in id order, which is parent first (spine path, then leaves).
    """
    if spine_len < 1:
        raise ValueError("spine length must be positive")
    if colors < 2:
        raise ValueError("need at least two colors")
    if leaves_per_spine is not None and leaves_per_spine < 0:
        raise ValueError("leaf count must not be negative")
    if not 0 <= leaf_prob <= 1:  # NaN fails too
        raise ValueError(f"leaf probability must be within [0, 1], not {leaf_prob}")
    rng = random.Random(seed)
    lo, hi = list_range
    if not 2 <= lo <= hi:
        raise ValueError("list size range must be within [2, ...]")

    edges = [(v, v + 1) for v in range(spine_len - 1)]
    nxt = spine_len
    for v in range(spine_len):
        if leaves_per_spine is not None:
            count = leaves_per_spine
        else:
            count = 0
            while count < 4 and rng.random() < leaf_prob:
                count += 1
        for _ in range(count):
            edges.append((v, nxt))
            nxt += 1
    g = Graph(nxt, edges)

    lists = []
    for v in range(g.n):
        top = 2 if g.n == 1 else min(g.degree(v) + 1, colors)
        size = max(2, min(rng.randint(lo, hi), top))
        lists.append(frozenset(rng.sample(range(colors), size)))

    f0 = _greedy_coloring(g, lists, rng)
    fr = _greedy_coloring(g, lists, rng)
    return LcrInstance(g, tuple(lists), f0, fr)


def gen_layered_spr(
    depth: int,
    max_width: int = 3,
    density: float = 0.6,
    seed: int = 0,
) -> SprInstance:
    """Random layered rerouting instance, already in pruned form.

    Interior layers get 1..max_width vertices; consecutive layers are joined
    with probability ``density`` plus one forced edge each way, so every
    vertex of layer i is at distance i from s and depth - i from t: pruning
    keeps every vertex, and d is depth.  The endpoint paths are independent
    random walks down the layers.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if max_width < 1:
        raise ValueError("layer width must be positive")
    if not 0 <= density <= 1:  # NaN fails too
        raise ValueError(f"density must be within [0, 1], not {density}")
    rng = random.Random(seed)

    sizes = [1] + [rng.randint(1, max_width) for _ in range(depth - 1)] + [1]
    layers: list[list[int]] = []
    nxt = 0
    for size in sizes:
        layers.append(list(range(nxt, nxt + size)))
        nxt += size
    edges: set[tuple[int, int]] = set()
    for i in range(depth):
        a, b = layers[i], layers[i + 1]
        for u in a:
            for v in b:
                if rng.random() < density:
                    edges.add((u, v))
        for u in a:
            if not any((u, v) in edges for v in b):
                edges.add((u, rng.choice(b)))
        for v in b:
            if not any((u, v) in edges for u in a):
                edges.add((rng.choice(a), v))
    g = Graph(nxt, sorted(edges))

    def random_walk() -> list[int]:
        path = [layers[0][0]]
        for i in range(depth):
            options = [v for v in g.neighbors(path[-1]) if v in set(layers[i + 1])]
            path.append(rng.choice(options))
        return path

    s, t = layers[0][0], layers[depth][0]
    return build_spr_instance(g, s, t, random_walk(), random_walk())
