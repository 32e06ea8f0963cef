"""Heights: a linear-time decision for components whose lists lie within
three colours.

Rename the colours 0, 1 and 2.  A proper colouring f *lifts* to a height
h: V -> Z when h(v) = f(v) mod 3 and |h(u) - h(v)| = 1 on every edge (the
height view of Cereceda, van den Heuvel & Johnson, "Finding paths between
3-colorings", J. Graph Theory 2011; Wrochna, "Homomorphism reconfiguration
via homotopy", STACS 2015).  On a connected graph a lift, if there is one,
is unique up to adding a multiple of 3.  With three colours a vertex moves
only when all its neighbours share one colour, so a move flips a local
extreme of h by 2: a lift stays a lift, and a colouring that lifts never
reaches one that does not.  A two-colour list confines h(v) to the band
{x, x + 2} that f0 fixes; a three-colour list leaves h(v) free.

When both ends lift, fr is reachable exactly when some lift T = h_r + 3k
of fr lies in every band.  A band holds one value = h_r(v) mod 3, so each
fixes one k, and the answer is YES when they all fix the same one (with no
band, any k that keeps h0 - T even).  The lifts inside the bands are
connected by flips: the vertex furthest above T, the highest among those,
is a local maximum whose flip stays in its band, and likewise below.  So
the witness flips down to min(h0, T) and then up to T; each vertex moves
|h0 - T| / 2 times, which no sequence undercuts, so on the component the
witness is shortest.  When exactly one end lifts the answer is NO; when
neither does, the heights cannot tell.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .graph import reach
from .instance import LcrInstance, Step


class Winding(NamedTuple):
    """Why the heights answer NO.  ``"pair"``: two two-colour vertices
    whose bands fix different lifts of fr, found when both ends lift.
    ``"cycle"``: a cycle, in order, around which f0 and fr wind differently,
    found when exactly one end lifts."""

    kind: str
    vertices: tuple[int, ...]


class Outcome(NamedTuple):
    answer: bool
    steps: Optional[list[Step]]  # a YES's flips, when a witness was asked for
    winding: Optional[Winding]  # a NO's certificate


def _lift(order: list[int], parent: list[int], f: list[int]) -> list[int]:
    """Heights of f (colours renamed 0..2) down the search tree; every tree
    edge differs by one, the other edges are unchecked."""
    h = [0] * len(f)
    root = order[0]
    h[root] = f[root]
    for v in order:
        p = parent[v]
        if p != v:
            h[v] = h[p] + 1 if (f[v] - f[p]) % 3 == 1 else h[p] - 1
    return h


def _bad_edge(edges, h: list[int]) -> Optional[tuple[int, int]]:
    return next(((u, v) for u, v in edges if abs(h[u] - h[v]) != 1), None)


def _cycle(parent: list[int], u: int, w: int) -> tuple[int, ...]:
    """The tree paths from u and from w up to where they meet, joined by
    the edge uw: a cycle whose winding is h's jump across that edge."""
    up = [u]
    while parent[up[-1]] != up[-1]:
        up.append(parent[up[-1]])
    depth = {x: i for i, x in enumerate(up)}
    down = [w]
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    return tuple(up[: depth[down[-1]]] + down[::-1])


def _nearest_k(h0: list[int], hr: list[int]) -> int:
    """The k that minimises the sum of |h0 - hr - 3k| over the k of the
    parity that keeps every h0 - hr - 3k even; the smaller one on a tie."""
    d = sorted(map(int.__sub__, h0, hr))
    k0 = d[len(d) // 2] // 3  # the real minimiser, a median over 3, lies in [k0, k0 + 1)
    return min(
        (k for k in range(k0 - 1, k0 + 3) if (k - d[0]) % 2 == 0),
        key=lambda k: (sum(abs(x - 3 * k) for x in d), k),
    )


def _flips(h: list[int], target: list[int], rows, colours: Sequence[int]) -> list[Step]:
    """Flip local extremes of h down to min(h, target), then up to target.

    ``blocking[v]`` counts the neighbours on the side v moves away from,
    which a local extreme has none of; a flip of v unblocks each neighbour
    once and blocks v on all sides.  A worklist holds the unblocked
    vertices short of their goal, so each flip costs its degree.  A vertex
    never passes its goal, so a target off h's parity ends the flips
    rather than looping.
    """
    h, steps = list(h), []
    for sign, goal in ((-1, list(map(min, h, target))), (1, target)):
        blocking = [sum(h[u] == x - sign for u in row) for x, row in zip(h, rows)]
        work = [v for v, b in enumerate(blocking) if not b and (goal[v] - h[v]) * sign > 0]
        while work:
            v = work.pop()
            if blocking[v] or (goal[v] - h[v]) * sign <= 0:
                continue
            h[v] += 2 * sign
            steps.append((v, colours[h[v] % 3]))
            blocking[v] = len(rows[v])
            for u in rows[v]:
                blocking[u] -= 1
                if not blocking[u] and (goal[u] - h[u]) * sign > 0:
                    work.append(u)
    return steps


def decide(inst: LcrInstance, want_witness: bool = False) -> Optional[Outcome]:
    """Answer a connected instance whose lists all hold two or three
    colours, as a component of a normalized instance does; None when its
    lists hold four colours or more in all (the scan stops at the fourth),
    or when neither f0 nor fr lifts.

    One breadth-first search lifts both ends, and one pass over the edges
    checks each.  A YES comes with the two-phase flip sequence when
    ``want_witness`` is set; a NO with its ``Winding``.  Ids are the
    instance's own.
    """
    palette: set[int] = set()
    for lst in inst.lists:
        palette.update(lst)
        if len(palette) > 3:
            return None
    colours = sorted(palette)
    rank = {c: i for i, c in enumerate(colours)}
    f0, fr = [rank[c] for c in inst.f0], [rank[c] for c in inst.fr]
    rows, edges = inst.graph.adjacency, inst.graph.edges
    parent = [-1] * inst.graph.n
    order = reach(rows, 0, parent)
    if len(order) != inst.graph.n:
        raise ValueError("the heights take a connected instance")
    h0, hr = _lift(order, parent, f0), _lift(order, parent, fr)
    bad0, badr = _bad_edge(edges, h0), _bad_edge(edges, hr)
    if bad0 is not None or badr is not None:
        if bad0 is not None and badr is not None:
            return None
        return Outcome(False, None, Winding("cycle", _cycle(parent, *(bad0 or badr))))

    k = first = None
    for v, lst in enumerate(inst.lists):
        if len(lst) == 2:
            (other,) = lst.difference((inst.f0[v],))
            lo = h0[v] if (rank[other] - f0[v]) % 3 == 2 else h0[v] - 2
            t = lo if (lo - hr[v]) % 3 == 0 else lo + 2
            kv = (t - hr[v]) // 3
            if first is None:
                k, first = kv, v
            elif kv != k:
                return Outcome(False, None, Winding("pair", (first, v)))
    if not want_witness:
        return Outcome(True, None, None)
    if k is None:
        k = _nearest_k(h0, hr)
    return Outcome(True, _flips(h0, [x + 3 * k for x in hr], rows, colours), None)
