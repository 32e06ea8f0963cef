"""List coloring reconfiguration instances, normalization, and witnesses.

An instance bundles a graph, one color list per vertex, and two endpoint
colorings f0 and fr.  Colorings are tuples indexed by vertex.  A recoloring
sequence is a list of (vertex, color) steps; every intermediate coloring must
stay a proper list coloring.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from operator import contains, ne
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InfeasibleList, InvalidSequence, PartialColoring
from .graph import Graph, reach

Coloring = tuple[int, ...]
Step = tuple[int, int]


@dataclass(frozen=True)
class LcrInstance:
    graph: Graph
    lists: tuple[frozenset[int], ...]
    f0: Coloring
    fr: Coloring

    def __post_init__(self):
        n = self.graph.n
        if len(self.lists) != n:
            raise ValueError("need exactly one color list per vertex")
        if not all(self.lists):
            raise ValueError("color lists must be nonempty")
        if len(self.f0) != n or len(self.fr) != n:
            raise ValueError("endpoint colorings must be total")

    @property
    def num_colors(self) -> int:
        """Size of the smallest dense color universe containing every list."""
        return 1 + max((max(lst) for lst in self.lists), default=-1)


def make_instance(graph, lists, f0, fr) -> LcrInstance:
    """Convenience constructor accepting plain iterables."""
    return LcrInstance(
        graph,
        tuple(frozenset(lst) for lst in lists),
        tuple(f0),
        tuple(fr),
    )


def is_proper_list_coloring(inst: LcrInstance, f: Sequence[int]) -> bool:
    """True if f colors every vertex from its own list with no monochromatic edge."""
    if len(f) != inst.graph.n:
        raise PartialColoring(
            f"coloring assigns {len(f)} of {inst.graph.n} vertices"
        )
    if not all(map(contains, inst.lists, f)):
        return False
    return all(f[u] != f[v] for u, v in inst.graph.edges)


class SingletonRemoval(NamedTuple):
    """Vertex with a one-color list was deleted; that color left the
    neighbors' lists.  ``affected`` holds the neighbors whose lists shrank.

    Removal records are tuples, so tuple equality applies: a
    ``SingletonRemoval`` equals a ``RichListRemoval`` with equal fields.  Its
    ``color`` is an int where the other has a tuple of ``colors``, so no real
    trace holds such a pair; ``isinstance`` tells the two kinds apart.
    """

    vertex: int
    color: int
    affected: tuple[int, ...]


class RichListRemoval(NamedTuple):
    """Vertex with at least degree+2 list colors was deleted; lists unchanged.

    ``colors`` is the vertex's list and ``neighbors`` its live neighbors at
    removal time, which is all that lifting needs to dodge around it.  Like
    ``SingletonRemoval``, the record is a tuple.
    """

    vertex: int
    colors: tuple[int, ...]
    neighbors: tuple[int, ...]


Removal = Union[SingletonRemoval, RichListRemoval]


@dataclass(frozen=True)
class NormalizationTrace:
    """What ``normalize`` did: the ordered removal log, ``kept``, the
    surviving vertices in increasing order (``range(n)`` when nothing was
    removed), so trimmed vertex i is original vertex ``kept[i]``, and
    ``trimmed``, the very instance it returned (the input itself when
    nothing was removed), which lifting checks witnesses against instead of
    rebuilding it.
    """

    removals: tuple[Removal, ...]
    kept: Sequence[int]
    trimmed: LcrInstance


def normalize(inst: LcrInstance) -> tuple[LcrInstance, NormalizationTrace]:
    """Trim the instance until every list size lies in [2, degree+1].

    One-color vertices are deleted (their forced color leaves the neighbors'
    lists) until none remain; then one vertex whose list exceeds its current
    degree plus one is deleted; the two phases repeat to a fixpoint.  Ties go
    to the smallest vertex.  The answer to the reconfiguration question is
    unchanged, and the returned trace lets witnesses found on the trimmed
    instance be lifted back.  Raises InfeasibleList when a list empties,
    which certifies that f0 and fr could not both have been proper.

    Two heaps of candidates replace rescans, and each vertex enters each
    heap at most once, so the pass costs O((n + m + sum of list sizes) log n).
    It reads the graph's sorted rows and the input's own lists, copying
    neither; a trimmed list is a new, smaller frozenset.
    """
    g, lists = inst.graph, list(inst.lists)  # None once the vertex is removed
    n, rows = g.n, g.adjacency
    # A vertex turns single only when a singleton removal trims its list,
    # and is never rich, so it stays live until popped.  A neighbor's
    # removal lowers the degree by one and the list by at most one, so list
    # size minus degree never drops: a rich vertex stays rich until it is
    # removed, and no heap entry goes stale.  So each vertex is pushed at
    # most once, into one heap: ``queued`` marks the rich ones, whose live
    # degree is then no longer kept.  Both seeds are in vertex order, hence
    # already heaps; with both empty nothing is removable.
    sizes, degree = list(map(len, lists)), list(map(len, rows))
    singles = [v for v, k in enumerate(sizes) if k == 1]
    rich = [v for v, k, d in zip(range(n), sizes, degree) if k >= d + 2]
    if not singles and not rich:
        return inst, NormalizationTrace((), range(n), inst)

    queued = [False] * n
    for v in rich:
        queued[v] = True
    removals: list[Removal] = []
    while True:
        if singles:
            v = heapq.heappop(singles)
            (c,) = lists[v]
            if inst.f0[v] != c or inst.fr[v] != c:
                raise InfeasibleList(
                    f"vertex {v} is pinned to color {c} but an endpoint differs"
                )
            affected = tuple([
                u for u in rows[v] if lists[u] is not None and c in lists[u]
            ])
            for u in affected:
                lst = lists[u] = lists[u] - {c}
                if not lst:
                    raise InfeasibleList(
                        f"list of vertex {u} emptied while trimming"
                    )
                if len(lst) == 1:
                    heapq.heappush(singles, u)
            removals.append(SingletonRemoval(v, c, affected))
        elif rich:
            # rich vertices go only once no singleton is left
            v = heapq.heappop(rich)
            live = tuple([u for u in rows[v] if lists[u] is not None])
            removals.append(RichListRemoval(v, tuple(sorted(lists[v])), live))
        else:
            break
        lists[v] = None
        for u in rows[v]:
            lst = lists[u]
            if lst is not None and not queued[u]:
                degree[u] -= 1
                if len(lst) >= degree[u] + 2:
                    queued[u] = True
                    heapq.heappush(rich, u)

    kept = tuple([v for v, lst in enumerate(lists) if lst is not None])
    trimmed = LcrInstance(
        g.induced_subgraph(kept),
        tuple(lists[v] for v in kept),
        tuple(inst.f0[v] for v in kept),
        tuple(inst.fr[v] for v in kept),
    )
    return trimmed, NormalizationTrace(tuple(removals), kept, trimmed)


def peel(inst: LcrInstance) -> list[list[int]]:
    """The components, each sorted, left once every vertex whose list holds
    a colour no live neighbour lists, or exceeds its live degree plus one,
    is removed, to a fixpoint (``held[v][c]`` counts v's live neighbours
    listing c).  Such a vertex moves first to that colour, or dodges as a
    rich one does, and last to fr: the answer stays, with no record to lift by."""
    rows = inst.graph.adjacency
    degree, held = list(map(len, rows)), [dict.fromkeys(lst, 0) for lst in inst.lists]
    for u, v in inst.graph.edges:
        hu, hv = held[u], held[v]
        for c in hv:
            if c in hu:
                hu[c] += 1
                hv[c] += 1
    live, stack = [-1] * inst.graph.n, list(range(inst.graph.n))  # -1 while live, for ``reach``
    while stack:
        v = stack.pop()
        if live[v] < 0 and (len(held[v]) > degree[v] + 1 or 0 in held[v].values()):
            live[v], count = v, held[v]
            for u in rows[v]:
                if live[u] < 0:
                    degree[u] -= 1
                    hu = held[u]
                    for c in count:
                        if c in hu:
                            hu[c] -= 1
                    stack.append(u)
    return [sorted(reach(rows, v, live)) for v in range(len(live)) if live[v] < 0]


def lift_sequence(
    trace: NormalizationTrace,
    original: LcrInstance,
    seq: Sequence[Step],
) -> list[Step]:
    """Translate a witness for ``trace.trimmed`` back to the original.

    The witness is checked against ``trace.trimmed`` itself, so lifting
    builds no instance or graph.  Deleted one-color vertices simply keep
    their forced color.  For a deleted rich-list vertex v, whenever the
    sequence is about to recolor a neighbor of v to v's current color, an
    extra step first moves v to the lowest color of its list at removal time
    that avoids that color and all current neighbor colors; such a color
    exists because the list exceeded the degree by two.  A final step per
    rich-list vertex moves it to its fr color.

    Each rich vertex must see the moves of the rich vertices removed after
    it, so one pass reinserts them all: a step at level i still passes rich
    vertices i-1 down to 0 (in removal order), and the first of them that
    sits on the step's color dodges ahead of it.
    """
    if not is_valid_sequence(trace.trimmed, seq):
        raise InvalidSequence("sequence is not valid on the normalized instance")

    rich = [rem for rem in trace.removals if isinstance(rem, RichListRemoval)]
    watchers: dict[int, list[int]] = {}  # vertex -> rich levels it neighbors
    for i in range(len(rich) - 1, -1, -1):
        for u in rich[i].neighbors:
            watchers.setdefault(u, []).append(i)
    cur = list(original.f0)
    lifted: list[Step] = []

    def emit(u: int, c: int, level: int) -> None:
        pending = [(u, c, level)]
        while pending:
            u, c, level = pending.pop()
            for i in watchers.get(u, ()):
                rem = rich[i]
                if i < level and cur[rem.vertex] == c:
                    blocked = {c} | {cur[x] for x in rem.neighbors}
                    c_star = next(col for col in rem.colors if col not in blocked)
                    pending.append((u, c, i))
                    pending.append((rem.vertex, c_star, i))
                    break
            else:
                lifted.append((u, c))
                cur[u] = c

    kept = trace.kept
    for v, c in seq:
        emit(kept[v], c, len(rich))
    for i in range(len(rich) - 1, -1, -1):
        v = rich[i].vertex
        if cur[v] != original.fr[v]:
            emit(v, original.fr[v], i)
    return lifted


def is_valid_sequence(inst: LcrInstance, seq: Sequence[Step]) -> bool:
    """True if seq transforms f0 into fr through proper list colorings.

    Every step must change exactly one vertex to a different color from its
    list without clashing with a neighbor.
    """
    if not is_proper_list_coloring(inst, inst.f0):
        return False
    cur = list(inst.f0)
    for v, c in seq:
        if not 0 <= v < inst.graph.n:
            return False
        if c == cur[v] or c not in inst.lists[v]:
            return False
        if any(cur[u] == c for u in inst.graph.neighbors(v)):
            return False
        cur[v] = c
    return tuple(cur) == inst.fr


def frozen_no(inst: LcrInstance) -> Optional[list[int]]:
    """A set of vertices that f0 freezes and fr recolours, sorted, or None.

    A set S is frozen under f0 when each other colour of every list in S
    sits on a neighbour in S: no vertex of S can move first, so f0 never
    changes on S, and the answer is NO if fr differs there.  None comes
    back exactly when fr agrees with f0 on the greatest frozen set.

    A vertex v of S where fr differs is *stuck* (its list holds no colour
    but f0's that its neighbours leave free), and fr(v) sits on a neighbour
    in S, where fr differs too, since fr is proper.  So the seeds are the
    stuck vertices where fr differs that have such a neighbour among them.
    fr(v) on a neighbour, which stuck implies there, is the cheaper test
    and goes first; with it, a two-colour list is stuck.  Closing the seeds
    under stuck blockers (neighbours whose f0 colour is in the list) gives
    a region that holds every vertex of S that a seed in S leans on.  A
    counting worklist then drops each vertex of the region that has another
    colour no kept neighbour holds, which leaves the region's greatest
    frozen subset.  The cost is one look at each vertex where fr differs,
    then linear in the region.
    """
    f0, fr, lists, rows = inst.f0, inst.fr, inst.lists, inst.graph.adjacency
    colour = f0.__getitem__
    stuck: dict[int, bool] = {}  # each vertex tested so far
    for v in compress(range(len(f0)), map(ne, f0, fr)):
        c = fr[v]
        for u in rows[v]:
            if f0[u] == c:
                lst = lists[v]
                stuck[v] = len(lst) == 2 or len(lst.difference(map(colour, rows[v]))) == 1
                break
    region = []
    for v, s in stuck.items():
        if s:
            c = fr[v]
            for u in rows[v]:
                if f0[u] == c and stuck.get(u):
                    region.append(v)
                    break
    inside = set(region)
    held: dict[tuple[int, int], int] = {}  # (v, c): region neighbours of v on c
    dropped = []
    for v in region:  # grows as stuck blockers join
        lst = lists[v]
        need = len(lst) - 1
        for u in rows[v]:
            c = f0[u]
            if c not in lst:
                continue
            s = stuck.get(u)
            if s is None:
                s = stuck[u] = len(lists[u].difference(map(colour, rows[u]))) == 1
            if s:
                if u not in inside:
                    inside.add(u)
                    region.append(u)
                k = held.get((v, c), 0)
                held[v, c] = k + 1
                need -= not k
        if need:
            dropped.append(v)  # some other colour sits on no stuck neighbour
    kept = inside.difference(dropped)
    for v in dropped:  # grows as kept vertices lose their last holder
        c = f0[v]
        for u in rows[v]:
            if u in kept and c in lists[u]:
                k = held[u, c] = held[u, c] - 1
                if not k:
                    kept.remove(u)
                    dropped.append(u)
    if any(f0[v] != fr[v] for v in kept):
        return sorted(kept)
    return None


class Certificate(NamedTuple):
    """A NO's evidence: its kind and vertices, in the instance's ids.
    ``"frozen"``: a set that f0 freezes and on which fr differs.  The
    heights' ``"pair"`` (two two-colour vertices whose bands fix different
    lifts of fr) and ``"cycle"`` (in order, around which f0 and fr wind
    differently) speak of the trimmed lists."""

    kind: str
    vertices: tuple[int, ...]


def induced_instance(inst: LcrInstance, vertices: Iterable[int]) -> LcrInstance:
    """Sub-instance induced on the given vertices, numbered as
    ``Graph.induced_subgraph`` numbers them: new id i is the i-th smallest.

    Vertices that cover the whole instance, as a graph of one component
    does, give the instance itself back, as ``normalize`` does when it
    removes nothing.
    """
    kept, n = sorted(set(vertices)), inst.graph.n
    # n distinct ids from 0 to n - 1 are all of them; an id out of range
    # goes on to induced_subgraph, which refuses it
    if len(kept) == n and (n == 0 or (kept[0] == 0 and kept[-1] == n - 1)):
        return inst
    return LcrInstance(
        inst.graph.induced_subgraph(kept),
        tuple(inst.lists[v] for v in kept),
        tuple(inst.f0[v] for v in kept),
        tuple(inst.fr[v] for v in kept),
    )
