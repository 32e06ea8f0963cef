"""Incremental decision procedure for normalized caterpillar instances.

Vertices are swept in the caterpillar ordering v_1..v_n.  After step i the
solver holds the encoding graph of the prefix on v_1..v_i: the component of
the start restriction, contracted over colorings that agree on the active
spine vertex and interconvert without recoloring it.  A leaf step only
deletes e-node edges whose endpoint cols are exactly the leaf's two list
colors.  A spine step rebuilds e-nodes from scratch: for each color c of the
new spine vertex, every connected component left after dropping col-c
e-nodes becomes one new e-node with col c, and two new e-nodes are adjacent
when their underlying sets intersect.  Either step ends by extracting the
component of the ini e-node.  The instance is reconfigurable exactly when
the final encoding graph still carries the tar label.

Per-step growth obeys
    |V(E'_1)| <= 2   and   |V(E'_i)| <= |V(E_{i-1})| + d(v_i)
counted before component extraction, so the final graph has at most
2 + 2|E(G)| e-nodes.  ``check_size_bound`` audits a recorded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import IniLost, NotCaterpillar, NotConnected, NotNormalized
from .graph import CaterpillarStructure, recognize_caterpillar
from .instance import LcrInstance


@dataclass(frozen=True)
class EncodingGraph:
    """Labeled e-node graph summarizing one reconfiguration component.

    It stands for the component of the current start coloring in the
    reconfiguration graph of a prefix, contracted so that colorings agree on
    the active spine vertex and are mutually reachable without recoloring
    it.  Each e-node carries the shared spine color ``col``; ``ini`` and
    ``tar`` name the e-nodes whose classes contain the start and target
    restrictions.
    """

    cols: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    ini: Optional[int]
    tar: Optional[int]
    step_index: int = -1

    def __len__(self) -> int:
        return len(self.cols)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.cols]
        for x, y in self.edges:
            adj[x].append(y)
            adj[y].append(x)
        return adj


@dataclass(frozen=True)
class SizeRecord:
    """Size accounting for one step, taken before component extraction."""

    step: int
    vertex: int
    kind: str  # "init" | "leaf" | "spine"
    degree: int
    pre_extraction: int
    prev_size: int
    final_size: int

    @property
    def bound(self) -> int:
        """Ceiling on ``pre_extraction``: 2 at init, prev_size + degree after."""
        return 2 if self.step == 1 else self.prev_size + self.degree


def _ini_component(cols, edges, ini, tar, step_index) -> EncodingGraph:
    """Extract the component of the ini e-node, renumbering stably."""
    if ini is None:
        raise IniLost("start e-node vanished; the step preconditions were broken")
    adj: dict[int, list[int]] = {i: [] for i in range(len(cols))}
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    reached = {ini}
    stack = [ini]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    keep = sorted(reached)
    renum = {old: new for new, old in enumerate(keep)}
    new_edges = sorted(
        (renum[x], renum[y]) if renum[x] < renum[y] else (renum[y], renum[x])
        for x, y in edges
        if x in reached and y in reached
    )
    new_tar = renum.get(tar) if tar is not None else None
    return EncodingGraph(
        tuple(cols[i] for i in keep),
        tuple(new_edges),
        renum[ini],
        new_tar,
        step_index,
    )


def step_leaf(prev: EncodingGraph, leaf_list: Sequence[int]) -> EncodingGraph:
    """Extend the prefix by a leaf of the current spine vertex.

    Keeping the prefix reconfigurable just forbids the spine vertex from
    crossing between the leaf's two colors, so exactly the e-node edges
    whose cols are that pair disappear; labels carry over.
    """
    colors = sorted(set(leaf_list))
    if len(colors) != 2:
        raise NotNormalized(f"leaf list {colors} must hold exactly 2 colors")
    pair = set(colors)
    kept = tuple(
        (x, y) for x, y in prev.edges if {prev.cols[x], prev.cols[y]} != pair
    )
    return _ini_component(prev.cols, kept, prev.ini, prev.tar, prev.step_index + 1)


def _spine_parts(
    prev: EncodingGraph, colors: Sequence[int]
) -> list[tuple[int, frozenset[int]]]:
    """New (col, previous e-node set) pairs: one per surviving component.

    For each color, components of the e-nodes avoiding it are found by one
    scan of the e-node ids in order, so they come out by smallest member.
    """
    adj = prev.adjacency()
    parts: list[tuple[int, frozenset[int]]] = []
    for c in colors:
        seen = [col == c for col in prev.cols]
        for start in range(len(seen)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            parts.append((c, frozenset(comp)))
    return parts


def step_spine(
    prev: EncodingGraph,
    spine_list: Sequence[int],
    f0_color: int,
    fr_color: int,
) -> tuple[EncodingGraph, int]:
    """Extend the prefix by the next spine vertex.

    The new vertex's color c restricts the old prefix to e-nodes avoiding c;
    each leftover component can be held fixed while the new vertex sits on c,
    so it becomes one new e-node.  Two new e-nodes sharing an old e-node are
    adjacent (recolor the new vertex while the rest stays put).  The ini and
    tar marks land on the new e-nodes that extend the old ones with the
    matching endpoint color.  Returns the new encoding graph and its e-node
    count before component extraction.
    """
    colors = sorted(set(spine_list))
    if f0_color not in colors or fr_color not in colors:
        raise ValueError("endpoint colors must come from the spine list")
    parts = _spine_parts(prev, colors)

    membership: list[list[int]] = [[] for _ in prev.cols]
    for i, (_, members) in enumerate(parts):
        for x in members:
            membership[x].append(i)
    edges = set()
    for owners in membership:
        for a in range(len(owners)):
            for b in range(a + 1, len(owners)):
                edges.add((owners[a], owners[b]))

    ini = tar = None
    for i, (c, members) in enumerate(parts):
        if c == f0_color and prev.ini in members:
            ini = i
        if prev.tar is not None and c == fr_color and prev.tar in members:
            tar = i
    result = _ini_component(
        [c for c, _ in parts], sorted(edges), ini, tar, prev.step_index + 1
    )
    return result, len(parts)


def _recognize(inst: LcrInstance) -> CaterpillarStructure:
    try:
        structure = recognize_caterpillar(inst.graph)
    except NotConnected as exc:
        raise NotCaterpillar(str(exc)) from exc
    if structure is None:
        raise NotCaterpillar("graph is not a caterpillar")
    return structure


def _check_normalized(inst: LcrInstance) -> None:
    n = inst.graph.n
    for v in range(n):
        size = len(inst.lists[v])
        if size < 2:
            raise NotNormalized(f"vertex {v} has a list of size {size}")
        # a lone vertex with a 2-color list is accepted as is
        if n > 1 and size > inst.graph.degree(v) + 1:
            raise NotNormalized(
                f"vertex {v} has {size} colors but degree {inst.graph.degree(v)}"
            )
        if n == 1 and size != 2:
            raise NotNormalized(f"lone vertex needs exactly 2 colors, has {size}")


def encoding_history(
    inst: LcrInstance, structure: Optional[CaterpillarStructure] = None
) -> Iterator[tuple[EncodingGraph, SizeRecord]]:
    """Run the sweep, yielding each step's encoding graph and size record.

    This is the one entry to the sweep; the instance is reconfigurable
    exactly when the last encoding graph keeps its tar mark.  The caller is
    expected to have handled normalization, the f0 = fr shortcut, empty
    graphs, and component splitting; the sweep demands a connected
    caterpillar with list sizes in [2, degree+1] (a lone vertex with a
    2-color list is the one allowed degenerate case).  The first step is a
    K2 on the start vertex's two colors: that vertex ends the spine, so it
    has degree at most 1 and the normalization check pins its list to 2.
    """
    structure = structure or _recognize(inst)
    _check_normalized(inst)
    v1 = structure.ordering[0]
    cols = tuple(sorted(inst.lists[v1]))
    tar = cols.index(inst.fr[v1]) if inst.fr[v1] in cols else None
    eg = EncodingGraph(cols, ((0, 1),), cols.index(inst.f0[v1]), tar, 1)
    yield eg, SizeRecord(1, v1, "init", inst.graph.degree(v1), len(eg), 0, len(eg))
    spine_set = set(structure.spine)
    for i, v in enumerate(structure.ordering[1:], start=2):
        prev_size = len(eg)
        if v in spine_set:
            eg, pre = step_spine(eg, inst.lists[v], inst.f0[v], inst.fr[v])
            kind = "spine"
        else:
            eg = step_leaf(eg, inst.lists[v])
            pre = prev_size
            kind = "leaf"
        yield eg, SizeRecord(
            i, v, kind, inst.graph.degree(v), pre, prev_size, len(eg)
        )


def check_size_bound(history: Sequence[SizeRecord]) -> Optional[int]:
    """First step index where the growth bound fails, or None if all hold."""
    for rec in history:
        if rec.pre_extraction > rec.bound:
            return rec.step
    return None
