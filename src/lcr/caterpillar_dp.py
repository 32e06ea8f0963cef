"""Incremental decision procedure for normalized caterpillar instances.

Vertices are swept in the caterpillar ordering v_1..v_n.  After step i the
solver holds the encoding graph of the prefix on v_1..v_i: the component of
the start restriction, contracted over colorings that agree on the active
spine vertex and interconvert without recoloring it.  ``Sweep`` holds that
graph as one working state that its leaf and spine steps change in place;
the instance is reconfigurable exactly when the final state keeps the tar
label.  A leaf step scans the e-nodes of its lower color for edges to cut.
A spine step runs in two phases: one breadth-first search per new e-node
that only lists it as an owner of each old e-node it reaches, then one pass
over those owner lists that links the new e-nodes sharing an old one.  Both
steps are linear in the encoding size, so the sweep is quadratic on
3-colour paths, where the encoding gains one e-node per step.

Per-step growth obeys
    |V(E'_1)| <= 2   and   |V(E'_i)| <= |V(E_{i-1})| + d(v_i)
counted before component extraction, so the final graph has at most
2 + 2|E(G)| e-nodes.  ``check_size_bound`` audits a recorded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import IniLost, NotCaterpillar, NotNormalized
from .graph import CaterpillarStructure, reach, recognize_caterpillar
from .instance import LcrInstance


@dataclass(frozen=True)
class EncodingGraph:
    """Labeled e-node graph summarizing one reconfiguration component.

    It stands for the component of the current start coloring in the
    reconfiguration graph of a prefix, contracted so that colorings agree on
    the active spine vertex and are mutually reachable without recoloring
    it.  Each e-node carries the shared spine color ``col``; ``ini`` and
    ``tar`` name the e-nodes whose classes contain the start and target
    restrictions.  Which step it belongs to is ``SizeRecord.step``.
    """

    cols: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    ini: Optional[int]
    tar: Optional[int]

    def __len__(self) -> int:
        return len(self.cols)


class SizeRecord(NamedTuple):
    """Size accounting for one step, taken before component extraction.

    A tuple rather than a frozen dataclass: the sweep builds one per step,
    stats or not, and a tuple costs a fraction of a dataclass to make.
    """

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


class Sweep:
    """The sweep's working state: one encoding graph, changed in place.

    ``cols`` and ``adj`` hold each e-node's col and neighbour set, the rest
    is as in ``EncodingGraph``.  The state does not count its steps;
    ``encoding_history`` numbers them in its size records.
    """

    def __init__(self, cols, edges, ini, tar):
        self.cols, self.ini, self.tar = list(cols), ini, tar
        self.adj = [set() for _ in self.cols]
        for x, y in edges:
            self.adj[x].add(y)
            self.adj[y].add(x)

    def __len__(self) -> int:
        return len(self.cols)

    def snapshot(self) -> EncodingGraph:
        """The current state as a frozen ``EncodingGraph``."""
        edges = [(x, y) for x, ys in enumerate(self.adj) for y in sorted(ys) if x < y]
        return EncodingGraph(tuple(self.cols), tuple(edges), self.ini, self.tar)

    def _extract(self) -> None:
        """Keep the ini e-node's component, renumbered stably (no-op if whole)."""
        if self.ini is None:
            raise IniLost("start e-node vanished; the step preconditions were broken")
        adj = self.adj
        reached = reach(adj, self.ini, [-1] * len(adj))
        if len(reached) < len(adj):
            keep = sorted(reached)
            renum = {old: new for new, old in enumerate(keep)}
            self.cols = [self.cols[x] for x in keep]
            self.adj = [{renum[y] for y in adj[x]} for x in keep]
            self.ini, self.tar = renum[self.ini], renum.get(self.tar)

    def leaf(self, leaf_list: Sequence[int]) -> int:
        """Extend the prefix by a leaf of the current spine vertex.

        Keeping the prefix reconfigurable just forbids the spine vertex from
        crossing between the leaf's two colors, so exactly the e-node edges
        whose cols are that pair disappear; labels carry over.  Only a cut
        edge can split the state, so only a cut calls for extraction.
        Returns the e-node count before component extraction.
        """
        colors = sorted(set(leaf_list))
        if len(colors) != 2:
            raise NotNormalized(f"leaf list {colors} must hold exactly 2 colors")
        (a, b), cols, adj, cut = colors, self.cols, self.adj, False
        for x in [x for x, col in enumerate(cols) if col == a]:
            for y in [y for y in adj[x] if cols[y] == b]:
                adj[x].discard(y)
                adj[y].discard(x)
                cut = True
        if cut:
            self._extract()
        return len(cols)

    def spine(self, spine_list: Sequence[int], f0_color: int, fr_color: int) -> int:
        """Extend the prefix by the next spine vertex.

        The new vertex's color c restricts the old prefix to e-nodes avoiding
        c; each leftover component can be held fixed while the new vertex
        sits on c, so it becomes one new e-node.  Two new e-nodes sharing an
        old e-node are adjacent (recolor the new vertex while the rest stays
        put).  So the search phase only appends each component's new e-node
        to the owner list of every member it reaches, and the link phase then
        joins the owners of each old e-node: one edge both ways for two, the
        clique for more (an old e-node has at most one owner per color).  The
        ini and tar marks land on the new e-nodes that extend the old ones
        with the matching endpoint color.  New e-nodes come out by color,
        then by smallest old member.
        Returns the e-node count before component extraction.
        """
        colors = sorted(set(spine_list))
        if f0_color not in colors or fr_color not in colors:
            raise ValueError("endpoint colors must come from the spine list")
        cols, adj = self.cols, self.adj
        new_cols, new_adj = [], []
        owners = [[] for _ in cols]  # the new e-nodes holding each old one
        for c in colors:
            seen = [col == c for col in cols]
            for start, done in enumerate(seen):
                if done:
                    continue
                p, seen[start], reached = len(new_cols), True, [start]
                for x in reached:  # search phase, breadth first as in ``reach``
                    owners[x].append(p)
                    for y in adj[x]:
                        if not seen[y]:
                            seen[y] = True
                            reached.append(y)
                new_cols.append(c)
                new_adj.append(set())
        for own in owners:  # link phase
            k = len(own)
            if k == 2:
                p, q = own
                new_adj[p].add(q)
                new_adj[q].add(p)
            elif k > 2:
                for p in own:
                    mine = new_adj[p]
                    mine.update(own)
                    mine.discard(p)
        # an old e-node has at most one owner of each color
        ini = tar = None
        for p in owners[self.ini]:
            if new_cols[p] == f0_color:
                ini = p
        if self.tar is not None:
            for p in owners[self.tar]:
                if new_cols[p] == fr_color:
                    tar = p
        self.cols, self.adj, self.ini, self.tar = new_cols, new_adj, ini, tar
        # with three colors or more, both ends of an old edge share the new
        # e-node of a third color, so only a two-color C can split the state
        if len(colors) == 2 or ini is None:
            self._extract()
        return len(new_cols)


def _recognize(inst: LcrInstance) -> CaterpillarStructure:
    structure = recognize_caterpillar(inst.graph)
    if structure is None:
        raise NotCaterpillar("graph is not a connected caterpillar")
    return structure


def _check_normalized(inst: LcrInstance, degree: Sequence[int]) -> None:
    n = inst.graph.n
    for v, (lst, d) in enumerate(zip(inst.lists, degree)):
        size = len(lst)
        if size < 2:
            raise NotNormalized(f"vertex {v} has a list of size {size}")
        # a lone vertex with a 2-color list is accepted as is
        if n > 1 and size > d + 1:
            raise NotNormalized(f"vertex {v} has {size} colors but degree {d}")
        if n == 1 and size != 2:
            raise NotNormalized(f"lone vertex needs exactly 2 colors, has {size}")


def encoding_history(
    inst: LcrInstance, structure: Optional[CaterpillarStructure] = None
) -> Iterator[tuple[Sweep, SizeRecord]]:
    """Run the sweep, yielding the live ``Sweep`` and each step's size record.

    This is the one entry to the sweep; the instance is reconfigurable
    exactly when the last state keeps its tar mark.  Each step changes the
    same ``Sweep`` in place: take ``snapshot()`` to keep a step's encoding.
    The caller is expected to have handled normalization, the f0 = fr
    shortcut, empty graphs, and component splitting; the sweep demands a
    connected caterpillar with list sizes in [2, degree+1] (a lone vertex
    with a 2-color list is the one allowed degenerate case).  The first step
    is a K2 on the start vertex's two colors: that vertex ends the spine, so
    it has degree at most 1 and the normalization check pins its list to 2.
    """
    structure = structure or _recognize(inst)
    degree = list(map(len, inst.graph.adjacency))
    _check_normalized(inst, degree)
    lists, f0, fr = inst.lists, inst.f0, inst.fr
    v1 = structure.ordering[0]
    cols = sorted(lists[v1])
    tar = cols.index(fr[v1]) if fr[v1] in cols else None
    sweep = Sweep(cols, ((0, 1),), cols.index(f0[v1]), tar)
    spine, leaf, record = sweep.spine, sweep.leaf, SizeRecord._make
    prev_size = len(sweep.cols)
    yield sweep, record((1, v1, "init", degree[v1], prev_size, 0, prev_size))
    spine_set = set(structure.spine)
    for i, v in enumerate(structure.ordering[1:], start=2):
        if v in spine_set:
            kind, pre = "spine", spine(lists[v], f0[v], fr[v])
        else:
            kind, pre = "leaf", leaf(lists[v])
        size = len(sweep.cols)
        yield sweep, record((i, v, kind, degree[v], pre, prev_size, size))
        prev_size = size


def check_size_bound(history: Sequence[SizeRecord]) -> Optional[int]:
    """First step index where the growth bound fails, or None if all hold."""
    for rec in history:
        if rec.pre_extraction > rec.bound:
            return rec.step
    return None
