"""Shared builders and independent reference checks for the test suite.

The reference implementations here deliberately take different routes than
the package (forbidden-substructure counting instead of spine walking,
itertools.product instead of pruned backtracking, a per-layer counting pass
instead of DFS enumeration) so they can act as oracles for it.  Where a
package routine was rewritten for speed, its earlier, direct form is kept
here as the reference it must match exactly.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from typing import Iterator, Optional, Sequence

from lcr import fileio, oracle
from lcr.caterpillar_dp import (
    EncodingGraph,
    SizeRecord,
    Sweep,
    _check_normalized,
    _recognize,
    encoding_history,
)
from lcr.errors import (
    IniLost,
    InfeasibleList,
    InvalidRerouting,
    LcrError,
    NotNormalized,
    ParseError,
    StateSpaceTooLarge,
)
from lcr.generators import gen_caterpillar, gen_layered_spr
from lcr.graph import (
    CaterpillarStructure,
    DecompositionCheck,
    Graph,
    PathDecomposition,
    reach,
)
from lcr.instance import (
    Coloring,
    LcrInstance,
    NormalizationTrace,
    Removal,
    RichListRemoval,
    SingletonRemoval,
    Step,
)
from lcr.oracle import (
    DEFAULT_STATE_CAP,
    ReconfigurationGraph,
    _node_id,
    build,
    state_space_size,
)
from lcr.reduction import (
    ForbiddenVertex,
    ReducedInstance,
    ThresholdWitness,
    compile_spr,
)
from lcr.rerouting import (
    DEFAULT_PATH_CAP,
    SPath,
    SprInstance,
    adjacent_s_paths,
    build_spr_instance,
    enumerate_s_paths,
    is_s_path,
)

from .reference import adjacency


def sweep_answer(inst: LcrInstance) -> bool:
    """The caterpillar sweep's answer: the last encoding keeps its tar mark."""
    *_, (eg, _) = encoding_history(inst)
    return eg.tar is not None


def all_colorings(
    g: Graph, lists: Sequence[frozenset[int]], cap: int = DEFAULT_STATE_CAP
) -> list[Coloring]:
    """Every proper list coloring of g in lexicographic order: the oracle's nodes."""
    return list(build(g, lists, cap).nodes)


def spine_of_prefix(st: CaterpillarStructure) -> tuple[int, ...]:
    """Entry i-1 is the latest spine vertex among the first i ordered vertices."""
    spine, latest, out = set(st.spine), st.ordering[0], []
    for v in st.ordering:
        if v in spine:
            latest = v
        out.append(latest)
    return tuple(out)


def leaf_attachment(st: CaterpillarStructure) -> dict[int, int]:
    """Each leaf's spine vertex, read off the ordering: the latest spine
    vertex before it, so a leaf listed under the wrong vertex shows."""
    spine = set(st.spine)
    return {
        v: latest
        for v, latest in zip(st.ordering, spine_of_prefix(st))
        if v not in spine
    }


def trimmed_instance(original: LcrInstance, trace: NormalizationTrace) -> LcrInstance:
    """Rebuild the normalized instance from the original and the trace."""
    if not trace.removals:
        return original
    stripped: dict[int, set[int]] = {}
    for rem in trace.removals:
        if isinstance(rem, SingletonRemoval):
            for u in rem.affected:
                stripped.setdefault(u, set()).add(rem.color)
    kept = trace.kept
    return LcrInstance(
        original.graph.induced_subgraph(kept),
        tuple(original.lists[v] - stripped.get(v, frozenset()) for v in kept),
        tuple(original.f0[v] for v in kept),
        tuple(original.fr[v] for v in kept),
    )


def quadratic_normalize(
    inst: LcrInstance,
) -> tuple[LcrInstance, NormalizationTrace]:
    """Rescanning reference for ``lcr.instance.normalize``.

    Each removal rescans every live vertex for the smallest singleton, and
    failing that for the smallest rich vertex, so the trace order follows
    straight from the definition; the package keeps heaps of candidates
    instead.  Quadratic, so only for small instances.
    """
    n = inst.graph.n
    alive = set(range(n))
    lists = {v: set(inst.lists[v]) for v in range(n)}
    adj = {v: set(inst.graph.neighbors(v)) for v in range(n)}
    removals: list[Removal] = []

    def remove_vertex(v: int):
        alive.discard(v)
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v], lists[v]

    changed = True
    while changed:
        changed = False
        while True:
            singles = [v for v in alive if len(lists[v]) == 1]
            if not singles:
                break
            v = min(singles)
            (c,) = lists[v]
            if inst.f0[v] != c or inst.fr[v] != c:
                raise InfeasibleList(
                    f"vertex {v} is pinned to color {c} but an endpoint differs"
                )
            affected = sorted(u for u in adj[v] if c in lists[u])
            for u in affected:
                lists[u].discard(c)
                if not lists[u]:
                    raise InfeasibleList(
                        f"list of vertex {u} emptied while trimming"
                    )
            remove_vertex(v)
            removals.append(SingletonRemoval(v, c, tuple(affected)))
            changed = True
        rich = [v for v in alive if len(lists[v]) >= len(adj[v]) + 2]
        if rich:
            v = min(rich)
            removals.append(
                RichListRemoval(v, tuple(sorted(lists[v])), tuple(sorted(adj[v])))
            )
            remove_vertex(v)
            changed = True

    if not removals:
        return inst, NormalizationTrace((), range(n), inst)

    kept = tuple(sorted(alive))
    trimmed = LcrInstance(
        inst.graph.induced_subgraph(kept),
        tuple(frozenset(lists[v]) for v in kept),
        tuple(inst.f0[v] for v in kept),
        tuple(inst.fr[v] for v in kept),
    )
    return trimmed, NormalizationTrace(tuple(removals), kept, trimmed)


def recursive_colorings(
    g: Graph,
    lists: Sequence[frozenset[int]],
    cap: int = DEFAULT_STATE_CAP,
) -> list[Coloring]:
    """Recursive reference for the nodes of ``lcr.oracle.build``.

    Backtracks in vertex-id order, one call per vertex, so the colorings
    come out in lexicographic order straight from the definition.
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


def splicing_build(
    g: Graph,
    lists: Sequence[frozenset[int]],
    cap: int = DEFAULT_STATE_CAP,
) -> ReconfigurationGraph:
    """Tuple-splicing reference for ``lcr.oracle.build``.

    Every recoloring of every node is spliced into a fresh tuple and looked
    up in the index; the package finds the same neighbours by integer codes
    instead.  Only for small instances.
    """
    lists = tuple(frozenset(lst) for lst in lists)
    nodes = tuple(recursive_colorings(g, lists, cap))
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
    return ReconfigurationGraph(g, lists, nodes, tuple(tuple(sorted(a)) for a in adj))


# -- rebuilding reference for the caterpillar sweep ---------------------------------
#
# ``lcr.caterpillar_dp.Sweep`` changes one working state in place; these
# steps build a fresh frozen ``EncodingGraph`` each time, straight from the
# definition, and the engine's snapshots must equal them exactly.


def _ini_component(cols, edges, ini, tar) -> EncodingGraph:
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
    return _ini_component(prev.cols, kept, prev.ini, prev.tar)


def _spine_parts(
    prev: EncodingGraph, colors: Sequence[int]
) -> list[tuple[int, frozenset[int]]]:
    """New (col, previous e-node set) pairs: one per surviving component.

    For each color, components of the e-nodes avoiding it are found by one
    scan of the e-node ids in order, so they come out by smallest member.
    """
    adj = adjacency(prev)
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
    result = _ini_component([c for c, _ in parts], sorted(edges), ini, tar)
    return result, len(parts)


def reference_history(
    inst: LcrInstance, structure: Optional[CaterpillarStructure] = None
) -> list[tuple[EncodingGraph, SizeRecord]]:
    """Every step's frozen encoding graph and size record, by rebuilding."""
    structure = structure or _recognize(inst)
    _check_normalized(inst, [inst.graph.degree(v) for v in range(inst.graph.n)])
    v1 = structure.ordering[0]
    cols = tuple(sorted(inst.lists[v1]))
    tar = cols.index(inst.fr[v1]) if inst.fr[v1] in cols else None
    eg = EncodingGraph(cols, ((0, 1),), cols.index(inst.f0[v1]), tar)
    out = [(eg, SizeRecord(1, v1, "init", inst.graph.degree(v1), len(eg), 0, len(eg)))]
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
        out.append((eg, SizeRecord(
            i, v, kind, inst.graph.degree(v), pre, prev_size, len(eg)
        )))
    return out


def load_sweep(eg: EncodingGraph) -> Sweep:
    """A working state holding ``eg``, which must be its ini component."""
    return Sweep(eg.cols, eg.edges, eg.ini, eg.tar)


def owner_lists(cols, adj, colors) -> tuple[list[int], list[list[int]]]:
    """A spine step's new cols and the new e-nodes owning each old e-node.

    One ``reach`` per component of the old state less one color, in the
    order ``Sweep.spine`` numbers its new e-nodes.
    """
    new_cols = []
    owners = [[] for _ in cols]
    for c in colors:
        seen = [0 if col == c else -1 for col in cols]
        for start, mark in enumerate(seen):
            if mark < 0:
                for x in reach(adj, start, seen):
                    owners[x].append(len(new_cols))
                new_cols.append(c)
    return new_cols, owners


class OwnerListSweep(Sweep):
    """The working state with the earlier two-pass spine step.

    Its spine step lists each old e-node's new owners by one ``reach`` per
    component (``owner_lists``), builds the edges and their col pairs from
    those lists in a second pass, and always extracts.  ``Sweep.spine``
    must give the same states and the same ``pairs``.
    """

    def spine(self, spine_list: Sequence[int], f0_color: int, fr_color: int) -> int:
        colors = sorted(set(spine_list))
        if f0_color not in colors or fr_color not in colors:
            raise ValueError("endpoint colors must come from the spine list")
        new_cols, owners = owner_lists(self.cols, self.adj, colors)
        new_adj, pairs = [set() for _ in new_cols], set()
        for own in owners:
            for i, p in enumerate(own):
                for q in own[i + 1:]:
                    new_adj[p].add(q)
                    new_adj[q].add(p)
                    pairs.add((new_cols[p], new_cols[q]))  # p < q, so sorted
        ini = {new_cols[p]: p for p in owners[self.ini]}.get(f0_color)
        tar = None
        if self.tar is not None:
            tar = {new_cols[p]: p for p in owners[self.tar]}.get(fr_color)
        self.cols, self.adj, self.pairs = new_cols, new_adj, pairs
        self.ini, self.tar = ini, tar
        self._extract()
        return len(new_cols)


def recursive_s_paths(inst: SprInstance, cap: int = DEFAULT_PATH_CAP) -> list[SPath]:
    """Recursive reference for ``lcr.rerouting.enumerate_s_paths``.

    One call per layer, so only for instances far shallower than the
    interpreter's recursion limit; the package keeps an explicit stack.
    """
    layer_sets = [set(layer) for layer in inst.layers]
    out: list[SPath] = []
    prefix = [inst.s]

    def extend(i: int):
        if i == inst.d:
            out.append(tuple(prefix))
            if len(out) > cap:
                raise StateSpaceTooLarge(len(out), cap)
            return
        for w in inst.graph.neighbors(prefix[-1]):
            if w in layer_sets[i + 1]:
                prefix.append(w)
                extend(i + 1)
                prefix.pop()

    extend(0)
    return out


# -- per-module references for the breadth-first helpers --------------------------
#
# ``lcr.graph.reach`` is the package's one breadth-first search, and every
# walk reads its order and the discoverer it records per vertex.  Before it
# each module ran its own deque or list-queue search; those bodies are kept
# here verbatim, and the package must give the same outputs, shortest paths,
# distances, bipartitions and caterpillar spines included.


def deque_connected_components(self: Graph) -> list[list[int]]:
    """Queue reference for ``Graph.connected_components``."""
    seen = [False] * self.n
    comps = []
    for start in range(self.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def deque_rg_components(self: ReconfigurationGraph) -> list[list[int]]:
    """Queue reference for ``ReconfigurationGraph.components``."""
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


def deque_component_of(rg: ReconfigurationGraph, f: Sequence[int]) -> frozenset[int]:
    """Queue reference for ``lcr.oracle.component_of``."""
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


def deque_reachable(
    rg: ReconfigurationGraph, f0: Sequence[int], fr: Sequence[int]
) -> Optional[list[Step]]:
    """Queue reference for the steps of ``lcr.oracle.reachable``, searched
    over the graph ``build`` enumerates."""
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


def deque_brute_solve(
    inst: SprInstance, cap: int = DEFAULT_PATH_CAP
) -> Optional[list[SPath]]:
    """Queue reference for ``lcr.rerouting.brute_solve``."""
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

    src, dst = index[inst.p0], index[inst.pr]
    parent = {src: -1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            break
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    if dst not in parent:
        return None
    chain = [dst]
    while chain[-1] != src:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return [paths[i] for i in chain]


def queue_bfs_dist(g: Graph, start: int) -> list[int]:
    """Queue reference for ``lcr.rerouting._distances``."""
    dist = [-1] * g.n
    dist[start] = 0
    queue = [start]
    for u in queue:  # the list grows as it is read: breadth first
        for w in g.neighbors(u):
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def queue_is_bipartite(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Queue reference for ``lcr.graph.is_bipartite``."""
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        for u in queue:  # the list grows as it is read: breadth first
            for w in g.neighbors(u):
                if side[w] == -1:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return (
        frozenset(v for v in range(g.n) if side[v] == 0),
        frozenset(v for v in range(g.n) if side[v] == 1),
    )


def per_row_graph(
    n: int, edges
) -> tuple[frozenset[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """Edge set and neighbour rows as ``Graph`` built them pair by pair.

    The reference for ``Graph.__init__``: every pair is checked in input
    order, so a ``ValueError`` names the first fault, and each row is
    sorted on its own.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        adj[u].append(v)
        adj[v].append(u)
    return frozenset(seen), tuple(tuple(sorted(a)) for a in adj)


def walking_recognize_caterpillar(g: Graph) -> Optional[CaterpillarStructure]:
    """Step-by-step spine walk reference for ``lcr.graph.recognize_caterpillar``."""
    if len(g.connected_components()) != 1:
        return None
    if g.n == 1:
        return CaterpillarStructure((0,), (0,))
    if g.m != g.n - 1:
        return None  # has a cycle
    if g.n == 2:
        return CaterpillarStructure((0, 1), (0, 1))

    internal = [v for v in range(g.n) if g.degree(v) >= 2]
    internal_set = set(internal)
    int_deg = {}
    for v in internal:
        d = sum(1 for w in g.neighbors(v) if w in internal_set)
        if d > 2:
            return None
        int_deg[v] = d

    if len(internal) == 1:
        path = [internal[0]]
    else:
        ends = sorted(v for v in internal if int_deg[v] <= 1)
        path = [ends[0]]
        prev = -1
        while True:
            nxt = [
                w for w in g.neighbors(path[-1])
                if w in internal_set and w != prev
            ]
            if not nxt:
                break
            prev = path[-1]
            path.append(nxt[0])
        if len(path) != len(internal):
            return None

    spine = list(path)
    def lowest_leaf(v: int, taken: set[int]) -> int:
        return min(
            w for w in g.neighbors(v)
            if w not in internal_set and w not in taken
        )

    if g.degree(spine[0]) >= 2:
        spine.insert(0, lowest_leaf(spine[0], set()))
    if g.degree(spine[-1]) >= 2:
        spine.append(lowest_leaf(spine[-1], {spine[0]}))
    if spine[0] > spine[-1]:
        spine.reverse()

    spine_set = set(spine)
    ordering = [spine[0]]
    for s in spine[1:]:
        ordering.append(s)
        ordering.extend(w for w in g.neighbors(s) if w not in spine_set)
    return CaterpillarStructure(tuple(spine), tuple(ordering))


# -- row-by-row reference for the text readers ---------------------------------------
#
# ``lcr.fileio`` reads one line kind at a time and checks whole columns; these
# readers split and check one row at a time, and the package must return the
# same value or raise the same ``ParseError`` message on every text.


def _rows(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def _ints(row: Sequence[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in row]
    except ValueError as exc:
        raise ParseError(f"bad integer in {what} line: {' '.join(row)}") from exc


def _header(rows: list[list[str]], kind: str, fields: int) -> list[int]:
    if not rows or rows[0][0] != "p":
        raise ParseError(f"missing 'p {kind}' header")
    head = rows[0]
    if len(head) != 2 + fields or head[1] != kind:
        raise ParseError(f"expected 'p {kind}' header with {fields} fields")
    return _ints(head[2:], "header")


def _collect_edges(rows, n: int, expected: int) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for row in rows:
        if row[0] != "e":
            continue
        if len(row) != 3:
            raise ParseError(f"edge line needs two endpoints: {' '.join(row)}")
        u, v = _ints(row[1:], "edge")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge endpoint out of range: {u} {v}")
        if u == v:
            raise ParseError(f"self-loop at {u}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise ParseError(f"duplicate edge {pair}")
        seen.add(pair)
        edges.append(pair)
    if len(edges) != expected:
        raise ParseError(f"header promises {expected} edges, found {len(edges)}")
    return edges


def row_parse_graph(text: str) -> Graph:
    rows = _rows(text)
    n, m = _header(rows, "graph", 2)
    if n < 0 or m < 0:
        raise ParseError("negative counts in header")
    for row in rows[1:]:
        if row[0] != "e":
            raise ParseError(f"unexpected line: {' '.join(row)}")
    return Graph(n, _collect_edges(rows[1:], n, m))


def row_parse_lcr(text: str) -> LcrInstance:
    rows = _rows(text)
    n, m, k = _header(rows, "lcr", 3)
    body = rows[1:]
    if min(n, m, k) < 0:
        raise ParseError("negative counts in header")
    # every vertex needs its own 'l' line, so the body bounds n before any
    # work is sized by it
    list_lines = sum(1 for row in body if row[0] == "l")
    if n > list_lines:
        raise ParseError(f"header promises {n} vertices, found {list_lines} 'l' lines")
    edges = _collect_edges([r for r in body if r[0] == "e"], n, m)
    lists: dict[int, frozenset[int]] = {}
    f0: dict[int, int] = {}
    fr: dict[int, int] = {}
    for row in body:
        tag = row[0]
        if tag == "e":
            continue
        if tag == "l":
            vals = _ints(row[1:], "list")
            if not vals:
                raise ParseError("list line needs a vertex")
            v, colors = vals[0], vals[1:]
            if not 0 <= v < n:
                raise ParseError(f"list vertex {v} out of range")
            if v in lists:
                raise ParseError(f"vertex {v} has two list lines")
            if not colors:
                raise ParseError(f"empty color list for vertex {v}")
            if any(not 0 <= c < k for c in colors):
                raise ParseError(f"color outside 0..{k - 1} for vertex {v}")
            if len(set(colors)) != len(colors):
                raise ParseError(f"repeated color in list of vertex {v}")
            lists[v] = frozenset(colors)
        elif tag in ("s", "t"):
            vals = _ints(row[1:], tag)
            if len(vals) != 2:
                raise ParseError(f"'{tag}' line needs vertex and color")
            v, c = vals
            store = f0 if tag == "s" else fr
            if not 0 <= v < n:
                raise ParseError(f"'{tag}' vertex {v} out of range")
            if v in store:
                raise ParseError(f"vertex {v} has two '{tag}' lines")
            if not 0 <= c < k:
                raise ParseError(f"color outside 0..{k - 1} for vertex {v}")
            store[v] = c
        else:
            raise ParseError(f"unexpected line: {' '.join(row)}")
    for name, got in (("l", lists), ("s", f0), ("t", fr)):
        missing = next((v for v in range(n) if v not in got), None)
        if missing is not None:
            raise ParseError(f"missing '{name}' line for vertex {missing}")
    return LcrInstance(
        Graph(n, edges),
        tuple(lists[v] for v in range(n)),
        tuple(f0[v] for v in range(n)),
        tuple(fr[v] for v in range(n)),
    )


def row_parse_spr(text: str) -> SprInstance:
    rows = _rows(text)
    n, m = _header(rows, "spr", 2)
    edges = _collect_edges([r for r in rows[1:] if r[0] == "e"], n, m)
    single: dict[str, int] = {}
    paths: dict[str, list[int]] = {}
    for row in rows[1:]:
        tag = row[0]
        if tag == "e":
            continue
        if tag in ("src", "dst"):
            if tag in single or len(row) != 2:
                raise ParseError(f"need exactly one '{tag} <vertex>' line")
            single[tag] = _ints(row[1:], tag)[0]
        elif tag in ("p0", "pr"):
            if tag in paths:
                raise ParseError(f"need exactly one '{tag}' line")
            paths[tag] = _ints(row[1:], tag)
        else:
            raise ParseError(f"unexpected line: {' '.join(row)}")
    for tag in ("src", "dst"):
        if tag not in single:
            raise ParseError(f"missing '{tag}' line")
    for tag in ("p0", "pr"):
        if tag not in paths:
            raise ParseError(f"missing '{tag}' line")
    if n < 0:
        raise ParseError("vertex count must be non-negative")
    # A vertex that no line names is isolated, and compute_layers prunes it
    # with everything else off the shortest paths, so the graph holds only
    # the named vertices, renumbered in increasing order.  Names outside
    # 0..n-1 stay outside the graph and fail there as before.
    ends = [single["src"], single["dst"], *paths["p0"], *paths["pr"]]
    names = sorted({v for e in edges for v in e} | {v for v in ends if 0 <= v < n})
    size = 1 + max(names, default=-1)
    if size > fileio.MAX_GRAPH_VERTICES:
        raise ParseError(
            f"vertex id {size - 1} is out of range: "
            f"ids must be below {fileio.MAX_GRAPH_VERTICES}"
        )
    local = {v: i for i, v in enumerate(names)}
    graph = Graph(len(names), [(local[u], local[v]) for u, v in edges])
    try:
        return build_spr_instance(
            graph, single["src"], single["dst"], paths["p0"], paths["pr"], names
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def one_color_path(n: int) -> LcrInstance:
    """Path whose lists each hold one color, alternating 0 and 1: exactly
    one proper coloring, so the oracle's work is all in the path's length."""
    colors = [v % 2 for v in range(n)]
    return LcrInstance(
        path_graph(n),
        tuple(frozenset({c}) for c in colors),
        tuple(colors),
        tuple(colors),
    )


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaf_count: int) -> Graph:
    return Graph(leaf_count + 1, [(0, i) for i in range(1, leaf_count + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def tree_from_prufer(seq: Sequence[int], n: int) -> Graph:
    """Labeled tree on n >= 2 vertices decoded from a Prufer sequence."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        u = heapq.heappop(leaves)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def all_labeled_trees(n: int) -> Iterator[Graph]:
    if n == 1:
        yield Graph(1, [])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_prufer(seq, n)


def ref_is_caterpillar(g: Graph) -> bool:
    """Forbidden-substructure reference check.

    A tree fails to be a caterpillar exactly when some vertex has three
    neighbors that are themselves non-leaves (a spider center), so the check
    never has to find the spine.
    """
    if len(g.connected_components()) != 1 or g.m != g.n - 1:
        return False
    return all(
        sum(1 for w in g.neighbors(v) if g.degree(w) >= 2) <= 2
        for v in range(g.n)
    )


def ref_proper_colorings(g: Graph, lists) -> set[tuple[int, ...]]:
    """Brute product-then-filter enumeration; only for tiny instances."""
    out = set()
    for combo in itertools.product(*(sorted(lst) for lst in lists)):
        if all(combo[u] != combo[v] for u, v in g.edges):
            out.add(combo)
    return out


def ref_count_s_paths(inst: SprInstance) -> int:
    """Layer-by-layer path counting, independent of the DFS enumerator."""
    counts = {inst.s: 1}
    for i in range(1, inst.d + 1):
        counts = {
            v: sum(counts.get(u, 0) for u in inst.graph.neighbors(v))
            for v in inst.layers[i]
        }
    return counts.get(inst.t, 0)


def scanning_greedy_coloring(
    g: Graph, lists, rng: random.Random, order
) -> Optional[Coloring]:
    """Random proper list coloring greedily along ``order``; None when a
    vertex has no color left.  In id order on a tree numbered parent first,
    it is the reference for ``lcr.generators._greedy_coloring``: its earlier
    body, which scans every neighbour once per list color.  Both must make
    the same draws and return the same coloring."""
    coloring: dict[int, int] = {}
    for v in order:
        free = sorted(
            c for c in lists[v]
            if all(coloring.get(u) != c for u in g.neighbors(v))
        )
        if not free:
            return None
        coloring[v] = rng.choice(free)
    return tuple(coloring[v] for v in range(g.n))


MAX_TRIES = 200


class GenerationFailed(LcrError):
    """Random generation did not produce a valid instance within the retry budget."""


def _shuffled_coloring(g: Graph, lists, rng: random.Random) -> Optional[Coloring]:
    """Random proper list coloring, greedily along a freshly shuffled order."""
    order = list(range(g.n))
    rng.shuffle(order)
    return scanning_greedy_coloring(g, lists, rng, order)


def gen_random_instance(
    n: int,
    edge_prob: float = 0.35,
    colors: int = 4,
    list_range: tuple[int, int] = (1, 4),
    seed: int = 0,
) -> LcrInstance:
    """Random instance on an arbitrary graph, not necessarily normalized.

    List sizes may be 1 (forced colors) or exceed degree+1, so normalization
    has real work to do.  Regenerates until both endpoint colorings exist.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    lo, hi = list_range
    for _ in range(MAX_TRIES):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        g = Graph(n, edges)
        lists = [
            frozenset(rng.sample(range(colors), min(rng.randint(lo, hi), colors)))
            for _ in range(n)
        ]
        f0 = _shuffled_coloring(g, lists, rng)
        fr = _shuffled_coloring(g, lists, rng)
        if f0 is not None and fr is not None:
            return LcrInstance(g, tuple(lists), f0, fr)
    raise GenerationFailed("could not find proper endpoint colorings")


def spr_samples(count: int, base_seed: int) -> list[SprInstance]:
    """Deterministic stream of small layered rerouting instances."""
    return [
        gen_layered_spr(2 + seed % 4, max_width=3, density=0.5, seed=seed)
        for seed in range(base_seed, base_seed + count)
    ]


def caterpillar_corpus(
    count: int,
    base_seed: int,
    max_n: int = 12,
    spine_range: tuple[int, int] = (1, 6),
    leaf_prob: float = 0.5,
    colors: int = 4,
) -> list[LcrInstance]:
    """Deterministic stream of small normalized caterpillar instances."""
    rng = random.Random(base_seed)
    out = []
    seed = base_seed
    while len(out) < count:
        seed += 1
        spine = rng.randint(*spine_range)
        inst = gen_caterpillar(
            spine, leaf_prob=leaf_prob, colors=colors, list_range=(2, 3), seed=seed
        )
        if inst.graph.n <= max_n:
            out.append(inst)
    return out


def layered_corpus(
    count: int,
    base_seed: int,
    depth_range: tuple[int, int] = (2, 5),
    max_width: int = 3,
    density_range: tuple[float, float] = (0.25, 0.7),
    max_states: int = 60_000,
) -> list[tuple[SprInstance, ReducedInstance]]:
    """Deterministic rerouting instances paired with their compiled form.

    Filtered so the compiled instance stays within easy oracle reach.
    """
    rng = random.Random(base_seed)
    out = []
    seed = base_seed
    while len(out) < count:
        seed += 1
        depth = rng.randint(*depth_range)
        density = rng.uniform(*density_range)
        spr = gen_layered_spr(depth, max_width=max_width, density=density, seed=seed)
        red = compile_spr(spr)
        if state_space_size(red.lcr.lists) <= max_states:
            out.append((spr, red))
    return out


def side_by_side(*parts: LcrInstance) -> LcrInstance:
    """The disjoint union of the instances, each numbered after the last."""
    edges, lists, f0, fr = [], [], [], []
    for part in parts:
        base = len(lists)
        edges += [(u + base, v + base) for u, v in part.graph.edges]
        lists += part.lists
        f0 += part.f0
        fr += part.fr
    return LcrInstance(Graph(len(lists), edges), tuple(lists), tuple(f0), tuple(fr))


def winding_path() -> LcrInstance:
    """A 3-vertex path that answers NO, though no frozen set shows it.

    The lists are {0,1}, {0,1,2} and {0,2}, and f0 = (0, 1, 2) must become
    fr = (1, 0, 2).  Only vertex 2 is free under f0, so the greatest frozen
    set is empty; yet f0 reaches just (0,1,0), (0,2,0) and (1,2,0), one
    move apart in a line, so the first edge never trades its colours.  It
    is normalized.  Its lists lie within three colours, so the heights
    answer it: the bands of vertices 0 and 2 fix different lifts of fr.
    """
    return LcrInstance(
        path_graph(3),
        (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 2})),
        (0, 1, 2),
        (1, 0, 2),
    )


def four_colour_no() -> LcrInstance:
    """A 5-vertex path that answers NO with four colours in its lists, and
    no frozen set shows it from either end (``gen_caterpillar(4,
    leaf_prob=0.3, colors=4, seed=711)``: a 4-vertex spine and one leaf on
    its last vertex).

    The lists are {1,2}, {0,1,2}, {0,1,2}, {1,2} and {1,3}, and f0 =
    (1, 2, 0, 2, 3) must become fr = (2, 1, 0, 2, 3).  Colour 3 keeps it
    from the heights, so ``auto`` needs the sweep or the oracle for it.  It
    is normalized.
    """
    return LcrInstance(
        path_graph(5),
        tuple(map(frozenset, ({1, 2}, {0, 1, 2}, {0, 1, 2}, {1, 2}, {1, 3}))),
        (1, 2, 0, 2, 3),
        (2, 1, 0, 2, 3),
    )


def even_cycle_no() -> LcrInstance:
    """A 6-cycle with lists {0,1,2}: f0 alternates 0 and 1 and lifts, fr
    runs 0, 1, 2 twice round and winds by 6, so it never lifts, and the
    answer is NO.  f0 leaves every vertex free, so no frozen set of f0
    shows it; the heights answer it with a cycle."""
    return LcrInstance(
        cycle_graph(6),
        (frozenset({0, 1, 2}),) * 6,
        (0, 1, 0, 1, 0, 1),
        (0, 1, 2, 0, 1, 2),
    )


def huge_cycle(still: bool = False) -> LcrInstance:
    """A 31-cycle with lists {0,1,2}, whose 3^31 colourings pass any usable
    state cap.  f0 is i mod 2, with 2 on vertex 30; fr is f0 + 1 mod 3, or
    with ``still`` f0 itself.  An odd cycle never lifts to heights, so the
    heights leave it; vertex 1 is free under either end, which unpins vertex
    0, then vertex 30 and vertex 29, so no frozen set settles it: only the
    oracle could answer it."""
    f0 = tuple(i % 2 for i in range(30)) + (2,)
    return LcrInstance(
        cycle_graph(31),
        (frozenset({0, 1, 2}),) * 31,
        f0,
        f0 if still else tuple((c + 1) % 3 for c in f0),
    )


def beside_a_huge_cycle(
    small: LcrInstance, cycle_first: bool = False, still: bool = False
) -> LcrInstance:
    """The instance ``small`` next to ``huge_cycle(still)``; ``cycle_first``
    numbers the cycle 0..30 and ``small`` from 31 on, else ``small`` comes
    first."""
    cycle = huge_cycle(still)
    return side_by_side(cycle, small) if cycle_first else side_by_side(small, cycle)


def frozen_cycle() -> LcrInstance:
    """A 30-cycle with lists {0,1,2} from f0 = i mod 3 to fr = (i + 1) mod 3:
    each vertex sees both of its other colours, so the whole cycle is frozen
    and the answer is NO, while its 3^30 colourings pass any usable cap."""
    return LcrInstance(
        cycle_graph(30),
        (frozenset({0, 1, 2}),) * 30,
        tuple(i % 3 for i in range(30)),
        tuple((i + 1) % 3 for i in range(30)),
    )


# -- frozen sets ---------------------------------------------------------------------


def _pinned(inst: LcrInstance, v: int, s: set[int]) -> bool:
    """Each other colour of v's list sits on a neighbour of v in s."""
    held = {inst.f0[u] for u in inst.graph.neighbors(v) if u in s}
    return inst.lists[v] <= held | {inst.f0[v]}


def greatest_frozen_set(inst: LcrInstance) -> set[int]:
    """Rescanning reference for the greatest set that f0 freezes: drop any
    vertex that is not pinned by the kept ones, until none is left to drop."""
    kept = set(range(inst.graph.n))
    changed = True
    while changed:
        changed = False
        for v in sorted(kept):
            if not _pinned(inst, v, kept):
                kept.discard(v)
                changed = True
    return kept


def has_frozen_no(inst: LcrInstance) -> bool:
    """True if fr differs from f0 on the greatest frozen set."""
    return any(inst.f0[v] != inst.fr[v] for v in greatest_frozen_set(inst))


def proves_no(inst: LcrInstance, vertices: Sequence[int]) -> bool:
    """Independent checker of a frozen NO: the set is frozen under f0 (each
    of its vertices pinned by the set), and fr differs from f0 somewhere on
    it."""
    s = set(vertices)
    if not s <= set(range(inst.graph.n)):
        return False
    return all(_pinned(inst, v, s) for v in s) and any(inst.f0[v] != inst.fr[v] for v in s)


# -- heights -------------------------------------------------------------------------


def outside_heights(inst: LcrInstance) -> bool:
    """True if the heights take no component of the normalized instance:
    each holds four colours or more in its lists, or is not bipartite, so
    that no colouring of it lifts.  The normalization is the reference one."""
    trimmed, _ = quadratic_normalize(inst)
    for comp in trimmed.graph.connected_components():
        if len(set().union(*(trimmed.lists[v] for v in comp))) <= 3:
            if queue_is_bipartite(trimmed.graph.induced_subgraph(comp)) is not None:
                return False
    return True


def _walk_heights(inst: LcrInstance, walk: Sequence[int], f, rank) -> Optional[list[int]]:
    """Heights of f along the walk from rank[f(walk[0])], or None where f
    leaves a list or repeats a colour across a step."""
    if any(f[v] not in inst.lists[v] for v in walk):
        return None
    h = [rank[f[walk[0]]]]
    for a, b in zip(walk, walk[1:]):
        if f[a] == f[b]:
            return None
        h.append(h[-1] + (1 if (rank[f[b]] - rank[f[a]]) % 3 == 1 else -1))
    return h


def proves_winding(inst: LcrInstance, kind: str, vertices: Sequence[int]) -> bool:
    """Independent checker of a heights NO, given in the instance's ids.

    Both ends must be proper list colourings.  The certificate speaks of
    the trimmed lists, which the reference normalization gives.  A ``"pair"`` (u, v) names two two-colour vertices
    of one trimmed component; f0 and fr are lifted along one u-v path of the
    trimmed graph and nowhere else, and the bands of u and v must fix
    different lifts of fr.  A ``"cycle"`` is a closed walk of the trimmed
    graph around which f0 and fr must wind differently.  Either way the
    lists on the walk must lie within three colours.  Then a move of a
    walk vertex needs its two walk neighbours on the third colour, which
    changes neither the heights' rise along the path nor the winding, and
    a two-colour vertex's height stays in its band: fr is out of reach.
    """
    for f in (inst.f0, inst.fr):
        if not all(c in lst for c, lst in zip(f, inst.lists)):
            return False
        if any(f[a] == f[b] for a, b in inst.graph.edges):
            return False
    trimmed, trace = quadratic_normalize(inst)
    at = {v: i for i, v in enumerate(trace.kept)}
    if not all(v in at for v in vertices):
        return False
    ends = [at[v] for v in vertices]
    g = trimmed.graph
    if kind == "pair" and len(ends) == 2:
        walk = queue_shortest_path(g, *ends)
        if walk is None:
            return False
    elif kind == "cycle" and len(ends) >= 3:
        walk = ends + ends[:1]
        if not all(g.has_edge(a, b) for a, b in zip(walk, walk[1:])):
            return False
    else:
        return False
    palette = sorted(set().union(*(trimmed.lists[v] for v in walk)))
    if len(palette) > 3:
        return False
    rank = {c: i for i, c in enumerate(palette)}
    colour = dict(enumerate(palette))
    h0 = _walk_heights(trimmed, walk, trimmed.f0, rank)
    hr = _walk_heights(trimmed, walk, trimmed.fr, rank)
    if h0 is None or hr is None:
        return False
    if kind == "cycle":
        return h0[-1] - h0[0] != hr[-1] - hr[0]
    ks = []
    for i in (0, -1):
        lst = trimmed.lists[walk[i]]
        if len(lst) != 2:
            return False
        # the band: h0 and the one height two away whose colour is the other
        band = [h0[i]] + [x for x in (h0[i] - 2, h0[i] + 2) if colour.get(x % 3) in lst]
        (t,) = [x for x in band if (x - hr[i]) % 3 == 0]
        ks.append((t - hr[i]) // 3)
    return ks[0] != ks[1]


def proves(inst: LcrInstance, certificate: tuple[str, Sequence[int]]) -> bool:
    """Independent checker of any NO certificate (kind, vertices) in the
    instance's ids: a ``"frozen"`` set goes to ``proves_no``, a heights
    ``"pair"`` or ``"cycle"`` to ``proves_winding``."""
    kind, vertices = certificate
    if kind == "frozen":
        return proves_no(inst, vertices)
    return proves_winding(inst, kind, vertices)


def queue_shortest_path(g: Graph, src: int, dst: int) -> Optional[list[int]]:
    """A shortest src-dst path by its own breadth-first search, or None, so
    that ``proves_winding`` leans on no search of the package."""
    back = {src: src}
    queue = [src]
    for u in queue:  # the list grows as it is read: breadth first
        for w in g.neighbors(u):
            if w not in back:
                back[w] = u
                queue.append(w)
    if dst not in back:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(back[path[-1]])
    return path[::-1]


# -- quadratic references for the certificate checkers ------------------------------


def pairwise_threshold_verify(witness: ThresholdWitness, g: Graph) -> bool:
    """Pair-by-pair reference for ``ThresholdWitness.verify``."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (witness.weights[u] + witness.weights[v] >= witness.bound) != g.has_edge(u, v):
                return False
    return True


def bag_scan_check_path_decomposition(g: Graph, pd: PathDecomposition) -> DecompositionCheck:
    """Bag-scanning reference for ``lcr.graph.check_path_decomposition``."""
    for bag in pd.bags:
        for v in bag:
            if not 0 <= v < g.n:
                raise ValueError(f"bag vertex {v} out of range for n={g.n}")
    width = pd.width

    covered: set[int] = set()
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, bag in enumerate(pd.bags):
        for v in bag:
            covered.add(v)
            first.setdefault(v, i)
            last[v] = i
    if len(covered) != g.n:
        return DecompositionCheck(False, width)

    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in pd.bags):
            return DecompositionCheck(False, width)

    for v in covered:
        span = range(first[v], last[v] + 1)
        if any(v not in pd.bags[i] for i in span):
            return DecompositionCheck(False, width)

    return DecompositionCheck(True, width)


# -- the reduction's gadgets rebuilt from the ForbiddenVertex side table --------


def side_table_endpoint(red: ReducedInstance, path: SPath) -> Coloring:
    """Endpoint coloring by the side-table rule: each forbidden vertex sorts
    its pair and takes the first color that neither layer neighbor holds."""
    spr = red.spr
    d, g = spr.d, red.lcr.graph
    color_of = {pair: c for c, pair in red.pair_of.items()}
    index_in_layer = [
        {v: j for j, v in enumerate(layer)} for layer in spr.layers
    ]
    f = [0] * g.n
    for i in range(1, d):
        f[i - 1] = color_of[(i, index_in_layer[i][path[i]])]
    for fv in red.forbidden:
        a = color_of[(fv.layer, fv.x)]
        b = color_of[(fv.layer + 1, fv.y)]
        choices = [
            c for c in sorted((a, b))
            if c != f[fv.layer - 1] and c != f[fv.layer]
        ]
        f[fv.vertex] = choices[0]
    return tuple(f)


def union_to_threshold(red: ReducedInstance) -> tuple[LcrInstance, ThresholdWitness]:
    """Edge-set union reference for ``lcr.reduction.to_threshold``."""
    base = red.lcr
    layer_vertices = range(red.spr.d - 1)
    edges = set(base.graph.edges)
    for a in layer_vertices:
        for b in layer_vertices:
            if a < b:
                edges.add((a, b))
        for fv in red.forbidden:
            pair = (a, fv.vertex) if a < fv.vertex else (fv.vertex, a)
            edges.add(pair)
    g = Graph(base.graph.n, sorted(edges))
    layer_set = set(layer_vertices)
    weights = tuple(1 if v in layer_set else 0 for v in range(g.n))
    inst = LcrInstance(g, base.lists, base.f0, base.fr)
    return inst, ThresholdWitness(weights, 1)


def side_table_spath_sequence_to_recoloring(
    red: ReducedInstance, seq: Sequence[SPath]
) -> list[Step]:
    """Side-table reference for ``lcr.reduction.spath_sequence_to_recoloring``."""
    spr = red.spr
    if (
        not seq
        or tuple(seq[0]) != spr.p0
        or tuple(seq[-1]) != spr.pr
        or any(not is_s_path(spr, p) for p in seq)
        or any(
            not adjacent_s_paths(p, q) for p, q in zip(seq, seq[1:])
        )
    ):
        raise InvalidRerouting("not a rerouting sequence between p0 and pr")

    index_in_layer = [
        {v: j for j, v in enumerate(layer)} for layer in spr.layers
    ]
    color_of = {pair: c for c, pair in red.pair_of.items()}
    nbr_forbidden: dict[int, list[ForbiddenVertex]] = {
        u: [] for u in range(spr.d - 1)
    }
    for fv in red.forbidden:
        nbr_forbidden[fv.layer - 1].append(fv)
        nbr_forbidden[fv.layer].append(fv)

    cur = list(red.lcr.f0)
    steps: list[Step] = []

    def recolor(v: int, c: int):
        if cur[v] != c:
            cur[v] = c
            steps.append((v, c))

    for p, q in zip(seq, seq[1:]):
        (i,) = [k for k in range(1, spr.d) if p[k] != q[k]]
        u = i - 1
        target = color_of[(i, index_in_layer[i][q[i]])]
        for fv in nbr_forbidden[u]:
            if cur[fv.vertex] == target:
                a = color_of[(fv.layer, fv.x)]
                b = color_of[(fv.layer + 1, fv.y)]
                recolor(fv.vertex, b if cur[fv.vertex] == a else a)
        recolor(u, target)
    for fv in red.forbidden:
        recolor(fv.vertex, red.lcr.fr[fv.vertex])
    return steps


# -- the layered experiments' reduction run without the driver ------------------


def direct_oracle_reduction(spr: SprInstance, state_cap: int) -> Optional[bool]:
    """The layered experiments' ``reduction`` answer as it was before the run
    went through ``solve_driver``: the oracle on the whole compiled graph, with
    no normalization and one cap over every component; None when it refused."""
    answer = None
    red = compile_spr(spr)
    graph = red.lcr.graph
    try:
        steps, _ = oracle.reachable(graph, red.lcr.lists, red.lcr.f0, red.lcr.fr, state_cap)
        answer = steps is not None
    except StateSpaceTooLarge:
        pass
    return answer
