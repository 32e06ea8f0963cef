"""Cross-checks for the caterpillar sweep, kept beside the tests.

This module lives in ``tests/``, not in the ``lcr`` package: nothing on the
solve path imports it.  The tests use it to check the structural invariants
of each encoding graph the sweep builds, to contract the same graph straight
from the reconfiguration graph of a prefix, to compare the two up to e-node
numbering, and to restrict colorings to sweep prefixes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from lcr.caterpillar_dp import EncodingGraph
from lcr.errors import LcrError, NotCaterpillar, PartialColoring
from lcr.graph import CaterpillarStructure, reach, recognize_caterpillar
from lcr.instance import LcrInstance
from lcr.oracle import ReconfigurationGraph


class OutOfRange(LcrError, ValueError):
    """Index argument outside the valid range."""


def adjacency(eg: EncodingGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in eg.cols]
    for x, y in eg.edges:
        adj[x].append(y)
        adj[y].append(x)
    return adj


def validate_encoding(eg: EncodingGraph, spine_list=None) -> None:
    """Raise ValueError if the labeled graph breaks a structural invariant.

    Checks: one ini e-node, at most one tar, ids in range, no duplicate or
    reflexive edges, adjacent e-nodes carry distinct cols, the graph is
    connected, and (when given) every col belongs to spine_list.
    """
    k = len(eg.cols)
    if eg.ini is None or not 0 <= eg.ini < k:
        raise ValueError("need exactly one ini e-node")
    if eg.tar is not None and not 0 <= eg.tar < k:
        raise ValueError("tar e-node out of range")
    seen = set()
    for x, y in eg.edges:
        if not (0 <= x < k and 0 <= y < k) or x == y:
            raise ValueError(f"bad edge ({x}, {y})")
        key = (x, y) if x < y else (y, x)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        if eg.cols[x] == eg.cols[y]:
            raise ValueError(f"adjacent e-nodes {x}, {y} share col {eg.cols[x]}")
    if spine_list is not None:
        bad = [c for c in eg.cols if c not in spine_list]
        if bad:
            raise ValueError(f"cols {bad} outside the spine list")
    if k and len(reach(adjacency(eg), 0, [-1] * k)) != k:
        raise ValueError("encoding graph is disconnected")


def _labels(eg: EncodingGraph) -> list[tuple[int, bool, bool]]:
    """(col, is_ini, is_tar) per e-node id."""
    return [(c, i == eg.ini, i == eg.tar) for i, c in enumerate(eg.cols)]


def label_preserving_isomorphic(a: EncodingGraph, b: EncodingGraph) -> bool:
    """True if some bijection matches edges and (col, ini, tar) labels.

    Backtracking over label-compatible candidates; meant for the small
    graphs that show up in cross-checks against the brute-force oracle.
    """
    if len(a) != len(b):
        return False
    la, lb = _labels(a), _labels(b)
    if sorted(la) != sorted(lb):
        return False
    adj_a, adj_b = adjacency(a), adjacency(b)
    if sorted(len(x) for x in adj_a) != sorted(len(x) for x in adj_b):
        return False
    edges_b = {(x, y) if x < y else (y, x) for x, y in b.edges}

    sig_a = [(la[i], len(adj_a[i])) for i in range(len(a))]
    sig_b = [(lb[i], len(adj_b[i])) for i in range(len(b))]
    if sorted(sig_a) != sorted(sig_b):
        return False
    candidates = [
        [j for j in range(len(b)) if sig_b[j] == sig_a[i]] for i in range(len(a))
    ]
    order = sorted(range(len(a)), key=lambda i: len(candidates[i]))
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        i = order[pos]
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for w in adj_a[i]:
                if w in image:
                    jw = image[w]
                    if ((j, jw) if j < jw else (jw, j)) not in edges_b:
                        ok = False
                        break
            if not ok:
                continue
            # mapped non-neighbors must stay non-neighbors
            deg_mapped = sum(1 for w in adj_a[i] if w in image)
            deg_b_mapped = sum(1 for w in adj_b[j] if w in used)
            if deg_mapped != deg_b_mapped:
                continue
            image[i] = j
            used.add(j)
            if extend(pos + 1):
                return True
            del image[i]
            used.remove(j)
        return False

    return extend(0)


def contract_encoding(
    rg: ReconfigurationGraph,
    component: Iterable[int],
    spine_vertex: int,
    f0: Sequence[int],
    fr: Sequence[int],
) -> EncodingGraph:
    """Contract one component into its e-node graph for a chosen vertex.

    Two colorings of the component share an e-node when they agree on
    spine_vertex and a path between them never recolors it; the e-node edges
    come from the component edges that do recolor spine_vertex.  Built
    directly from the definition, independent of the incremental solver, so
    it can serve as that solver's oracle.  E-node ids follow (col, smallest
    member node id).
    """
    comp = sorted(component)
    in_comp = set(comp)
    parent = {u: u for u in comp}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u in comp:
        cu = rg.nodes[u][spine_vertex]
        for w in rg.adj[u]:
            if w > u and w in in_comp and rg.nodes[w][spine_vertex] == cu:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[rw] = ru

    classes: dict[int, list[int]] = {}
    for u in comp:
        classes.setdefault(find(u), []).append(u)
    roots = sorted(
        classes, key=lambda r: (rg.nodes[r][spine_vertex], min(classes[r]))
    )
    enode_of = {}
    for i, r in enumerate(roots):
        for u in classes[r]:
            enode_of[u] = i
    cols = tuple(rg.nodes[r][spine_vertex] for r in roots)

    edges = set()
    for u in comp:
        eu = enode_of[u]
        for w in rg.adj[u]:
            if w > u and w in in_comp and enode_of[w] != eu:
                ew = enode_of[w]
                edges.add((eu, ew) if eu < ew else (ew, eu))

    index = {f: i for i, f in enumerate(rg.nodes)}
    f0_id = index.get(tuple(f0))
    fr_id = index.get(tuple(fr))
    ini = enode_of.get(f0_id) if f0_id is not None else None
    tar = enode_of.get(fr_id) if fr_id is not None else None
    return EncodingGraph(cols, tuple(sorted(edges)), ini, tar)


def restrict(
    inst: LcrInstance,
    f: Sequence[int],
    prefix_size: int,
    structure: Optional[CaterpillarStructure] = None,
) -> dict[int, int]:
    """Restriction of f to the first prefix_size vertices of the solver ordering."""
    if structure is None:
        structure = recognize_caterpillar(inst.graph)
        if structure is None:
            raise NotCaterpillar("restriction needs a caterpillar ordering")
    if not 1 <= prefix_size <= inst.graph.n:
        raise OutOfRange(f"prefix size {prefix_size} outside 1..{inst.graph.n}")
    if len(f) != inst.graph.n:
        raise PartialColoring("restriction needs a total coloring")
    return {v: f[v] for v in structure.ordering[:prefix_size]}
