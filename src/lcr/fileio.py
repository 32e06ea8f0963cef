"""Line-oriented text formats for graphs, instances, and certificates.

Lines are whitespace separated; ``#`` starts a comment.  Parsers take text,
formatters return text, and both sides round-trip.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ParseError
from .graph import Graph, PathDecomposition
from .instance import LcrInstance, Step
from .reduction import ReducedInstance, ThresholdWitness
from .rerouting import SprInstance, build_spr_instance


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


def parse_graph(text: str) -> Graph:
    rows = _rows(text)
    n, m = _header(rows, "graph", 2)
    if n < 0 or m < 0:
        raise ParseError("negative counts in header")
    for row in rows[1:]:
        if row[0] != "e":
            raise ParseError(f"unexpected line: {' '.join(row)}")
    return Graph(n, _collect_edges(rows[1:], n, m))


def format_graph(g: Graph, comment: str | None = None) -> str:
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"p graph {g.n} {g.m}")
    out.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"


def parse_lcr(text: str) -> LcrInstance:
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


def format_lcr(inst: LcrInstance, comment: str | None = None) -> str:
    g = inst.graph
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"p lcr {g.n} {g.m} {inst.num_colors}")
    out.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    for v in range(g.n):
        out.append("l " + " ".join(str(c) for c in [v] + sorted(inst.lists[v])))
    out.extend(f"s {v} {inst.f0[v]}" for v in range(g.n))
    out.extend(f"t {v} {inst.fr[v]}" for v in range(g.n))
    return "\n".join(out) + "\n"


def parse_sequence(text: str) -> list[Step]:
    steps = []
    for row in _rows(text):
        if row[0] != "r" or len(row) != 3:
            raise ParseError(f"expected 'r <vertex> <color>': {' '.join(row)}")
        v, c = _ints(row[1:], "step")
        steps.append((v, c))
    return steps


def format_sequence(steps: Sequence[Step], comment: str | None = None) -> str:
    out = [f"# {comment}"] if comment else []
    out.extend(f"r {v} {c}" for v, c in steps)
    return "\n".join(out) + "\n" if out else ""


def parse_spr(text: str) -> SprInstance:
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
    # with everything else off the shortest paths, so the graph stops at the
    # largest named vertex rather than at the untrusted header's n.  Names
    # outside 0..n-1 stay outside the graph and fail there as before.
    ends = [single["src"], single["dst"], *paths["p0"], *paths["pr"]]
    size = 1 + max(
        [max(e) for e in edges] + [v for v in ends if 0 <= v < n], default=-1
    )
    try:
        return build_spr_instance(
            Graph(size, edges), single["src"], single["dst"], paths["p0"], paths["pr"]
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_spr(inst: SprInstance, comment: str | None = None) -> str:
    g = inst.graph
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"p spr {g.n} {g.m}")
    out.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    out.append(f"src {inst.s}")
    out.append(f"dst {inst.t}")
    out.append("p0 " + " ".join(map(str, inst.p0)))
    out.append("pr " + " ".join(map(str, inst.pr)))
    return "\n".join(out) + "\n"


def parse_decomposition(text: str) -> PathDecomposition:
    bags = []
    for row in _rows(text):
        if row[0] != "b":
            raise ParseError(f"expected 'b <vertices...>': {' '.join(row)}")
        bags.append(frozenset(_ints(row[1:], "bag")))
    return PathDecomposition(tuple(bags))


def format_decomposition(pd: PathDecomposition, comment: str | None = None) -> str:
    out = [f"# {comment}"] if comment else []
    out.extend("b " + " ".join(map(str, sorted(bag))) for bag in pd.bags)
    return "\n".join(out) + "\n" if out else ""


def parse_colormap(text: str) -> dict[int, tuple[int, int]]:
    pair_of = {}
    for row in _rows(text):
        if row[0] != "c" or len(row) != 4:
            raise ParseError(f"expected 'c <color> <layer> <index>': {' '.join(row)}")
        c, layer, idx = _ints(row[1:], "colormap")
        if c in pair_of:
            raise ParseError(f"color {c} mapped twice")
        pair_of[c] = (layer, idx)
    return pair_of


def format_colormap(red: ReducedInstance, comment: str | None = None) -> str:
    out = [f"# {comment}"] if comment else []
    out.extend(
        f"c {c} {layer} {idx}" for c, (layer, idx) in sorted(red.pair_of.items())
    )
    return "\n".join(out) + "\n" if out else ""


def parse_threshold_witness(text: str) -> ThresholdWitness:
    bound = None
    weights: dict[int, int] = {}
    for row in _rows(text):
        if row[0] == "thr" and len(row) == 2:
            if bound is not None:
                raise ParseError("two 'thr' lines")
            bound = _ints(row[1:], "thr")[0]
        elif row[0] == "w" and len(row) == 3:
            v, weight = _ints(row[1:], "weight")
            if v in weights:
                raise ParseError(f"vertex {v} weighted twice")
            weights[v] = weight
        else:
            raise ParseError(f"unexpected line: {' '.join(row)}")
    if bound is None:
        raise ParseError("missing 'thr' line")
    missing = [v for v in range(len(weights)) if v not in weights]
    if missing:
        raise ParseError(f"missing weight for vertex {missing[0]}")
    return ThresholdWitness(tuple(weights[v] for v in range(len(weights))), bound)


def format_threshold_witness(w: ThresholdWitness, comment: str | None = None) -> str:
    out = [f"# {comment}"] if comment else []
    out.append(f"thr {w.bound}")
    out.extend(f"w {v} {weight}" for v, weight in enumerate(w.weights))
    return "\n".join(out) + "\n"
