"""Line-oriented text formats for graphs, instances, and certificates.

Lines are whitespace separated; ``#`` starts a comment.  Parsers take text,
formatters return text, and both sides round-trip.

Instance and rerouting texts have two readers.  The block reader slices
the body into one run of lines per tag, splits each run once, and checks
whole columns, vertex columns as text against ``0..n-1``.  It reads the
shape ``format_lcr`` and ``format_spr`` write, with the runs in any order,
and declines (returns None) on a fault or on another shape: a tag's lines in
two places, a blank line in the body, a vertex column out of vertex order,
or rerouting ids past the count of ids named.  The row reader then reads the
rows in file order and returns the value or raises the first fault.  Bare
graph texts, read only by ``lcr verify``, go to the row reader alone.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .errors import ParseError
from .graph import Graph, PathDecomposition
from .instance import LcrInstance, Step
from .reduction import ReducedInstance, ThresholdWitness
from .rerouting import SprInstance, build_spr_instance

MAX_GRAPH_VERTICES = 1_000_000
"""Largest vertex count a ``p graph`` header or a rerouting graph may ask for.

Isolated vertices are legal in a bare graph, so its body cannot bound the
header; this limit does, before ``Graph`` allocates per-vertex storage
(about 0.8 s and 100 MiB at the limit).  A rerouting graph holds only the
vertices its text names, and the limit bounds the largest of their ids.
Instance headers are bounded by their bodies.
"""


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


def _header(head: Optional[list[str]], kind: str, fields: int) -> list[int]:
    if head is None or head[0] != "p":
        raise ParseError(f"missing 'p {kind}' header")
    if len(head) != 2 + fields or head[1] != kind:
        raise ParseError(f"expected 'p {kind}' header with {fields} fields")
    return _ints(head[2:], "header")


def _runs(text: str, tags: Sequence[str]) -> tuple[Optional[list[str]], Optional[dict[str, str]]]:
    """The first non-blank row, split, and each tag's run of body lines.

    A tag's run is its lines, each opening ``\\n<tag> ``, sliced out as one
    string; a tag with no line has the run ''.  The runs are read in file
    order and are None unless they are the whole body: a line of another
    shape (an unknown tag, leading blanks, a blank line) or a tag's lines in
    two places declines.  A text with a comment, or with a line break other
    than ``\\n`` and ``\\r\\n``, is first cut into lines as the row reader
    cuts it.
    """
    # plain: ASCII, with no line break of str.splitlines but "\n" and "\r\n"
    plain = text.isascii() and not any(c in text for c in "\x0b\x0c\x1c\x1d\x1e") and (
        "\r" not in text or text.count("\r") == text.count("\r\n"))
    if plain and "#" not in text:
        text = text.lstrip()
    else:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines()).lstrip()
    if not text.endswith("\n"):
        text += "\n"  # so that every line, the last one too, ends in one
    start = text.find("\n")
    head = text[:start].split() or None
    runs = dict.fromkeys(tags, "")
    width = 2 + max(map(len, tags))
    while start < len(text) - 1:
        # the line at start opens with "<tag> " only if the tag and its blank
        # come before any line break
        tag = text[start + 1:start + width].partition(" ")[0]
        if runs.get(tag) != "":
            return head, None
        key = f"\n{tag} "
        stop = text.find("\n", text.rfind(key) + 1)
        run = runs[tag] = text[start:stop]
        if run.count(key) != run.count("\n"):
            return head, None
        start = stop
    return head, runs


def _pairs(run: str) -> Optional[tuple[list[str], list[str]]]:
    """The two columns of a run of ``tag a b`` lines, as text, or None
    unless the run holds three tokens a line.

    Every line opens with its tag and no tag is an integer, so once both
    columns hold only integers, every line is exactly ``tag a b``: a longer
    or shorter line would move a later tag into one of them.
    """
    tokens = run.split()
    if len(tokens) != 3 * run.count("\n"):
        return None
    return tokens[1::3], tokens[2::3]


def _in_range(values: Collection[int], n: int) -> bool:
    return not values or (min(values) >= 0 and max(values) < n)


def _check_edges(body: list[list[str]], n: int, expected: int) -> set[tuple[int, int]]:
    """The edges of the ``e`` rows, or their first fault in file order."""
    seen: set[tuple[int, int]] = set()
    for row in body:
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
    if len(seen) != expected:
        raise ParseError(f"header promises {expected} edges, found {len(seen)}")
    return seen


def _graph_rows(body: list[list[str]], n: int, m: int) -> Graph:
    """The graph of a body read row by row, or its first fault in file order."""
    for row in body:
        if row[0] != "e":
            raise ParseError(f"unexpected line: {' '.join(row)}")
    return Graph(n, _check_edges(body, n, m))


def parse_graph(text: str) -> Graph:
    head, *body = _rows(text) or [None]
    n, m = _header(head, "graph", 2)
    if n < 0 or m < 0:
        raise ParseError("negative counts in header")
    if n > MAX_GRAPH_VERTICES:
        raise ParseError(
            f"header promises {n} vertices, above the limit of {MAX_GRAPH_VERTICES}"
        )
    return _graph_rows(body, n, m)


def _text(comment: Optional[str], lines: Iterable[str]) -> str:
    """``lines`` under an optional ``# comment`` line; no line at all is ''."""
    out = [f"# {comment}"] if comment else []
    out.extend(lines)
    return "\n".join(out) + "\n" if out else ""


def _edge_lines(g: Graph) -> Iterator[str]:
    return (f"e {u} {v}" for u, v in g.edges)


def format_graph(g: Graph, comment: str | None = None) -> str:
    return _text(comment, [f"p graph {g.n} {g.m}", *_edge_lines(g)])


def _color_lists(
    lines: list[str], k: int, column: list[str]
) -> Optional[tuple[frozenset[int], ...]]:
    """The color sets of ``l`` lines cut after their tag, or None unless the
    vertices are ``column`` and each list is a set of colors below k.

    Few distinct lists recur over many vertices, so each distinct color text
    is converted and checked once and its set shared.
    """
    parts = list(map(str.partition, lines, repeat(" ")))
    if list(map(itemgetter(0), parts)) != column:
        return None
    texts = list(map(itemgetter(2), parts))
    sets: dict[str, frozenset[int]] = {}
    try:
        for colors in set(texts):
            tokens = colors.split()
            sets[colors] = frozenset(map(int, tokens))
            if not tokens or len(sets[colors]) != len(tokens) or not _in_range(sets[colors], k):
                return None
    except ValueError:
        return None
    return tuple(map(sets.__getitem__, texts))


def _lcr_rows(body: list[list[str]], n: int, m: int, k: int) -> LcrInstance:
    """A body's instance, read row by row, or its first fault: 'l' count, edges, file order."""
    # every vertex needs its own 'l' line, so the body bounds n before any
    # work is sized by it
    list_lines = sum(row[0] == "l" for row in body)
    if n > list_lines:
        raise ParseError(f"header promises {n} vertices, found {list_lines} 'l' lines")
    edges = _check_edges(body, n, m)
    seen: dict[str, dict] = {"l": {}, "s": {}, "t": {}}
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
            if v in seen["l"]:
                raise ParseError(f"vertex {v} has two list lines")
            if not colors:
                raise ParseError(f"empty color list for vertex {v}")
            if any(not 0 <= c < k for c in colors):
                raise ParseError(f"color outside 0..{k - 1} for vertex {v}")
            if len(set(colors)) != len(colors):
                raise ParseError(f"repeated color in list of vertex {v}")
            seen["l"][v] = frozenset(colors)
        elif tag in ("s", "t"):
            vals = _ints(row[1:], tag)
            if len(vals) != 2:
                raise ParseError(f"'{tag}' line needs vertex and color")
            v, c = vals
            if not 0 <= v < n:
                raise ParseError(f"'{tag}' vertex {v} out of range")
            if v in seen[tag]:
                raise ParseError(f"vertex {v} has two '{tag}' lines")
            if not 0 <= c < k:
                raise ParseError(f"color outside 0..{k - 1} for vertex {v}")
            seen[tag][v] = c
        else:
            raise ParseError(f"unexpected line: {' '.join(row)}")
    for name, got in seen.items():
        missing = next((v for v in range(n) if v not in got), None)
        if missing is not None:
            raise ParseError(f"missing '{name}' line for vertex {missing}")
    columns = (tuple(map(got.__getitem__, range(n))) for got in seen.values())
    return LcrInstance(Graph(n, edges), *columns)


def _lcr_body(n: int, m: int, k: int, runs: dict[str, str]) -> Optional[LcrInstance]:
    """The instance of a body in runs, or None on a fault or on a vertex
    column other than 0..n-1 written plainly in order."""
    lines = runs.pop("l").split("\nl ")[1:]
    if len(lines) != n:
        return None
    # the 'l' lines have bounded n, so the vertex column may be sized by it
    column = list(map(str, range(n)))
    lists = _color_lists(lines, k, column)
    del lines  # free each run's text once converted, to keep the parse's memory peak down
    edges = _pairs(runs.pop("e"))
    if lists is None or edges is None or len(edges[0]) != m:
        return None
    try:
        graph = Graph(n, zip(map(int, edges[0]), map(int, edges[1])))
        del edges
        ends = []
        for tag in ("s", "t"):
            pairs = _pairs(runs.pop(tag))
            if pairs is None or pairs[0] != column:
                return None
            ends.append(tuple(map(int, pairs[1])))
            if not _in_range(ends[-1], k):
                return None
    except ValueError:  # a token not an integer, or an edge out of range, a self-loop or a repeat
        return None
    return LcrInstance(graph, lists, *ends)


def parse_lcr(text: str) -> LcrInstance:
    head, runs = _runs(text, ("e", "l", "s", "t"))
    n, m, k = _header(head, "lcr", 3)
    if min(n, m, k) < 0:
        raise ParseError("negative counts in header")
    return (runs and _lcr_body(n, m, k, runs)) or _lcr_rows(_rows(text)[1:], n, m, k)


def format_lcr(inst: LcrInstance, comment: str | None = None) -> str:
    g = inst.graph
    return _text(comment, [
        f"p lcr {g.n} {g.m} {inst.num_colors}", *_edge_lines(g),
        *("l " + " ".join(map(str, [v, *sorted(inst.lists[v])])) for v in range(g.n)),
        *(f"s {v} {c}" for v, c in enumerate(inst.f0)),
        *(f"t {v} {c}" for v, c in enumerate(inst.fr)),
    ])


def _tagged(text: str, usage: str, what: str) -> Iterator[list[int]]:
    """Each row's integers, checked in file order as it is read; ``usage``
    names the tag and the fields, any count of them if it ends in ``...>``."""
    tag, *fields = usage.split()
    for row in _rows(text):
        if row[0] != tag or (len(row) != 1 + len(fields) and not usage.endswith("...>")):
            raise ParseError(f"expected '{usage}': {' '.join(row)}")
        yield _ints(row[1:], what)


def parse_sequence(text: str) -> list[Step]:
    return [(v, c) for v, c in _tagged(text, "r <vertex> <color>", "step")]


def format_sequence(steps: Sequence[Step], comment: str | None = None) -> str:
    return _text(comment, (f"r {v} {c}" for v, c in steps))


def _spr_rows(body: list[list[str]], n: int, m: int):
    """``_spr_body``'s tuple, read row by row, or the first fault: edges, then file order."""
    edges = _check_edges(body, n, m)
    named: dict[str, list[int]] = {}
    for row in body:
        tag = row[0]
        if tag == "e":
            continue
        if tag in ("src", "dst"):
            if tag in named or len(row) != 2:
                raise ParseError(f"need exactly one '{tag} <vertex>' line")
        elif tag in ("p0", "pr"):
            if tag in named:
                raise ParseError(f"need exactly one '{tag}' line")
        else:
            raise ParseError(f"unexpected line: {' '.join(row)}")
        named[tag] = _ints(row[1:], tag)
    for tag in ("src", "dst", "p0", "pr"):
        if tag not in named:
            raise ParseError(f"missing '{tag}' line")
    if n < 0:
        raise ParseError("vertex count must be non-negative")
    (src,), (dst,), p0, pr = map(named.__getitem__, ("src", "dst", "p0", "pr"))
    # A vertex that no line names is isolated, and compute_layers prunes it
    # with everything else off the shortest paths, so the untrusted header's
    # n sizes nothing: the named vertices are numbered in increasing order,
    # and build_spr_instance keeps the text's ids in its messages and id map.
    # Names outside 0..n-1 stay outside the graph and fail there.
    ends = (v for v in (src, dst, *p0, *pr) if 0 <= v < n)
    names = sorted({v for e in edges for v in e}.union(ends))
    if names and names[-1] >= MAX_GRAPH_VERTICES:
        raise ParseError(
            f"vertex id {names[-1]} is out of range: ids must be below {MAX_GRAPH_VERTICES}"
        )
    local = {v: i for i, v in enumerate(names)}
    graph = Graph(len(names), [(local[u], local[v]) for u, v in edges])
    return graph, src, dst, p0, pr, names


def _spr_body(n: int, m: int, runs: dict[str, str]):
    """(graph, src, dst, p0, pr, names) of a body in runs, for
    ``build_spr_instance``, or None on a fault or on an id past the count of
    ids named; the graph keeps the text's ids, so ``names`` is None."""
    edges = _pairs(runs["e"])
    named = [runs[tag] for tag in ("src", "dst", "p0", "pr")]
    if n < 0 or edges is None or len(edges[0]) != m or any(run.count("\n") != 1 for run in named):
        return None
    try:
        us, vs, (src,), (dst,), p0, pr = (
            list(map(int, column)) for column in (*edges, *(run.split()[1:] for run in named))
        )
    except ValueError:  # a token not an integer, or a 'src' or 'dst' line not of one id
        return None
    if not _in_range(us + vs, n):
        return None
    # ids below the count of ids named let the body, not the header, size
    # the graph; the few vertices no line names are pruned as isolated
    ids = [*us, *vs, *(v for v in (src, dst, *p0, *pr) if 0 <= v < n)]
    size = 1 + max(ids, default=-1)
    if size > min(len(ids), MAX_GRAPH_VERTICES):
        return None
    try:
        graph = Graph(size, zip(us, vs))
    except ValueError:  # a self-loop or a repeated edge
        return None
    return graph, src, dst, p0, pr, None


def parse_spr(text: str) -> SprInstance:
    head, runs = _runs(text, ("e", "src", "dst", "p0", "pr"))
    n, m = _header(head, "spr", 2)
    body = (runs and _spr_body(n, m, runs)) or _spr_rows(_rows(text)[1:], n, m)
    try:
        return build_spr_instance(*body)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_spr(inst: SprInstance, comment: str | None = None) -> str:
    g = inst.graph
    return _text(comment, [
        f"p spr {g.n} {g.m}", *_edge_lines(g), f"src {inst.s}", f"dst {inst.t}",
        "p0 " + " ".join(map(str, inst.p0)), "pr " + " ".join(map(str, inst.pr)),
    ])


def parse_decomposition(text: str) -> PathDecomposition:
    bags = _tagged(text, "b <vertices...>", "bag")
    return PathDecomposition(tuple(map(frozenset, bags)))


def format_decomposition(pd: PathDecomposition, comment: str | None = None) -> str:
    return _text(comment, ("b " + " ".join(map(str, sorted(bag))) for bag in pd.bags))


def parse_colormap(text: str) -> dict[int, tuple[int, int]]:
    pair_of = {}
    for c, layer, idx in _tagged(text, "c <color> <layer> <index>", "colormap"):
        if c in pair_of:
            raise ParseError(f"color {c} mapped twice")
        pair_of[c] = (layer, idx)
    return pair_of


def format_colormap(red: ReducedInstance, comment: str | None = None) -> str:
    pairs = sorted(red.pair_of.items())
    return _text(comment, (f"c {c} {layer} {idx}" for c, (layer, idx) in pairs))


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
    # n weights on distinct vertices cover 0..n-1 exactly when all are in range
    stray = [v for v in weights if not 0 <= v < len(weights)]
    if stray:
        n = len(weights)
        raise ParseError(f"weight for vertex {stray[0]} out of range: {n} weights name 0..{n - 1}")
    return ThresholdWitness(tuple(weights[v] for v in range(len(weights))), bound)


def format_threshold_witness(w: ThresholdWitness, comment: str | None = None) -> str:
    weights = (f"w {v} {weight}" for v, weight in enumerate(w.weights))
    return _text(comment, [f"thr {w.bound}", *weights])
