from __future__ import annotations

import collections
import dataclasses
import itertools
import random
import re
import time
import tracemalloc
from typing import Sequence

import pytest

import lcr.fileio
from lcr import Graph, make_instance
from lcr.errors import Disconnected, LcrError, ParseError
from lcr.fileio import (
    MAX_GRAPH_VERTICES,
    format_colormap,
    format_decomposition,
    format_graph,
    format_lcr,
    format_sequence,
    format_spr,
    format_threshold_witness,
    parse_colormap,
    parse_decomposition,
    parse_graph,
    parse_lcr,
    parse_sequence,
    parse_spr,
    parse_threshold_witness,
)
from lcr.generators import gen_caterpillar
from lcr.graph import PathDecomposition
from lcr.reduction import ThresholdWitness, compile_spr, to_threshold
from lcr.rerouting import build_spr_instance

from .helpers import (
    gen_random_instance,
    row_parse_graph,
    row_parse_lcr,
    row_parse_spr,
    spr_samples,
)


# -- graphs -------------------------------------------------------------------


def test_graph_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    assert parse_graph(format_graph(g)) == g


def test_graph_formatting_is_stable():
    g = Graph(5, [(2, 4), (0, 1), (1, 2)])
    text = format_graph(g)
    assert text == format_graph(parse_graph(text))
    assert text.splitlines()[0] == "p graph 5 3"


def test_graph_comments_and_blank_lines_are_skipped():
    text = "# a remark\n\np graph 2 1  # trailing\ne 0 1\n\n# done\n"
    assert parse_graph(text) == Graph(2, [(0, 1)])


def test_empty_graph_round_trip():
    assert parse_graph(format_graph(Graph(0))) == Graph(0)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "e 0 1\n",
        "p widget 2 1\ne 0 1\n",
        "p graph 2\ne 0 1\n",
        "p graph 2 1\ne 0 x\n",
        "p graph 2 1\ne 0 5\n",
        "p graph 2 1\ne 1 1\n",
        "p graph 3 2\ne 0 1\ne 1 0\n",
        "p graph 2 2\ne 0 1\n",
        "p graph 2 1\ne 0 1\nq extra\n",
        "p graph -1 0\n",
    ],
)
def test_graph_parse_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_graph_header_past_the_vertex_limit_fails_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_graph("p graph 1000000000000 0\n")
    assert time.perf_counter() - start < 0.01
    assert str(info.value) == (
        f"header promises 1000000000000 vertices, above the limit of {MAX_GRAPH_VERTICES}"
    )


def test_graph_vertex_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(lcr.fileio, "MAX_GRAPH_VERTICES", 10)
    assert parse_graph("p graph 10 1\ne 0 9\n") == Graph(10, [(0, 9)])
    with pytest.raises(ParseError, match="above the limit of 10"):
        parse_graph("p graph 11 1\ne 0 9\n")


def _far_dst(dst: int) -> str:
    return f"p spr 1000000000000 0\nsrc 0\ndst {dst}\np0 0\npr 0\n"


def test_rerouting_vertex_limit_counts_named_ids(monkeypatch):
    monkeypatch.setattr(lcr.fileio, "MAX_GRAPH_VERTICES", 10)
    with pytest.raises(Disconnected):
        parse_spr(_far_dst(9))
    with pytest.raises(ParseError, match="vertex id 10 is out of range: ids must be below 10"):
        parse_spr(_far_dst(10))
    assert _outcome(parse_spr, _far_dst(10)) == _outcome(row_parse_spr, _far_dst(10))
    # an edge fault is reported first, as in the row reference
    for edges, fault in (("2\ne 0 1\ne 1 0\n", "duplicate edge"), ("1\ne 3 3\n", "self-loop")):
        text = _far_dst(10).replace("0\n", edges, 1)
        with pytest.raises(ParseError, match=fault):
            parse_spr(text)
        assert _outcome(parse_spr, text) == _outcome(row_parse_spr, text)


def test_rerouting_id_past_the_vertex_limit_fails_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="vertex id 1000000 is out of range"):
        parse_spr(_far_dst(1_000_000))
    assert time.perf_counter() - start < 0.01


# -- instances -----------------------------------------------------------------


def test_lcr_round_trip_on_a_fixed_instance():
    inst = make_instance(
        Graph(3, [(0, 1), (1, 2)]),
        [{0, 1}, {1, 2}, {0, 2}],
        (0, 1, 2),
        (1, 2, 0),
    )
    assert parse_lcr(format_lcr(inst)) == inst


def test_lcr_round_trip_on_generated_instances():
    for seed in range(25):
        inst = gen_random_instance(6, edge_prob=0.4, colors=4, seed=seed)
        assert parse_lcr(format_lcr(inst)) == inst
    for seed in range(25):
        inst = gen_caterpillar(3, leaf_prob=0.6, colors=4, seed=seed)
        assert parse_lcr(format_lcr(inst)) == inst


@pytest.mark.parametrize(
    "text",
    [
        "p lcr 1 0 2\nl 0 0 1\ns 0 0\n",
        "p lcr 1 0 2\nl 0 0 1\nt 0 1\n",
        "p lcr 1 0 2\ns 0 0\nt 0 1\n",
        "p lcr 1 0 2\nl 0 0 2\ns 0 0\nt 0 0\n",
        "p lcr 1 0 2\nl 0 0 0\ns 0 0\nt 0 0\n",
        "p lcr 1 0 2\nl 0\ns 0 0\nt 0 0\n",
        "p lcr 1 0 2\nl 0 0 1\nl 0 0 1\ns 0 0\nt 0 1\n",
        "p lcr 1 0 2\nl 0 0 1\ns 0 0\ns 0 1\nt 0 1\n",
        "p lcr 1 0 2\nl 0 0 1\ns 0 9\nt 0 1\n",
        "p lcr 1 0 2\nl 0 0 1\ns 5 0\nt 0 1\n",
        "p lcr 2 1 2\ne 0 1\nl 0 0 1\nl 1 0 1\ns 0 0\ns 1 1\nt 0 1\n",
        "p lcr 1 0 2\nl 0 0 1\ns 0 0\nt 0 1\nz 1\n",
        "p lcr -1 0 2\n",
        "p lcr 1 -1 2\nl 0 0 1\ns 0 0\nt 0 1\n",
        "p lcr 1 0 -2\nl 0 0 1\ns 0 0\nt 0 1\n",
        "p lcr 2 0 2\nl 0 0 1\ns 0 0\ns 1 0\nt 0 1\nt 1 1\n",
        # a header sized far past its body must fail before any per-vertex work
        "p lcr 1000000000000 0 1\nl 0 0\ns 0 0\nt 0 0\n",
        "p lcr 100000000 0 2\nl 0 1\n",
    ],
)
def test_lcr_parse_errors(text):
    # nothing is sized by the header's n before the body has bounded it; an
    # allocation clamped to a limit would still end in the ParseError, so
    # only its memory shows it
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            parse_lcr(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- step sequences ---------------------------------------------------------------


def test_sequence_round_trip():
    steps = [(0, 3), (2, 1), (0, 2)]
    assert parse_sequence(format_sequence(steps)) == steps


def test_empty_sequence_formats_to_nothing():
    assert format_sequence([]) == ""
    assert parse_sequence("") == []


def test_sequence_comment_header():
    text = format_sequence([(1, 2)], comment="m steps")
    assert text.startswith("# m steps\n")
    assert parse_sequence(text) == [(1, 2)]


@pytest.mark.parametrize("text", ["x 0 1\n", "r 0\n", "r 0 1 2\n", "r a b\n"])
def test_sequence_parse_errors(text):
    with pytest.raises(ParseError):
        parse_sequence(text)


# -- rerouting instances -------------------------------------------------------------


def test_spr_round_trip():
    for inst in spr_samples(20, base_seed=5101):
        back = parse_spr(format_spr(inst))
        assert back.graph == inst.graph
        assert (back.s, back.t) == (inst.s, inst.t)
        assert (back.p0, back.pr) == (inst.p0, inst.pr)
        assert back.layers == inst.layers
        assert back.d == inst.d


@pytest.mark.parametrize(
    "text",
    [
        "p spr 2 1\ne 0 1\ndst 1\np0 0 1\npr 0 1\n",
        "p spr 2 1\ne 0 1\nsrc 0\np0 0 1\npr 0 1\n",
        "p spr 2 1\ne 0 1\nsrc 0\ndst 1\npr 0 1\n",
        "p spr 2 1\ne 0 1\nsrc 0\ndst 1\np0 0 1\n",
        "p spr 2 1\ne 0 1\nsrc 0\nsrc 1\ndst 1\np0 0 1\npr 0 1\n",
        "p spr 2 1\ne 0 1\nsrc 0\ndst 1\np0 0 1\npr 0 1\nq\n",
        "p spr 3 2\ne 0 1\ne 1 2\nsrc 0\ndst 2\np0 0 2\npr 0 1 2\n",
    ],
)
def test_spr_parse_errors(text):
    with pytest.raises(ParseError):
        parse_spr(text)


def test_spr_graph_is_sized_by_the_named_vertices():
    body = "e 0 1\ne 1 2\ne 2 4\ne 1 3\ne 3 4\nsrc 0\ndst 4\np0 0 1 2 4\npr 0 1 3 4\n"
    tight = parse_spr("p spr 5 5\n" + body)
    start = time.perf_counter()
    loose = parse_spr("p spr 1000000000000 5\n" + body)
    assert time.perf_counter() - start < 0.1
    assert loose == tight
    assert loose.graph.n == 5 and loose.d == 3
    # ids spread a thousand apart give the same graph, under the text's ids
    spread = re.sub(r"\d+", lambda v: str(1000 * int(v.group())), body)
    sparse = parse_spr("p spr 4001 5\n" + spread)
    assert sparse == dataclasses.replace(tight, id_map={1000 * v: i for v, i in tight.id_map.items()})
    assert sparse == row_parse_spr("p spr 4001 5\n" + spread)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p spr -1 0\nsrc 0\ndst 0\np0 0\npr 0\n", "vertex count must be non-negative"),
        ("p spr 9 1\ne 0 1\nsrc 0\ndst 9\np0 0 9\npr 0 9\n", "endpoint out of range"),
        ("p spr 9 1\ne 0 1\nsrc -1\ndst 1\np0 0 1\npr 0 1\n", "endpoint out of range"),
        ("p spr 9 1\ne 0 1\nsrc 0\ndst 1\np0 0 1\npr 0 12\n",
         "path vertex 12 is on no shortest path"),
        ("p spr 9 1\ne 0 1\nsrc 0\ndst 1\np0 0 1\npr 0 5\n",
         "path vertex 5 is on no shortest path"),
        ("p spr 9 1\ne 0 1\nsrc 0\ndst 1\np0 0 1\npr 0 -3\n",
         "path vertex -3 is on no shortest path"),
        ("p spr 1000000000000 1\ne 0 1\nsrc 0\ndst 1\np0 0 1\npr 1 0\n",
         "pr is not a shortest s-t path"),
        ("p spr 99 2\ne 0 10\ne 10 20\nsrc 0\ndst 20\np0 0 10 20\npr 0 15 20\n",
         "path vertex 15 is on no shortest path"),
        ("p spr 99 1\ne 10 20\nsrc 10\ndst 20\np0 10 20\npr 10 99\n",
         "path vertex 99 is on no shortest path"),
        ("p spr 99 1\ne 10 20\nsrc 10\ndst 99\np0 10 20\npr 10 20\n",
         "endpoint out of range"),
    ],
)
def test_spr_named_vertices_are_checked_against_the_header(text, message):
    with pytest.raises(ParseError) as info:
        parse_spr(text)
    assert str(info.value) == message


def test_spr_with_separated_endpoints_reports_disconnection():
    from lcr.errors import Disconnected

    with pytest.raises(Disconnected):
        parse_spr("p spr 2 0\nsrc 0\ndst 1\np0 0 1\npr 0 1\n")


# -- certificates -----------------------------------------------------------------


def test_decomposition_round_trip():
    pd = PathDecomposition((frozenset({0, 1, 2}), frozenset({0, 1})))
    assert parse_decomposition(format_decomposition(pd)) == pd
    assert format_decomposition(PathDecomposition(())) == ""


def test_decomposition_parse_error():
    with pytest.raises(ParseError):
        parse_decomposition("bag 0 1\n")


def test_colormap_round_trip():
    spr = spr_samples(1, base_seed=5201)[0]
    red = compile_spr(spr)
    assert parse_colormap(format_colormap(red)) == red.pair_of


def test_colormap_parse_errors():
    with pytest.raises(ParseError):
        parse_colormap("c 0 1\n")
    with pytest.raises(ParseError):
        parse_colormap("c 0 1 0\nc 0 2 0\n")


def test_threshold_witness_round_trip():
    spr = spr_samples(1, base_seed=5301)[0]
    _, wit = to_threshold(compile_spr(spr))
    assert parse_threshold_witness(format_threshold_witness(wit)) == wit
    fixed = ThresholdWitness((1, 0, 1), 1)
    assert parse_threshold_witness(format_threshold_witness(fixed)) == fixed


@pytest.mark.parametrize(
    "text",
    [
        "w 0 1\n",
        "thr 1\nthr 1\nw 0 1\n",
        "thr 1\nw 0 1\nw 0 0\n",
        "thr 1\nw 1 1\n",
        "thr 1\nw 0 1\nz\n",
    ],
)
def test_threshold_witness_parse_errors(text):
    with pytest.raises(ParseError):
        parse_threshold_witness(text)


def test_threshold_witness_names_the_stray_vertex():
    # three weights on 0, 1 and -1: vertex 2 lacks one because -1 took it
    with pytest.raises(ParseError, match=r"vertex -1 out of range: 3 weights name 0\.\.2"):
        parse_threshold_witness("thr 1\nw 0 1\nw 1 1\nw -1 1\n")


# -- parse . format is the identity, on seeded values --------------------------------

COMMENTS = (None, "", "a remark", "n = 5, # inside a comment", "p lcr 9 9 9")


def _random_graph(rng: random.Random) -> Graph:
    """Often empty, a single vertex, or sparse enough to leave vertices isolated."""
    n = rng.choice([0, 1, 2, rng.randrange(3, 40)])
    density = rng.choice([0.0, 0.1, 0.5])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if rng.random() < density])


def _random_lcr(rng: random.Random):
    g = _random_graph(rng)
    k = rng.choice([1, 3, 60])  # up to 60-colour lists
    lists = [rng.sample(range(k), rng.randint(1, k)) for _ in range(g.n)]
    return make_instance(
        g, lists, [rng.choice(lst) for lst in lists], [rng.choice(lst) for lst in lists]
    )


def _round_trip_values(kind: str, rng: random.Random) -> list:
    if kind == "graph":
        return [_random_graph(rng) for _ in range(40)]
    if kind == "lcr":
        return [_random_lcr(rng) for _ in range(40)]
    if kind == "sequence":
        return [
            [(rng.randrange(100), rng.randrange(100)) for _ in range(rng.choice([0, 1, 300]))]
            for _ in range(20)
        ]
    if kind == "spr":
        single = build_spr_instance(Graph(1), 0, 0, [0], [0])
        return [single] + spr_samples(15, base_seed=rng.randrange(10**6))
    if kind == "decomposition":
        return [
            PathDecomposition(tuple(
                frozenset(rng.sample(range(50), rng.choice([0, 1, 3, 50])))
                for _ in range(rng.choice([0, 1, 8]))
            ))
            for _ in range(20)
        ]
    if kind == "colormap":
        reds = [compile_spr(spr) for spr in spr_samples(5, base_seed=rng.randrange(10**6))]
        return reds + [
            dataclasses.replace(reds[0], pair_of={
                c: (rng.randrange(20), rng.randrange(5)) for c in rng.sample(range(500), size)
            })
            for size in (0, 1, 200)
        ]
    return [
        ThresholdWitness(
            tuple(rng.randint(-50, 50) for _ in range(rng.choice([0, 1, 30]))),
            rng.randint(-100, 100),
        )
        for _ in range(20)
    ]


ROUND_TRIPS = {
    "graph": (format_graph, parse_graph, lambda g: g),
    "lcr": (format_lcr, parse_lcr, lambda inst: inst),
    "sequence": (format_sequence, parse_sequence, lambda steps: steps),
    "spr": (format_spr, parse_spr, lambda inst: inst),
    "decomposition": (format_decomposition, parse_decomposition, lambda pd: pd),
    "colormap": (format_colormap, parse_colormap, lambda red: red.pair_of),
    "threshold": (format_threshold_witness, parse_threshold_witness, lambda w: w),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
def test_every_format_round_trips(kind):
    fmt, parse, parsed_form = ROUND_TRIPS[kind]
    rng = random.Random(kind)
    for value in _round_trip_values(kind, rng):
        comment = rng.choice(COMMENTS)
        text = fmt(value, comment=comment)
        assert parse(text) == parsed_form(value), (kind, text)
        if comment:
            assert text.startswith(f"# {comment}\n")


# -- the block readers against the row-by-row reference ------------------------------

BIG = "9" * 5000  # past int()'s digit limit on current Pythons
ODD_TOKENS = ("x", "1.5", "0x1", "-1", "-3", "1_0", "+1", BIG, "0", "1", "2", "7", "99")
ODD_TAGS = ("ex", "l0", "s", "e", "l", "t", "E", "p", "src", "dst", "p0", "pr", "q")


def _mutate(lines: list[str], rng: random.Random) -> None:
    """Apply one seeded line or token mutation to ``lines`` in place."""
    if not lines:
        lines.append(rng.choice(["", "p", "# only a comment"]))
        return
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    op = rng.randrange(15)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op in (3, 4) and tokens:
        # a non-integer, negative, out-of-range, odd or huge token, or one
        # copied from the same line
        j = rng.randrange(len(tokens))
        tokens[j] = rng.choice(ODD_TOKENS + (rng.choice(tokens),))
        lines[i] = " ".join(tokens)
    elif op == 5:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(ODD_TOKENS[:-4] + ("3",)))
        lines[i] = " ".join(tokens)
    elif op == 6 and tokens:
        del tokens[rng.randrange(len(tokens))]
        lines[i] = " ".join(tokens)
    elif op == 7 and tokens:
        lines[i] = " ".join(tokens[:rng.randrange(1, len(tokens) + 1)])
    elif op == 8:
        cut = rng.randrange(len(lines[i]) + 1)
        lines[i] = rng.choice([
            lines[i] + " # note",
            lines[i][:cut] + "#" + lines[i][cut:],
            "#" + lines[i],
        ])
        if rng.random() < 0.3:
            lines.insert(i, "# a comment line")
    elif op == 9:
        lines.insert(i, rng.choice(["", "   ", "\t", " # indented comment"]))
    elif op == 10:
        lines[i] = rng.choice([" ", "\t", "  \t", "\x0b"]) + lines[i]
    elif op == 11 and " " in lines[i]:
        lines[i] = lines[i].replace(" ", rng.choice(["\t", " \t ", "\xa0", "\x0c"]), 1)
    elif op == 12 and tokens:
        tokens[0] = rng.choice(ODD_TAGS)
        lines[i] = " ".join(tokens)
    elif op == 13:
        head = lines[0].split()
        if len(head) > 2 and head[2].lstrip("-").isdigit():
            # far past the body, or below zero; the graph header stays
            # small, since a bare graph may have isolated vertices
            far = int(head[2]) + rng.choice([1, 1000])
            if head[1] != "graph" and rng.random() < 0.5:
                far = 10**12
            head[2] = str(rng.choice([far, far, -1]))
            lines[0] = " ".join(head)
    else:
        lines[i] = lines[i] + rng.choice(["", " ", "\t", "\x0c", "\r"])


def _outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except LcrError as exc:
        return type(exc).__name__, str(exc)


def _family(message: str) -> str:
    """A message with its echoed line and its numbers blanked out."""
    return re.sub(r"(?<!\w)-?\d+", "N", message.split(":", 1)[0])


EDGE_FAMILIES = {
    "edge line needs two endpoints",
    "bad integer in edge line",
    "edge endpoint out of range",
    "self-loop at N",
    "duplicate edge (N, N)",
    "header promises N edges, found N",
}


def _header_families(kind: str, fields: int) -> set[str]:
    return {
        f"missing 'p {kind}' header",
        f"expected 'p {kind}' header with N fields",
        "bad integer in header line",
    }


FAMILIES = {
    "graph": _header_families("graph", 2) | EDGE_FAMILIES | {
        "negative counts in header",
        "unexpected line",
    },
    "lcr": _header_families("lcr", 3) | EDGE_FAMILIES | {
        "negative counts in header",
        "header promises N vertices, found N 'l' lines",
        "bad integer in list line",
        "list line needs a vertex",
        "list vertex N out of range",
        "vertex N has two list lines",
        "empty color list for vertex N",
        "color outside N..N for vertex N",
        "repeated color in list of vertex N",
        "bad integer in s line",
        "bad integer in t line",
        "'s' line needs vertex and color",
        "'t' line needs vertex and color",
        "'s' vertex N out of range",
        "'t' vertex N out of range",
        "vertex N has two 's' lines",
        "vertex N has two 't' lines",
        "unexpected line",
        # no "missing 'l' line": once n fits the 'l' line count, a body whose
        # list lines name distinct vertices in range names them all
        "missing 's' line for vertex N",
        "missing 't' line for vertex N",
    },
    "spr": _header_families("spr", 2) | EDGE_FAMILIES | {
        "need exactly one 'src <vertex>' line",
        "need exactly one 'dst <vertex>' line",
        "need exactly one 'p0' line",
        "need exactly one 'pr' line",
        "bad integer in src line",
        "bad integer in p0 line",
        "unexpected line",
        "missing 'src' line",
        "missing 'dst' line",
        "missing 'p0' line",
        "missing 'pr' line",
        "vertex count must be non-negative",
        "endpoint out of range",
        "path vertex N is on no shortest path",
        "p0 is not a shortest s-t path",
        "pr is not a shortest s-t path",
    },
}


def _base_texts() -> dict[str, list[str]]:
    lcr_texts = [format_lcr(gen_caterpillar(s % 4 + 2, colors=4, seed=s)) for s in range(4)]
    lcr_texts += [
        format_lcr(gen_random_instance(5, edge_prob=0.5, colors=3, seed=s)) for s in range(3)
    ]
    # kinds interleaved, and a list given in descending order
    mixed = lcr_texts[0].splitlines()
    shuffled = random.Random(5).sample(mixed[1:], len(mixed) - 1)
    lcr_texts.append("\n".join([mixed[0]] + shuffled))
    lcr_texts.append("p lcr 2 1 3\nl 1 2 0\ne 1 0\nt 1 0\ns 1 2\nl 0 1 2\ns 0 1\nt 0 2\n")
    lcr_texts += ["p lcr 0 0 0\n", "p lcr 1 0 2\nl 0 0 1\ns 0 0\nt 0 1\n"]
    spr_texts = [format_spr(inst) for inst in spr_samples(6, base_seed=5401)]
    spr_texts += ["p spr 1 0\nsrc 0\ndst 0\np0 0\npr 0\n"]
    graph_texts = [
        format_graph(g) for g in (
            Graph(0), Graph(1), Graph(4, [(0, 1)]), Graph(6, [(0, 1), (1, 2), (2, 5), (0, 5)]),
            Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
        )
    ]
    return {"lcr": lcr_texts, "spr": spr_texts, "graph": graph_texts}


def _mutated(base: str, seeds: Sequence[int]) -> str:
    lines = base.splitlines()
    for seed in seeds:
        _mutate(lines, random.Random(seed))
    return random.Random(seeds[0]).choice(["\n", "\n", "\r\n"]).join(lines) + "\n"


def test_parse_spr_builds_one_graph_per_pruned_text(monkeypatch):
    texts = [format_spr(spr) for spr in spr_samples(30, base_seed=880)]
    builds = 0
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    for text in texts:
        parse_spr(text)
    assert builds == len(texts)


def test_parsers_match_the_row_reference():
    """Every mutated text gives the reference's value or its exact error.

    Each sample mutates a base text by A, by B and by A then B.  When A and
    B alone fail with different messages and A-then-B fails with one of
    them, that text holds two faults and pins which one is reported.
    """
    parsers = {
        "lcr": (parse_lcr, row_parse_lcr),
        "spr": (parse_spr, row_parse_spr),
        "graph": (parse_graph, row_parse_graph),
    }
    rng = random.Random(7)
    for kind, bases in _base_texts().items():
        parse, reference = parsers[kind]
        reached, parsed, two_faults = set(), 0, 0
        for sample in range(400):
            base = bases[sample % len(bases)]
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            results = []
            for seeds in ((a,), (b,), (a, b), (a, b, a + 1)):
                text = _mutated(base, seeds)
                want = _outcome(reference, text)
                assert _outcome(parse, text) == want, (kind, text)
                results.append(want)
                if want[0] == "ok":
                    parsed += 1
                elif want[0] == "ParseError":
                    reached.add(_family(want[1]))
            only_a, only_b, both = results[:3]
            failed = "ok" not in (only_a[0], only_b[0])
            if failed and only_a != only_b and both in (only_a, only_b):
                two_faults += 1
        assert FAMILIES[kind] <= reached, (kind, FAMILIES[kind] - reached)
        assert parsed >= 100, (kind, parsed)
        assert two_faults >= 50, (kind, two_faults)


def test_the_row_readers_alone_match_the_row_reference(monkeypatch):
    """With both block readers declining every text, the row readers give
    each text of the mutated corpus above the reference's value or its
    exact error: valid texts of any shape parse, not only faulty ones."""
    monkeypatch.setattr(lcr.fileio, "_lcr_body", lambda *args: None)
    monkeypatch.setattr(lcr.fileio, "_spr_body", lambda *args: None)
    parsers = {
        "lcr": (parse_lcr, row_parse_lcr),
        "spr": (parse_spr, row_parse_spr),
        "graph": (parse_graph, row_parse_graph),
    }
    rng = random.Random(7)
    for kind, bases in _base_texts().items():
        parse, reference = parsers[kind]
        parsed = 0
        for sample in range(400):
            base = bases[sample % len(bases)]
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            for seeds in ((a,), (b,), (a, b), (a, b, a + 1)):
                text = _mutated(base, seeds)
                want = _outcome(reference, text)
                assert _outcome(parse, text) == want, (kind, text)
                parsed += want[0] == "ok"
        assert parsed >= 100, (kind, parsed)


# -- the block reader: the shapes it reads, the faults it declines, its header bound -

def _header_and_runs(text: str) -> tuple[str, list[list[str]]]:
    """The header line of a written text and its body lines, in runs by tag."""
    head, *body = text.splitlines()
    return head, [list(run) for _, run in itertools.groupby(body, lambda line: line.split()[0])]


def _joined(head: str, runs: list[list[str]], end: str) -> str:
    return end.join([head, *(line for run in runs for line in run)]) + end


def _written_shapes(text: str, rng: random.Random) -> list[str]:
    """``text`` with its runs as written and shuffled, each with and without
    a comment line before the header, with ``\\n`` and ``\\r\\n`` line ends."""
    head, runs = _header_and_runs(text)
    shapes = []
    for order in (runs, rng.sample(runs, len(runs))):
        for end in ("\n", "\r\n"):
            body = _joined(head, order, end)
            shapes += [body, f"# a remark{end}" + body]
    return shapes


def test_the_block_reader_reads_every_written_shape(monkeypatch):
    """No text in a shape the writers produce reaches the row readers, where
    it would parse to the same value and show only as a slowdown."""

    def refuse(*args):
        raise AssertionError("a written text reached the row reader")

    monkeypatch.setattr(lcr.fileio, "_lcr_rows", refuse)
    monkeypatch.setattr(lcr.fileio, "_spr_rows", refuse)
    rng = random.Random(2701)
    instances = [
        make_instance(Graph(0), [], [], []),  # n = 0 and m = 0
        make_instance(Graph(3), [[0], [0, 1], [1, 2]], [0, 1, 2], [0, 0, 1]),  # m = 0
        *(gen_caterpillar(seed % 5 + 1, colors=6, seed=seed) for seed in range(2701, 2711)),
        *(gen_random_instance(8, edge_prob=0.4, colors=5, seed=seed) for seed in range(2701, 2711)),
    ]
    reroutings = [build_spr_instance(Graph(1), 0, 0, [0], [0]), *spr_samples(12, base_seed=2701)]
    for parse, fmt, values in (
        (parse_lcr, format_lcr, instances), (parse_spr, format_spr, reroutings)
    ):
        for value in values:
            for text in _written_shapes(fmt(value), rng):
                assert parse(text) == value, text


FAULT_LINES = ("", "   ", "\t", "# a note", "  # a note")
OTHER_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _block_fault(text: str, kind: int, rng: random.Random) -> str:
    """``text`` with one fault of the block shape, of the given kind:
    0 two tags on one line, 1 a line of one tag inside another tag's run,
    2 a run split in two, 3 a blank or comment line inside a run,
    4 a header with no body, 5 a line cut in two by a line break other
    than ``\\n``."""
    head, runs = _header_and_runs(text)
    lines = [line for run in runs for line in run]
    if kind == 0 and len(lines) > 1:
        i = rng.randrange(len(lines) - 1)
        j = rng.choice([i + 1, rng.randrange(i + 1, len(lines))])
        lines[i] += " " + lines.pop(j)
        runs = [lines]
    elif kind == 1 and any(len(run) > 1 for run in runs) and len(runs) > 1:
        into = rng.choice([run for run in runs if len(run) > 1])
        source = rng.choice([run for run in runs if run is not into])
        into.insert(rng.randrange(1, len(into)), source.pop(rng.randrange(len(source))))
    elif kind == 2 and any(len(run) > 1 for run in runs):
        run = rng.choice([run for run in runs if len(run) > 1])
        cut = rng.randrange(1, len(run))
        tail, run[cut:] = run[cut:], []
        runs.insert(rng.randrange(runs.index(run) + 1, len(runs) + 1), tail)
    elif kind == 3 and lines:
        run = rng.choice(runs)
        run.insert(rng.randrange(len(run) + 1), rng.choice(FAULT_LINES))
    elif kind == 4:
        runs = []
    elif kind == 5 and lines:
        run = rng.choice(runs)
        i = rng.randrange(len(run))
        j = rng.choice([j for j, char in enumerate(run[i]) if char == " "])
        run[i] = run[i][:j] + rng.choice(OTHER_BREAKS) + run[i][j + 1:]
    return _joined(head, runs, rng.choice(["\n", "\r\n"]))


def test_block_faults_match_the_row_reference():
    """Faults and shapes the block reader must decline give the reference's
    value or its exact error: the row reader reads them in its place."""
    rng = random.Random(2702)
    bases = {
        "lcr": [format_lcr(gen_caterpillar(s % 4 + 2, colors=4, seed=s)) for s in range(2702, 2708)]
        + [format_lcr(gen_random_instance(5, edge_prob=0.5, colors=3, seed=s)) for s in (2702, 2703)]
        + ["p lcr 0 0 0\n", "p lcr 1 0 2\nl 0 0 1\ns 0 0\nt 0 1\n"],
        "spr": [format_spr(inst) for inst in spr_samples(8, base_seed=2702)],
    }
    parsers = {"lcr": (parse_lcr, row_parse_lcr), "spr": (parse_spr, row_parse_spr)}
    for kind, texts in bases.items():
        parse, reference = parsers[kind]
        outcomes: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
        for sample in range(360):
            fault, base = sample % 6, texts[sample // 6 % len(texts)]
            text = _block_fault(base, fault, rng)
            want = _outcome(reference, text)
            assert _outcome(parse, text) == want, (kind, fault, text)
            if text.replace("\r\n", "\n") != base:  # a body too short for the fault is kept
                outcomes[fault][want[0] == "ok"] += 1
        # two tags on one line and a missing body are faults; a moved line,
        # a split run and a blank or comment line are not
        assert outcomes[0][True] == outcomes[4][True] == 0, (kind, outcomes)
        assert min(outcomes[fault][True] for fault in (1, 2, 3)) >= 20, (kind, outcomes)

