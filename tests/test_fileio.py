from __future__ import annotations

import time

import pytest

from lcr import Graph, make_instance
from lcr.errors import GenerationFailed, ParseError
from lcr.fileio import (
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
from lcr.generators import gen_caterpillar, gen_layered_spr, gen_random_instance
from lcr.graph import PathDecomposition
from lcr.reduction import ThresholdWitness, compile_spr, to_threshold


def spr_samples(count, base_seed):
    out = []
    seed = base_seed
    while len(out) < count:
        try:
            out.append(gen_layered_spr(2 + seed % 4, max_width=3, density=0.5, seed=seed))
        except GenerationFailed:
            pass
        seed += 1
    return out


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
    ],
)
def test_lcr_parse_errors(text):
    with pytest.raises(ParseError):
        parse_lcr(text)


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
