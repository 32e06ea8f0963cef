from __future__ import annotations

import random
from collections import Counter

import pytest

from lcr import Graph, is_valid_sequence, oracle_decide
from lcr.errors import DegenerateDistance, ImproperColoring, InvalidRerouting, InvalidSequence
from lcr.graph import check_path_decomposition, is_bipartite, is_partial_two_tree
from lcr.instance import is_proper_list_coloring
from lcr.reduction import (
    ForbiddenVertex,
    ThresholdWitness,
    coloring_to_spath,
    compile_spr,
    emit_path_decomposition,
    recoloring_to_spath_sequence,
    spath_sequence_to_recoloring,
    to_threshold,
)
from lcr.rerouting import brute_solve, build_spr_instance, is_s_path

from .helpers import (
    all_colorings,
    layered_corpus,
    pairwise_threshold_verify,
    side_table_endpoint,
    side_table_spath_sequence_to_recoloring,
    union_to_threshold,
)


def diamond_spr():
    """d=2: two middle choices, no forbidden vertices possible."""
    g = Graph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
    return build_spr_instance(g, 0, 2, (0, 1, 2), (0, 3, 2))


def one_gap_spr():
    """d=3, complete between consecutive layers except one missing edge."""
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)])
    return build_spr_instance(g, 0, 5, (0, 1, 3, 5), (0, 2, 4, 5))


# -- compilation ----------------------------------------------------------------


def test_two_hop_instances_compile_to_one_free_vertex():
    red = compile_spr(diamond_spr())
    assert red.lcr.graph.n == 1 and red.lcr.graph.m == 0
    assert red.lcr.lists == (frozenset({0, 1}),)
    assert red.lcr.f0 == (0,) and red.lcr.fr == (1,)
    assert red.spr.d - 1 == 1  # one layer vertex, id 0
    assert red.forbidden == ()
    assert red.pair_of == {0: (1, 0), 1: (1, 1)}


def test_one_missing_edge_compiles_to_one_forbidden_vertex():
    red = compile_spr(one_gap_spr())
    assert red.lcr.graph.n == 3
    assert sorted(red.lcr.graph.edges) == [(0, 2), (1, 2)]
    assert red.lcr.lists == (
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({0, 3}),
    )
    assert red.lcr.f0 == (0, 2, 3)
    assert red.lcr.fr == (1, 3, 0)
    assert red.forbidden == (ForbiddenVertex(vertex=2, layer=1, x=0, y=1),)
    assert red.pair_of == {0: (1, 0), 1: (1, 1), 2: (2, 0), 3: (2, 1)}
    assert is_proper_list_coloring(red.lcr, red.lcr.f0)
    assert is_proper_list_coloring(red.lcr, red.lcr.fr)


def test_short_distances_are_rejected():
    g = Graph(2, [(0, 1)])
    spr = build_spr_instance(g, 0, 1, (0, 1), (0, 1))
    with pytest.raises(DegenerateDistance):
        compile_spr(spr)


def test_fully_joined_layers_compile_with_no_forbidden_vertices():
    # complete bipartite between every pair of consecutive layers
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    spr = build_spr_instance(g, 0, 5, (0, 1, 3, 5), (0, 2, 4, 5))
    red = compile_spr(spr)
    assert red.forbidden == ()
    assert red.lcr.graph.m == 0
    assert oracle_decide(red.lcr)


def test_size_accounting_matches_the_layer_census():
    for spr, red in layered_corpus(40, base_seed=4101):
        gaps = 0
        for i in range(1, spr.d - 1):
            pairs = len(spr.layers[i]) * len(spr.layers[i + 1])
            present = sum(
                1
                for u in spr.layers[i]
                for v in spr.layers[i + 1]
                if spr.graph.has_edge(u, v)
            )
            gaps += pairs - present
        assert red.lcr.graph.n == (spr.d - 1) + gaps
        assert len(red.forbidden) == gaps


# -- structural certificates ---------------------------------------------------------


def test_compiled_graphs_are_bipartite_by_role():
    for spr, red in layered_corpus(40, base_seed=4201):
        layer_vertices = range(spr.d - 1)
        parts = is_bipartite(red.lcr.graph)
        assert parts is not None
        layer_side = {v for v in range(red.lcr.graph.n) if red.lcr.graph.degree(v)}
        forbidden_set = {fv.vertex for fv in red.forbidden}
        for fv in red.forbidden:
            assert fv.vertex in parts[0] or fv.vertex in parts[1]
            assert set(red.lcr.graph.neighbors(fv.vertex)) <= set(layer_vertices)
            assert red.lcr.graph.degree(fv.vertex) == 2
        assert forbidden_set.isdisjoint(layer_vertices)
        assert is_partial_two_tree(red.lcr.graph)


def test_decomposition_of_the_one_gap_instance():
    red = compile_spr(one_gap_spr())
    dec = emit_path_decomposition(red)
    assert dec.bags == (frozenset({0, 1, 2}), frozenset({0, 1}))
    assert check_path_decomposition(red.lcr.graph, dec) == (True, 2)


def test_two_hop_decomposition_is_a_single_bag():
    red = compile_spr(diamond_spr())
    dec = emit_path_decomposition(red)
    assert dec.bags == (frozenset({0}),)
    assert check_path_decomposition(red.lcr.graph, dec) == (True, 0)


def test_decompositions_validate_at_width_two_on_random_instances():
    for _, red in layered_corpus(40, base_seed=4301):
        dec = emit_path_decomposition(red)
        valid, width = check_path_decomposition(red.lcr.graph, dec)
        assert valid
        assert width <= 2


# -- threshold form ----------------------------------------------------------------


def test_threshold_form_of_the_one_gap_instance():
    red = compile_spr(one_gap_spr())
    thr, wit = to_threshold(red)
    assert sorted(thr.graph.edges) == [(0, 1), (0, 2), (1, 2)]
    assert wit.weights == (1, 1, 0) and wit.bound == 1
    assert wit.verify(thr.graph)
    assert thr.lists == red.lcr.lists
    assert thr.f0 == red.lcr.f0 and thr.fr == red.lcr.fr


def test_threshold_form_of_a_single_vertex_adds_nothing():
    red = compile_spr(diamond_spr())
    thr, wit = to_threshold(red)
    assert thr.graph == red.lcr.graph
    assert wit.verify(thr.graph)


def test_threshold_join_only_touches_list_disjoint_pairs():
    for _, red in layered_corpus(25, base_seed=4401):
        thr, wit = to_threshold(red)
        assert wit.verify(thr.graph)
        for u, v in thr.graph.edges:
            if (u, v) not in red.lcr.graph.edges:
                assert not (red.lcr.lists[u] & red.lcr.lists[v])


def test_threshold_check_matches_the_pairwise_reference():
    # half the graphs are the weights' own threshold graph, some of those
    # with one pair flipped; weights and bound may be negative
    rng = random.Random(4451)
    seen: Counter[bool] = Counter()
    for _ in range(6000):
        n = rng.randint(0, 8)
        weights = tuple(rng.randint(-3, 3) for _ in range(n))
        bound = rng.randint(-3, 4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if rng.random() < 0.5:
            edges = {(u, v) for u, v in pairs if weights[u] + weights[v] >= bound}
            if pairs and rng.random() < 0.5:
                edges ^= {rng.choice(pairs)}
        else:
            edges = {p for p in pairs if rng.random() < 0.5}
        g, witness = Graph(n, sorted(edges)), ThresholdWitness(weights, bound)
        want = pairwise_threshold_verify(witness, g)
        assert witness.verify(g) == want
        seen[want] += 1
    assert seen[True] > 1000 and seen[False] > 1000


def test_threshold_form_keeps_the_coloring_set_and_answer():
    checked = 0
    for _, red in layered_corpus(25, base_seed=4501):
        thr, _ = to_threshold(red)
        assert all_colorings(thr.graph, thr.lists) == all_colorings(
            red.lcr.graph, red.lcr.lists
        )
        assert oracle_decide(thr) == oracle_decide(red.lcr)
        checked += 1
    assert checked == 25


# -- witness translation ---------------------------------------------------------


def test_endpoint_colorings_project_to_the_endpoint_paths():
    for spr, red in layered_corpus(25, base_seed=4601):
        assert coloring_to_spath(red, red.lcr.f0) == spr.p0
        assert coloring_to_spath(red, red.lcr.fr) == spr.pr


def test_every_proper_coloring_projects_to_an_s_path():
    for spr, red in layered_corpus(15, base_seed=4701):
        for f in all_colorings(red.lcr.graph, red.lcr.lists):
            assert is_s_path(spr, coloring_to_spath(red, f))


def test_improper_colorings_do_not_project():
    red = compile_spr(one_gap_spr())
    with pytest.raises(ImproperColoring):
        coloring_to_spath(red, (0, 2, 0))


def test_rerouting_steps_translate_to_recoloring_steps():
    spr = one_gap_spr()
    red = compile_spr(spr)
    seq = brute_solve(spr)
    assert seq == [(0, 1, 3, 5), (0, 2, 3, 5), (0, 2, 4, 5)]
    steps = spath_sequence_to_recoloring(red, seq)
    assert steps == [(0, 1), (2, 0), (1, 3)]
    assert is_valid_sequence(red.lcr, steps)


def test_identity_rerouting_needs_no_recoloring():
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)])
    spr = build_spr_instance(g, 0, 5, (0, 1, 3, 5), (0, 1, 3, 5))
    red = compile_spr(spr)
    assert red.lcr.f0 == red.lcr.fr
    steps = spath_sequence_to_recoloring(red, [spr.p0])
    assert steps == []
    assert recoloring_to_spath_sequence(red, steps) == [spr.p0]


def test_bad_rerouting_sequences_are_rejected():
    spr = one_gap_spr()
    red = compile_spr(spr)
    with pytest.raises(InvalidRerouting):
        spath_sequence_to_recoloring(red, [spr.p0, spr.pr])


def test_invalid_recoloring_sequences_do_not_project():
    red = compile_spr(one_gap_spr())
    for steps in ([(0, 99)], [(red.lcr.graph.n, 0)]):
        with pytest.raises(InvalidSequence):
            recoloring_to_spath_sequence(red, steps)


def test_recoloring_round_trips_through_the_projection():
    spr = one_gap_spr()
    red = compile_spr(spr)
    seq = brute_solve(spr)
    steps = spath_sequence_to_recoloring(red, seq)
    assert recoloring_to_spath_sequence(red, steps) == seq


def test_witnesses_translate_on_random_yes_instances():
    translated = 0
    for spr, red in layered_corpus(40, base_seed=4801):
        seq = brute_solve(spr)
        if seq is None:
            continue
        steps = spath_sequence_to_recoloring(red, seq)
        assert is_valid_sequence(red.lcr, steps)
        assert recoloring_to_spath_sequence(red, steps) == seq
        translated += 1
    assert translated >= 20


def test_a_witness_is_checked_once_then_read_step_by_step(monkeypatch):
    import lcr.reduction

    calls = []

    def counted(red, f):
        calls.append(tuple(f))
        return coloring_to_spath(red, f)

    monkeypatch.setattr(lcr.reduction, "coloring_to_spath", counted)
    translated = 0
    for spr, red in layered_corpus(80, base_seed=4851, depth_range=(4, 6)):
        seq = brute_solve(spr)
        steps = [] if seq is None else spath_sequence_to_recoloring(red, seq)
        if sum(v < spr.d - 1 for v, _ in steps) < 3:
            continue  # k layer steps cost the old translation k + 1 checks
        calls.clear()
        assert recoloring_to_spath_sequence(red, steps) == seq
        assert calls == [red.lcr.f0]
        translated += 1
    assert translated >= 3


def test_compilation_preserves_the_answer():
    seen_yes = seen_no = False
    for spr, red in layered_corpus(40, base_seed=4901):
        rerouting = brute_solve(spr)
        recoloring = oracle_decide(red.lcr)
        assert (rerouting is not None) == recoloring
        seen_yes |= recoloring
        seen_no |= not recoloring
    assert seen_yes and seen_no


# -- gadgets read off the compiled instance ---------------------------------------


def test_gadgets_read_off_the_instance_match_the_side_table_references():
    draws = (
        layered_corpus(60, base_seed=5001)
        + layered_corpus(5, base_seed=5101, depth_range=(2, 2))
        + layered_corpus(5, base_seed=5201, density_range=(1.0, 1.0))
    )
    assert any(spr.d == 2 for spr, _ in draws)
    assert any(spr.d > 2 and not red.forbidden for spr, red in draws)
    dodges = 0
    for spr, red in draws:
        assert red.lcr.f0 == side_table_endpoint(red, spr.p0)
        assert red.lcr.fr == side_table_endpoint(red, spr.pr)
        assert to_threshold(red) == union_to_threshold(red)
        seq = brute_solve(spr)
        if seq is not None:
            steps = spath_sequence_to_recoloring(red, seq)
            assert steps == side_table_spath_sequence_to_recoloring(red, seq)
            # forbidden-vertex moves before the last layer move are dodges
            last = max((k for k, (v, _) in enumerate(steps) if v < spr.d - 1), default=0)
            dodges += sum(v >= spr.d - 1 for v, _ in steps[:last])
    assert dodges > 0
