from __future__ import annotations

import random
import time
from collections import Counter
from itertools import accumulate
from operator import mul

import pytest

from lcr import (
    Graph,
    build,
    component_of,
    is_valid_sequence,
    make_instance,
    oracle_decide,
    reachable,
)
from lcr.errors import StateSpaceTooLarge, UnknownNode
from lcr.instance import induced_instance, normalize
from lcr.oracle import (
    DEFAULT_STATE_CAP,
    _node_id,
    _sorted_lists_within_cap,
    state_space_size,
)

from .helpers import (
    all_colorings,
    caterpillar_corpus,
    cycle_graph,
    deque_reachable,
    layered_corpus,
    one_color_path,
    path_graph,
    ref_proper_colorings,
    splicing_build,
)
from .reference import contract_encoding, validate_encoding


def frozen_edge():
    return make_instance(Graph(2, [(0, 1)]), [{1, 2}, {1, 2}], (1, 2), (2, 1))


def mixed_edge():
    return make_instance(Graph(2, [(0, 1)]), [{1, 2}, {2, 3}], (1, 2), (2, 3))


# -- enumeration ---------------------------------------------------------------


def test_single_vertex_enumeration():
    assert all_colorings(Graph(1), [frozenset({1, 2})]) == [(1,), (2,)]


def test_edge_enumeration_is_lexicographic():
    inst = frozen_edge()
    assert all_colorings(inst.graph, inst.lists) == [(1, 2), (2, 1)]


def test_two_colored_triangle_has_no_proper_coloring():
    assert all_colorings(cycle_graph(3), [frozenset({1, 2})] * 3) == []


def test_enumeration_matches_product_filter_reference():
    for inst in caterpillar_corpus(40, base_seed=1201, max_n=8):
        got = all_colorings(inst.graph, inst.lists)
        assert set(got) == ref_proper_colorings(inst.graph, inst.lists)
        assert got == sorted(got)


def product_past_cap(lists, cap):
    """The first product of leading list sizes above cap: a refusal's size
    (with no lists, the empty product 1)."""
    return next((p for p in accumulate(map(len, lists), mul) if p > cap), 1)


def test_state_cap_is_enforced_before_enumerating():
    lists = [frozenset({0, 1, 2, 3})] * 10
    with pytest.raises(StateSpaceTooLarge) as info:
        all_colorings(Graph(10), lists, cap=1000)
    assert info.value.size == 4**5  # the product stops once it passes the cap
    assert info.value.cap == 1000
    assert state_space_size(lists) == 4**10


def test_a_refusal_is_decided_by_the_whole_product():
    # the product stops once it passes the cap, yet an empty list after that
    # point still makes the whole product 0, which no cap refuses
    rng = random.Random(9311)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(0, 8)
        lists = [
            frozenset(range(0 if rng.random() < 0.05 else rng.randint(1, 5)))
            for _ in range(n)
        ]
        cap = rng.randint(0, 200)
        try:
            _sorted_lists_within_cap(lists, cap)
        except StateSpaceTooLarge as exc:
            assert state_space_size(lists) > cap
            assert exc.size == product_past_cap(lists, cap) and exc.cap == cap
            seen["refused"] += 1
        else:
            assert state_space_size(lists) <= cap
            seen["empty past the cap" if any(
                p > cap for p in accumulate(map(len, lists), mul)) else "built"] += 1
    assert set(seen) == {"refused", "empty past the cap", "built"}


def test_an_empty_list_anywhere_gives_no_node():
    # an empty list zeroes the place value of every vertex before it, so no
    # edge pass may step by it; there is no proper coloring to link anyway
    for n in range(1, 5):
        for g in (Graph(n), path_graph(n)):
            for k in range(n):
                lists = [frozenset({0, 1})] * n
                lists[k] = frozenset()
                rg = build(g, lists)
                assert (rg.num_nodes, rg.num_edges) == (0, 0), (n, g.m, k)


def test_state_cap_boundary():
    cap = 12
    at_cap = (Graph(2), [frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})])
    assert build(*at_cap, cap=cap).num_nodes == 12
    assert len(all_colorings(*at_cap, cap=cap)) == 12
    over_cap = (Graph(1), [frozenset(range(13))])
    for fn in (build, all_colorings):
        with pytest.raises(StateSpaceTooLarge) as info:
            fn(*over_cap, cap=cap)
        assert info.value.size == cap + 1 == product_past_cap(over_cap[1], cap)


def test_a_negative_state_cap_is_a_value_error():
    with pytest.raises(ValueError, match="non-negative"):
        build(Graph(0), [], cap=-5)


def test_a_huge_state_space_is_refused_before_any_enumeration():
    g, lists = path_graph(30), [frozenset(range(10))] * 30
    start = time.perf_counter()
    with pytest.raises(StateSpaceTooLarge) as info:
        build(g, lists)
    assert time.perf_counter() - start < 0.01
    assert info.value.size == 10**7  # the first product past the cap of 2,000,000


# -- reconfiguration graph construction ----------------------------------------


def test_frozen_edge_yields_two_isolated_nodes():
    inst = frozen_edge()
    rg = build(inst.graph, inst.lists)
    assert rg.nodes == ((1, 2), (2, 1))
    assert rg.num_edges == 0


def test_single_vertex_yields_a_single_edge():
    rg = build(Graph(1), (frozenset({1, 2}),))
    assert rg.num_nodes == 2 and rg.num_edges == 1


def test_mixed_edge_yields_a_three_node_path():
    inst = mixed_edge()
    rg = build(inst.graph, inst.lists)
    assert rg.nodes == ((1, 2), (1, 3), (2, 3))
    assert rg.adj == ((1,), (0, 2), (1,))


def test_a_carry_is_not_a_recoloring():
    # codes 0..3 are 00, 01, 10, 11: 1 + 1 = 2 is a proper coloring, but it
    # differs from 01 in both digits
    rg = build(Graph(2), [frozenset({0, 1})] * 2)
    assert rg.adj == ((1, 2), (0, 3), (0, 3), (1, 2))


def test_the_edgeless_hypercube_has_every_edge():
    rg = build(Graph(10), [frozenset({0, 1})] * 10)
    assert rg.num_nodes == 2**10
    assert rg.num_edges == 10 * 2**9
    assert all(len(a) == 10 for a in rg.adj)


def test_edges_are_single_vertex_differences():
    for inst in caterpillar_corpus(25, base_seed=1301, max_n=8):
        rg = build(inst.graph, inst.lists)
        for i, nbrs in enumerate(rg.adj):
            assert i not in nbrs
            for j in nbrs:
                assert i in rg.adj[j]
                diff = [
                    v for v in range(inst.graph.n)
                    if rg.nodes[i][v] != rg.nodes[j][v]
                ]
                assert len(diff) == 1


def _random_lists_corpus(count: int, seed: int):
    """Seeded graphs on 0..9 vertices, edge densities from empty to complete,
    and lists of 1-4 colors drawn from a palette of 5."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 9)
        density = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < density
        ]
        lists = [frozenset(rng.sample(range(5), rng.randint(1, 4))) for _ in range(n)]
        yield Graph(n, edges), lists


def test_build_matches_the_splicing_reference():
    cap = 1000
    corpus = list(_random_lists_corpus(2500, seed=9001))
    corpus += [
        (red.lcr.graph, red.lcr.lists)
        for _, red in layered_corpus(60, base_seed=9101, max_states=cap)
    ]
    seen: Counter[str] = Counter()
    for g, lists in corpus:
        try:
            ref = splicing_build(g, lists, cap)
        except StateSpaceTooLarge as exc:
            with pytest.raises(StateSpaceTooLarge) as info:
                build(g, lists, cap)
            assert info.value.size == product_past_cap(lists, cap) <= exc.size
            seen["refused"] += 1
            continue
        rg = build(g, lists, cap)
        assert rg.nodes == ref.nodes
        assert [_node_id(rg, f) for f in rg.nodes] == list(range(rg.num_nodes))
        assert rg.adj == ref.adj
        assert rg.lists == ref.lists
        seen["built"] += 1
        seen["no proper coloring"] += not ref.nodes
        seen["isolated vertex"] += g.m > 0 and any(
            g.degree(v) == 0 for v in range(g.n)
        )
        seen["one-color list"] += any(len(lst) == 1 for lst in lists)
        seen["complete graph"] += g.n >= 3 and g.m == g.n * (g.n - 1) // 2
    assert seen["built"] >= 2000 and seen["refused"] > 0
    for kind in ("no proper coloring", "isolated vertex", "one-color list", "complete graph"):
        assert seen[kind] > 0, kind


def test_oracle_decide_needs_no_recursion_on_a_long_path():
    inst = one_color_path(5000)
    rg = build(inst.graph, inst.lists)
    assert rg.nodes == (inst.f0,) and rg.adj == ((),)
    assert oracle_decide(inst)


# -- reachability ----------------------------------------------------------------


def test_equal_endpoints_reach_in_zero_steps():
    inst = mixed_edge()
    assert _node_id(build(inst.graph, inst.lists), (1, 2)) == 0
    assert reachable(inst.graph, inst.lists, (1, 2), (1, 2)) == ([], 1)


def test_frozen_edge_is_unreachable():
    inst = frozen_edge()
    assert reachable(inst.graph, inst.lists, (1, 2), (2, 1)) == (None, 2)


def test_mixed_edge_witness():
    inst = mixed_edge()
    steps, visited = reachable(inst.graph, inst.lists, (1, 2), (2, 3))
    assert steps == [(1, 3), (0, 2)] and visited == 3
    assert is_valid_sequence(inst, steps)


def test_unknown_endpoint_is_an_error():
    inst = mixed_edge()
    rg = build(inst.graph, inst.lists)
    # improper, outside every list (bisecting to either end of the node
    # order), or of the wrong length
    for f in ((2, 2), (0, 0), (3, 3), (1,), (1, 2, 3)):
        with pytest.raises(UnknownNode):
            _node_id(rg, f)
        for ends in ((f, (1, 2)), ((1, 2), f)):
            with pytest.raises(UnknownNode):
                reachable(inst.graph, inst.lists, *ends)
    # the cap is checked first, as build checks it before any node exists
    with pytest.raises(StateSpaceTooLarge):
        reachable(inst.graph, inst.lists, (2, 2), (1, 2), cap=2)


def test_witnesses_validate_on_random_instances():
    for inst in caterpillar_corpus(40, base_seed=1401, max_n=9):
        steps, _ = reachable(inst.graph, inst.lists, inst.f0, inst.fr)
        if steps is not None:
            assert is_valid_sequence(inst, steps)
        assert (steps is not None) == oracle_decide(inst)
        rg = build(inst.graph, inst.lists)
        assert oracle_decide(inst) == (_node_id(rg, inst.fr) in component_of(rg, inst.f0))


# -- the two-sided search against a queue search of the built graph ------------------


def matches_the_queue_search(g, lists, f0, fr, cap=DEFAULT_STATE_CAP):
    """The search's steps, after checking them against a queue search of
    ``build``'s graph, and its visits against the graph's size."""
    rg = build(g, lists, cap)
    steps, visited = reachable(g, lists, f0, fr, cap)
    assert steps == deque_reachable(rg, f0, fr)
    assert 1 <= visited <= rg.num_nodes
    return steps


def grid(rows: int, cols: int) -> Graph:
    along = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    across = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, along + across)


def test_search_matches_the_queue_search_on_unnormalized_instances():
    cap = 5000
    rng = random.Random(9301)
    seen: Counter[str] = Counter()
    for g, lists in _random_lists_corpus(1200, seed=9302):
        try:
            nodes = build(g, lists, cap).nodes
        except StateSpaceTooLarge as exc:
            with pytest.raises(StateSpaceTooLarge) as info:
                reachable(g, lists, (), (), cap)
            assert (str(info.value), info.value.size) == (str(exc), exc.size)
            seen["refused"] += 1
            continue
        if not nodes:
            continue
        for f0, fr in ((rng.choice(nodes), rng.choice(nodes)), (nodes[-1], nodes[-1])):
            seen["NO"] += matches_the_queue_search(g, lists, f0, fr, cap) is None
        seen["n = 0"] += g.n == 0
        seen["disconnected"] += len(g.connected_components()) > 1
        seen["one-colour list"] += any(len(lst) == 1 for lst in lists)
    for kind in ("refused", "NO", "n = 0", "disconnected", "one-colour list"):
        assert seen[kind] > 0, kind


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_search_matches_the_queue_search_on_four_colour_grids(cols):
    g, lists = grid(3, cols), [frozenset(range(4))] * (3 * cols)
    nodes = build(g, lists).nodes
    rng = random.Random(9400 + cols)
    lengths = set()
    for _ in range(12):
        steps = matches_the_queue_search(g, lists, rng.choice(nodes), rng.choice(nodes))
        lengths.add(len(steps))
    assert max(lengths) >= 3 * cols


@pytest.mark.parametrize("colors", [4, 5])
def test_search_matches_the_queue_search_on_caterpillars(colors):
    rng = random.Random(9500 + colors)
    answers = set()
    for inst in caterpillar_corpus(60, base_seed=9500 + colors, max_n=9, colors=colors):
        nodes = build(inst.graph, inst.lists).nodes
        for f0, fr in ((inst.f0, inst.fr), (rng.choice(nodes), rng.choice(nodes))):
            answers.add(matches_the_queue_search(inst.graph, inst.lists, f0, fr) is None)
    assert answers == {True, False}


def test_search_matches_the_queue_search_on_compiled_rerouting_components():
    # every component that bruteforce hands the oracle
    answers = Counter()
    for _, red in layered_corpus(80, base_seed=9601, depth_range=(3, 6), max_width=4):
        trimmed, _ = normalize(red.lcr)
        for comp in trimmed.graph.connected_components():
            sub = induced_instance(trimmed, comp)
            if sub.f0 != sub.fr:
                steps = matches_the_queue_search(sub.graph, sub.lists, sub.f0, sub.fr)
                answers[steps is not None] += 1
    assert answers[True] >= 25 and answers[False] >= 10


def test_the_least_sequence_on_the_edgeless_hypercube():
    # from all 0s to all 1s every order of the ten moves is shortest; the
    # least sequence of colourings sets the last vertex first
    g, lists = Graph(10), [frozenset({0, 1})] * 10
    steps, visited = reachable(g, lists, (0,) * 10, (1,) * 10)
    assert steps == [(v, 1) for v in range(9, -1, -1)]
    # the sides meet only once both hold the 252 colourings at distance 5
    # from either end, so the search sees the whole cube: its worst case
    assert visited == 1024


# -- components ---------------------------------------------------------------------


def test_connected_reconfiguration_graph_is_one_component():
    inst = mixed_edge()
    rg = build(inst.graph, inst.lists)
    assert component_of(rg, (1, 2)) == frozenset({0, 1, 2})
    assert rg.components() == [[0, 1, 2]]


def test_frozen_nodes_sit_in_singleton_components():
    inst = frozen_edge()
    rg = build(inst.graph, inst.lists)
    assert component_of(rg, (1, 2)) == frozenset({0})
    assert rg.components() == [[0], [1]]


# -- contraction -------------------------------------------------------------------


def test_contracting_a_one_color_component_gives_one_enode():
    inst = frozen_edge()
    rg = build(inst.graph, inst.lists)
    eg = contract_encoding(rg, component_of(rg, (1, 2)), 0, (1, 2), (2, 1))
    assert eg.cols == (1,) and eg.edges == ()
    assert eg.ini == 0 and eg.tar is None
    other = contract_encoding(rg, component_of(rg, (2, 1)), 0, (1, 2), (2, 1))
    assert other.cols == (2,) and other.ini is None and other.tar == 0


def test_contracting_the_mixed_edge_over_each_endpoint():
    inst = mixed_edge()
    rg = build(inst.graph, inst.lists)
    comp = component_of(rg, (1, 2))
    by_u = contract_encoding(rg, comp, 0, (1, 2), (2, 3))
    assert by_u.cols == (1, 2) and by_u.edges == ((0, 1),)
    assert by_u.ini == 0 and by_u.tar == 1
    by_v = contract_encoding(rg, comp, 1, (1, 2), (2, 3))
    assert by_v.cols == (2, 3) and by_v.edges == ((0, 1),)
    assert by_v.ini == 0 and by_v.tar == 1


def test_contractions_validate_on_random_instances():
    from lcr.graph import recognize_caterpillar

    for inst in caterpillar_corpus(25, base_seed=1501, max_n=9):
        rg = build(inst.graph, inst.lists)
        comp = component_of(rg, inst.f0)
        st = recognize_caterpillar(inst.graph)
        for s in st.spine:
            eg = contract_encoding(rg, comp, s, inst.f0, inst.fr)
            validate_encoding(eg, spine_list=inst.lists[s])
