from __future__ import annotations

import pytest

from lcr import Graph
from lcr.errors import Disconnected, StateSpaceTooLarge
from lcr.generators import gen_layered_spr
from lcr.rerouting import (
    SprInstance,
    adjacent_s_paths,
    brute_solve,
    build_spr_instance,
    compute_layers,
    enumerate_s_paths,
    is_s_path,
)

from .helpers import path_graph, recursive_s_paths, ref_count_s_paths, spr_samples


def disjoint_paths_graph(cross_edges=()):
    """Two vertex-disjoint s-t paths 0-2-3-1 and 0-4-5-1, plus extras."""
    edges = [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)]
    edges.extend(cross_edges)
    return Graph(6, edges)


# -- layers -------------------------------------------------------------------


def test_two_hop_path_layers():
    d, layers, pruned, id_map = compute_layers(Graph(3, [(0, 1), (1, 2)]), 0, 2)
    assert d == 2
    assert layers == ((0,), (1,), (2,))
    assert pruned.n == 3
    assert id_map == {0: 0, 1: 1, 2: 2}


def test_adjacent_endpoints_give_two_layers():
    d, layers, _, _ = compute_layers(Graph(2, [(0, 1)]), 0, 1)
    assert d == 1 and layers == ((0,), (1,))


def test_pendant_off_the_diamond_is_pruned():
    g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 2), (1, 4)])
    d, layers, pruned, id_map = compute_layers(g, 0, 2)
    assert d == 2
    assert layers == ((0,), (1, 3), (2,))
    assert pruned.n == 4
    assert 4 not in id_map


def test_disconnected_endpoints_are_an_error():
    with pytest.raises(Disconnected):
        compute_layers(Graph(3, [(0, 1)]), 0, 2)


def test_every_pruned_vertex_lands_in_a_layer():
    for inst in spr_samples(25, base_seed=3101):
        assert sum(len(layer) for layer in inst.layers) == inst.graph.n
        assert inst.layers[0] == (inst.s,)
        assert inst.layers[-1] == (inst.t,)


def test_construction_rejects_paths_through_pruned_vertices():
    g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 2), (1, 4)])
    with pytest.raises(ValueError):
        build_spr_instance(g, 0, 2, (0, 4, 2), (0, 3, 2))


def test_construction_rejects_non_shortest_endpoint_paths():
    g = disjoint_paths_graph()
    with pytest.raises(ValueError):
        build_spr_instance(g, 0, 1, (0, 2, 5, 1), (0, 4, 5, 1))


# -- path predicates --------------------------------------------------------------


def test_endpoint_paths_are_s_paths():
    inst = build_spr_instance(disjoint_paths_graph(), 0, 1, (0, 2, 3, 1), (0, 4, 5, 1))
    assert is_s_path(inst, inst.p0)
    assert is_s_path(inst, inst.pr)


def test_repeated_vertices_break_an_s_path():
    inst = build_spr_instance(disjoint_paths_graph(), 0, 1, (0, 2, 3, 1), (0, 4, 5, 1))
    assert not is_s_path(inst, (0, 2, 2, 1))


def test_a_missing_edge_breaks_an_s_path():
    g = disjoint_paths_graph(cross_edges=[(2, 5)])
    inst = build_spr_instance(g, 0, 1, (0, 2, 3, 1), (0, 4, 5, 1))
    assert is_s_path(inst, (0, 2, 5, 1))
    assert not is_s_path(inst, (0, 4, 3, 1))


def test_a_vertex_outside_the_graph_breaks_an_s_path():
    inst = build_spr_instance(disjoint_paths_graph(), 0, 1, (0, 2, 3, 1), (0, 4, 5, 1))
    assert not is_s_path(inst, (0, 2, 6, 1))
    assert not is_s_path(inst, (0, -1, 3, 1))


def test_adjacency_is_a_single_swap():
    assert not adjacent_s_paths((0, 2, 3, 1), (0, 2, 3, 1))
    assert adjacent_s_paths((0, 2, 3, 1), (0, 4, 3, 1))
    assert not adjacent_s_paths((0, 2, 3, 1), (0, 4, 5, 1))


# -- enumeration ---------------------------------------------------------------------


def test_enumeration_lists_both_disjoint_paths():
    inst = build_spr_instance(disjoint_paths_graph(), 0, 1, (0, 2, 3, 1), (0, 4, 5, 1))
    assert enumerate_s_paths(inst) == [(0, 2, 3, 1), (0, 4, 5, 1)]


def test_enumeration_matches_the_layer_counting_reference():
    for inst in spr_samples(30, base_seed=3201):
        paths = enumerate_s_paths(inst)
        assert len(paths) == ref_count_s_paths(inst)
        assert len(set(paths)) == len(paths)
        for p in paths:
            assert is_s_path(inst, p)


def test_enumeration_respects_the_cap():
    inst = build_spr_instance(
        disjoint_paths_graph(cross_edges=[(2, 5), (4, 3)]),
        0, 1, (0, 2, 3, 1), (0, 4, 5, 1),
    )
    with pytest.raises(StateSpaceTooLarge):
        enumerate_s_paths(inst, cap=2)


def test_enumeration_matches_the_recursive_reference_in_order_and_cap():
    checked = capped = 0
    for depth in range(1, 9):
        for seed in range(25):
            inst = gen_layered_spr(depth, max_width=4, density=0.6, seed=seed)
            paths = recursive_s_paths(inst)
            assert enumerate_s_paths(inst) == paths
            checked += 1
            for cap in {0, 1, len(paths) // 2, len(paths) - 1}:
                if 0 <= cap < len(paths):
                    with pytest.raises(StateSpaceTooLarge) as ours:
                        enumerate_s_paths(inst, cap)
                    with pytest.raises(StateSpaceTooLarge) as ref:
                        recursive_s_paths(inst, cap)
                    assert str(ours.value) == str(ref.value)
                    capped += 1
    assert checked > 150 and capped > 300


def test_a_long_path_enumerates_without_recursion():
    n = 1500
    path = tuple(range(n))
    inst = build_spr_instance(path_graph(n), 0, n - 1, path, path)
    assert enumerate_s_paths(inst) == [path]
    assert brute_solve(inst) == [path]


# -- brute-force solving ------------------------------------------------------------


def test_brute_solve_refuses_endpoint_paths_off_the_enumeration():
    # built directly, past build_spr_instance's check: p0 skips layer 1
    layers = ((0,), (1,), (2,))
    spr = SprInstance(path_graph(3), 0, 2, (0, 2), (0, 1, 2), 2, layers, {0: 0, 1: 1, 2: 2})
    with pytest.raises(ValueError, match="endpoint paths missing from the enumeration"):
        brute_solve(spr)


def test_equal_paths_solve_in_place():
    inst = build_spr_instance(
        disjoint_paths_graph(cross_edges=[(2, 5), (4, 3)]),
        0, 1, (0, 2, 3, 1), (0, 2, 3, 1),
    )
    assert brute_solve(inst) == [(0, 2, 3, 1)]


def test_disjoint_paths_cannot_be_rerouted():
    inst = build_spr_instance(disjoint_paths_graph(), 0, 1, (0, 2, 3, 1), (0, 4, 5, 1))
    assert brute_solve(inst) is None


def test_cross_edges_open_a_rerouting_corridor():
    inst = build_spr_instance(
        disjoint_paths_graph(cross_edges=[(2, 5), (4, 3)]),
        0, 1, (0, 2, 3, 1), (0, 4, 5, 1),
    )
    seq = brute_solve(inst)
    assert seq is not None
    assert len(seq) == 3
    assert seq[0] == inst.p0 and seq[-1] == inst.pr
    for p, q in zip(seq, seq[1:]):
        assert is_s_path(inst, p) and is_s_path(inst, q)
        assert adjacent_s_paths(p, q)


def test_solutions_are_shortest_and_valid_on_random_instances():
    for inst in spr_samples(30, base_seed=3301):
        seq = brute_solve(inst)
        if seq is None:
            continue
        assert seq[0] == inst.p0 and seq[-1] == inst.pr
        for p, q in zip(seq, seq[1:]):
            assert adjacent_s_paths(p, q)
            assert is_s_path(inst, q)
