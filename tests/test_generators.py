from __future__ import annotations

import random

import pytest

from lcr.fileio import format_lcr, format_spr
from lcr.generators import _greedy_coloring, gen_caterpillar, gen_layered_spr
from lcr.graph import Graph, recognize_caterpillar
from lcr.instance import LcrInstance, is_proper_list_coloring
from lcr.reduction import compile_spr
from lcr.rerouting import is_s_path

from .helpers import (
    gen_random_instance,
    ref_is_caterpillar,
    scanning_greedy_coloring,
)


def test_caterpillar_generation_is_deterministic():
    a = gen_caterpillar(4, leaf_prob=0.5, colors=4, seed=77)
    b = gen_caterpillar(4, leaf_prob=0.5, colors=4, seed=77)
    assert a == b
    assert format_lcr(a) == format_lcr(b)
    assert a != gen_caterpillar(4, leaf_prob=0.5, colors=4, seed=78)


def test_minimal_caterpillar_is_a_single_vertex():
    inst = gen_caterpillar(1, leaf_prob=0.0, colors=3, seed=5)
    assert inst.graph.n == 1
    assert len(inst.lists[0]) == 2


def test_generated_caterpillars_are_normalized_caterpillars():
    for seed in range(40):
        inst = gen_caterpillar(1 + seed % 5, leaf_prob=0.5, colors=4, seed=seed)
        assert ref_is_caterpillar(inst.graph)
        assert recognize_caterpillar(inst.graph) is not None
        assert is_proper_list_coloring(inst, inst.f0)
        assert is_proper_list_coloring(inst, inst.fr)
        for v in range(inst.graph.n):
            assert 2 <= len(inst.lists[v]) <= max(inst.graph.degree(v) + 1, 2)


def test_leaves_per_spine_pins_the_shape():
    inst = gen_caterpillar(5, colors=4, seed=3, leaves_per_spine=2)
    assert inst.graph.n == 5 + 5 * 2
    # ten leaves; spine ends carry 1+2 edges, interior spine 2+2
    degrees = sorted(inst.graph.degree(v) for v in range(inst.graph.n))
    assert degrees == [1] * 10 + [3, 3, 4, 4, 4]
    assert gen_caterpillar(5, colors=4, seed=3, leaves_per_spine=0).graph.m == 4


def test_caterpillar_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_caterpillar(0, seed=1)
    with pytest.raises(ValueError):
        gen_caterpillar(3, colors=1, seed=1)
    with pytest.raises(ValueError, match="leaf count"):
        gen_caterpillar(3, seed=1, leaves_per_spine=-1)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="leaf probability"):
            gen_caterpillar(3, leaf_prob=p, seed=1)
    for list_range in ((1, 3), (3, 2)):
        with pytest.raises(ValueError, match="list size range"):
            gen_caterpillar(3, list_range=list_range, seed=1)


def test_random_instances_are_deterministic_and_proper():
    a = gen_random_instance(7, edge_prob=0.35, colors=4, seed=11)
    b = gen_random_instance(7, edge_prob=0.35, colors=4, seed=11)
    assert a == b
    for seed in range(40):
        inst = gen_random_instance(7, edge_prob=0.35, colors=4, seed=seed)
        assert is_proper_list_coloring(inst, inst.f0)
        assert is_proper_list_coloring(inst, inst.fr)


def test_random_instances_cover_unnormalized_lists():
    seen_small = seen_large = False
    for seed in range(60):
        inst = gen_random_instance(
            7, edge_prob=0.35, colors=4, list_range=(1, 4), seed=seed
        )
        for v in range(inst.graph.n):
            size = len(inst.lists[v])
            seen_small |= size < 2
            seen_large |= size > inst.graph.degree(v) + 1
    assert seen_small and seen_large


def test_greedy_coloring_matches_the_scanning_reference():
    # the graphs it colors: trees numbered parent first, lists of two or more
    # colors, where each vertex meets one colored neighbor and never runs out
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        lists = [frozenset(rng.sample(range(5), rng.randint(2, 4))) for _ in range(n)]
        fast, slow = random.Random(seed), random.Random(seed)
        coloring = _greedy_coloring(g, lists, fast)
        assert coloring == scanning_greedy_coloring(g, lists, slow, range(n))
        assert fast.getstate() == slow.getstate()  # the same draws
        assert is_proper_list_coloring(LcrInstance(g, tuple(lists), coloring, coloring), coloring)


def test_layered_generation_is_deterministic():
    a = gen_layered_spr(4, max_width=3, density=0.5, seed=21)
    b = gen_layered_spr(4, max_width=3, density=0.5, seed=21)
    assert format_spr(a) == format_spr(b)


def test_layered_instances_satisfy_their_invariants():
    for seed in range(6101, 6141):
        depth = 2 + seed % 4
        inst = gen_layered_spr(depth, max_width=3, density=0.5, seed=seed)
        # pruning keeps every vertex, t the last, so the map is the identity
        assert inst.d == depth
        assert inst.id_map == {v: v for v in range(inst.graph.n)}
        assert is_s_path(inst, inst.p0)
        assert is_s_path(inst, inst.pr)
        assert inst.layers[0] == (inst.s,)
        assert inst.layers[-1] == (inst.t,)
        assert sum(len(layer) for layer in inst.layers) == inst.graph.n
        assert len(inst.layers) == inst.d + 1


def test_full_density_leaves_no_forbidden_vertices():
    inst = gen_layered_spr(4, max_width=3, density=1.0, seed=9)
    red = compile_spr(inst)
    assert red.forbidden == ()


def test_layered_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_layered_spr(0, seed=1)
    with pytest.raises(ValueError):
        gen_layered_spr(3, max_width=0, seed=1)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="density"):
            gen_layered_spr(3, density=p, seed=1)
