from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import replace

import pytest

import lcr.graph
from lcr import (
    Graph,
    check_path_decomposition,
    is_bipartite,
    is_partial_two_tree,
    recognize_caterpillar,
)
from lcr import build, component_of, reachable
from lcr.generators import gen_caterpillar, gen_layered_spr
from lcr.graph import PathDecomposition, reach
from lcr.rerouting import _distances, brute_solve

from .helpers import (
    all_labeled_trees,
    bag_scan_check_path_decomposition,
    caterpillar_corpus,
    complete_graph,
    cycle_graph,
    deque_brute_solve,
    deque_component_of,
    deque_connected_components,
    deque_reachable,
    deque_rg_components,
    gen_random_instance,
    leaf_attachment,
    path_graph,
    per_row_graph,
    queue_bfs_dist,
    queue_is_bipartite,
    ref_is_caterpillar,
    spine_of_prefix,
    spr_samples,
    star_graph,
    tree_from_prufer,
    walking_recognize_caterpillar,
)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_graph_basic_accessors():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.neighbors(1) == (0, 2)
    assert g.degree(2) == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert repr(g) == "Graph(n=4, m=3)"
    # ids outside 0..n-1 are no edge: a bare row lookup would wrap -1 onto
    # the last row and fail on 5
    h = Graph(3, [(1, 2)])
    assert h.has_edge(2, 1)
    assert not any(h.has_edge(u, v) for u, v in ((-1, 1), (1, -1), (5, 1), (1, 5)))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1)


def seeded_edge_lists(rng: random.Random):
    """Edge lists in shuffled order with mixed orientation: tuples, lists,
    isolated vertices and the empty graph."""
    yield 0, []
    yield 5, []
    for _ in range(400):
        n = rng.randint(1, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        rng.shuffle(pairs)
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        if rng.random() < 0.3:
            pairs = [list(e) for e in pairs]
        yield n, pairs


def test_graph_rows_and_edges_match_the_per_row_reference():
    kinds = set()
    for n, pairs in seeded_edge_lists(random.Random(20)):
        edges, rows = per_row_graph(n, pairs)
        for given in (pairs, iter(pairs), tuple(pairs)):
            g = Graph(n, given)
            assert (g.n, g.edges, g.adjacency) == (n, tuple(sorted(edges)), rows)
            assert tuple(map(g.neighbors, range(n))) == rows
            assert all(type(row) is tuple for row in rows)
        kinds.add(type(pairs[0]).__name__ if pairs else "empty")
        kinds.update("isolated" for row in rows if not row)
    assert kinds == {"empty", "isolated", "tuple", "list"}


def test_graph_faults_are_named_in_input_order():
    # in each case the sorted edge order would meet another fault first
    cases = [
        (3, [(2, 2), (0, 9)], "self-loop at vertex 2"),
        (3, [(5, 0), (1, 1)], "edge (5, 0) out of range for n=3"),
        (3, [(2, 1), (0, -1)], "edge (0, -1) out of range for n=3"),
        (4, [(2, 3), (3, 2), (0, 0)], "duplicate edge (2, 3)"),
        (4, [(3, 1), [1, 3], (0, 7)], "duplicate edge (1, 3)"),
        (0, [(0, 1)], "edge (0, 1) out of range for n=0"),
    ]
    rng = random.Random(21)
    for n, pairs in seeded_edge_lists(rng):
        if n and pairs:
            bad = [rng.choice([(n, 0), (-1, 0), (0, 0), tuple(pairs[0])]) for _ in range(2)]
            for e in bad:
                pairs.insert(rng.randrange(len(pairs) + 1), e)
            cases.append((n, pairs, None))
    for n, pairs, message in cases:
        with pytest.raises(ValueError) as want:
            per_row_graph(n, pairs)
        assert message in (None, str(want.value))
        with pytest.raises(ValueError) as got:
            Graph(n, iter(pairs))
        assert str(got.value) == str(want.value)


def test_building_a_graph_sorts_at_most_once(monkeypatch):
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(lcr.graph, "sorted", counted, raising=False)
    for n, pairs in seeded_edge_lists(random.Random(22)):
        calls = 0
        Graph(n, pairs)
        assert calls <= 1, n


def test_graph_connectivity_and_components():
    assert path_graph(5).connected_components() == [[0, 1, 2, 3, 4]]
    assert Graph(0).connected_components() == []
    g = Graph(5, [(0, 1), (3, 4)])
    assert g.connected_components() == [[0, 1], [2], [3, 4]]


def test_reach_lists_breadth_first_and_records_each_discoverer():
    rng = random.Random(8111)
    for _ in range(400):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice((0.15, 0.3)))
        adj = [g.neighbors(v) for v in range(n)]
        start = rng.randrange(n)
        closed = {v: rng.randrange(n) for v in range(n) if v != start and rng.random() < 0.2}
        parent = [closed.get(v, -1) for v in range(n)]
        order = reach(adj, start, parent)
        expected, queue, found = [start], deque([start]), {start, *closed}
        while queue:
            for w in adj[queue.popleft()]:
                if w not in found:
                    found.add(w)
                    expected.append(w)
                    queue.append(w)
        assert order == expected
        rank = {v: i for i, v in enumerate(order)}
        assert parent[start] == start
        for v in order[1:]:
            # the discoverer is v's neighbour that comes first in the order
            assert parent[v] == min((u for u in adj[v] if u in rank), key=rank.get)
            assert rank[parent[v]] < rank[v]
        for v in range(n):
            if v in closed:
                assert parent[v] == closed[v] and v not in rank
            elif v not in rank:
                assert parent[v] == -1


def test_breadth_first_helpers_match_the_per_module_searches():
    rng = random.Random(8101)
    answers = set()
    for seed in range(300):
        inst = gen_random_instance(rng.randint(1, 7), seed=seed)  # lists of 1..4
        g = inst.graph
        comps = g.connected_components()
        assert comps == deque_connected_components(g)
        rg = build(g, inst.lists)
        assert rg.components() == deque_rg_components(rg)
        far = rg.nodes[rng.randrange(rg.num_nodes)]
        for f in (inst.f0, inst.fr, far):
            assert component_of(rg, f) == deque_component_of(rg, f)
        for f, h in ((inst.f0, inst.fr), (inst.f0, far), (far, far)):
            steps, _ = reachable(g, inst.lists, f, h)
            assert steps == deque_reachable(rg, f, h)
            answers.add(steps is None)
    assert answers == {True, False}

    lengths = set()
    for seed in range(300):
        spr = gen_layered_spr(
            rng.randint(2, 6), density=rng.uniform(0.3, 0.9), seed=seed
        )
        for inst in (spr, replace(spr, pr=spr.p0)):
            chain = brute_solve(inst)
            assert chain == deque_brute_solve(inst)
            lengths.add(-1 if chain is None else min(len(chain), 3))
    assert lengths == {-1, 1, 2, 3}


def test_induced_subgraph_keeps_sorted_id_order():
    # new ids 0, 1, 2 are old 1, 3, 4: old edges (1, 3) and (3, 4) survive
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    sub = g.induced_subgraph([3, 1, 4])
    assert sub.n == 3
    assert sub.edges == ((0, 1), (1, 2))
    assert g.induced_subgraph([4, 0, 2]) == Graph(3)


def test_induced_subgraph_on_every_vertex_is_the_graph_itself():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.induced_subgraph([3, 1, 2, 0, 1]) is g
    sub = g.induced_subgraph([0, 1, 2])
    assert sub is not g and sub == Graph(3, [(0, 1), (1, 2)])
    assert g.induced_subgraph([1, 2, 3]) == Graph(3, [(0, 1), (1, 2)])


def test_induced_subgraph_refuses_vertices_outside_the_graph():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for vertices in ([0, 4], [-1, 0, 1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="out of range"):
            g.induced_subgraph(vertices)


def test_inducing_each_component_of_a_forest_reads_each_edge_once():
    # 300 disjoint three-vertex paths; scanning the whole edge set for each
    # component would read 300 * 600 edges
    k = 300
    g = Graph(3 * k, [(3 * i + j, 3 * i + j + 1) for i in range(k) for j in (0, 1)])
    comps = g.connected_components()
    reads = 0

    def counted(kind):
        class Counted(kind):
            def __iter__(self):
                nonlocal reads
                reads += len(self)
                return super().__iter__()
        return Counted

    g.edges = counted(tuple)(g.edges)
    g.adjacency = tuple(map(counted(tuple), g.adjacency))
    path = Graph(3, [(0, 1), (1, 2)])
    assert all(g.induced_subgraph(comp) == path for comp in comps)
    assert reads == 2 * g.m  # one adjacency entry per edge end


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])


# -- caterpillar recognition --------------------------------------------------


def test_path_is_caterpillar_with_spine_only():
    st = recognize_caterpillar(path_graph(5))
    assert st is not None
    assert st.spine == (0, 1, 2, 3, 4)
    assert leaf_attachment(st) == {}
    assert st.ordering == (0, 1, 2, 3, 4)


def test_cycle_is_not_caterpillar():
    assert recognize_caterpillar(cycle_graph(4)) is None


def test_star_promotes_lowest_leaves_onto_spine():
    st = recognize_caterpillar(star_graph(3))
    assert st is not None
    assert st.spine == (1, 0, 2)
    assert leaf_attachment(st) == {3: 0}
    assert st.ordering == (1, 0, 3, 2)
    assert spine_of_prefix(st) == (1, 0, 0, 2)


def test_single_vertex_counts_as_caterpillar():
    st = recognize_caterpillar(Graph(1))
    assert st is not None
    assert st.spine == (0,) and st.ordering == (0,)


def test_recognition_requires_connected_graph():
    assert recognize_caterpillar(Graph(3, [(0, 1)])) is None
    assert recognize_caterpillar(Graph(0)) is None


def test_recognition_refuses_disconnected_graphs_whatever_their_edge_count():
    # most have m = n - 1, with a cycle in one component, so the edge count
    # alone would pass them
    graphs = [
        Graph(4, [(0, 1), (1, 2), (0, 2)]),  # a triangle and an isolated vertex
        Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]),  # a 4-cycle beside an edge
        Graph(5, [(3, 4), (0, 2), (1, 2), (0, 1)]),  # an edge beside a triangle
        # a 4-vertex path beside a triangle: the walk starts from the path's
        # end but misses the triangle; the graphs above have no end at all
        Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]),
    ]
    rng = random.Random(23)
    while len(graphs) < 200:
        g = random_graph(rng, rng.randint(3, 12), 0.3)
        if g.m == g.n - 1 and len(g.connected_components()) > 1:
            graphs.append(g)
    graphs.append(Graph(5, [(0, 1), (1, 2), (3, 4)]))  # a path beside an edge
    for g in graphs:
        assert recognize_caterpillar(g) is None
        assert walking_recognize_caterpillar(g) is None


def test_recognition_matches_reference_on_all_small_trees():
    for n in range(1, 8):
        for g in all_labeled_trees(n):
            got = recognize_caterpillar(g)
            assert (got is not None) == ref_is_caterpillar(g), g.edges
            assert got == walking_recognize_caterpillar(g), g.edges


def test_recognition_matches_the_spine_walk_reference():
    # every labelled tree on 8 vertices agrees too (262,144 of them), but
    # that takes longer than the rest of the suite, so a seeded sample here
    rng = random.Random(8141)
    graphs = [
        tree_from_prufer([rng.randrange(n) for _ in range(n - 2)], n)
        for n in (8, 9, 10, 12) for _ in range(1000)
    ]
    graphs += [inst.graph for inst in caterpillar_corpus(200, base_seed=8142, max_n=40)]
    graphs += [gen_caterpillar(200, leaf_prob=0.7, seed=seed).graph for seed in range(5)]
    kinds = Counter()
    for g in graphs:
        got = recognize_caterpillar(g)
        assert got == walking_recognize_caterpillar(g), g.edges
        kinds["not a caterpillar" if got is None else len(got.spine) > 3] += 1
    assert set(kinds) == {"not a caterpillar", True, False}


def test_recognition_rejects_connected_non_trees():
    rng = random.Random(4)
    fixed = [cycle_graph(3), cycle_graph(5), complete_graph(4)]
    for g in fixed:
        assert recognize_caterpillar(g) is None
    for n in range(3, 8):
        for g in all_labeled_trees(n):
            extra = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            u, v = rng.choice(extra)
            withcycle = Graph(n, list(g.edges) + [(u, v)])
            assert recognize_caterpillar(withcycle) is None
            break  # one augmented tree per size keeps this quick


def test_structure_reproduces_the_edge_set():
    for inst in caterpillar_corpus(60, base_seed=901, max_n=20):
        st = recognize_caterpillar(inst.graph)
        spine_edges = set(zip(st.spine, st.spine[1:]))
        spine_edges |= set(leaf_attachment(st).items())
        assert {(min(e), max(e)) for e in spine_edges} == set(inst.graph.edges)


def test_ordering_attaches_each_vertex_to_the_active_spine():
    # past the first vertex, v_i must touch exactly the previous spine vertex
    for inst in caterpillar_corpus(60, base_seed=902, max_n=20):
        g = inst.graph
        st = recognize_caterpillar(g)
        spines = spine_of_prefix(st)
        for i in range(2, g.n + 1):
            prev = set(st.ordering[: i - 1])
            back = set(g.neighbors(st.ordering[i - 1])) & prev
            assert back == {spines[i - 2]}


def test_generated_caterpillars_are_recognized():
    for seed in range(25):
        inst = gen_caterpillar(4, leaf_prob=0.7, seed=seed)
        assert recognize_caterpillar(inst.graph) is not None


# -- path decompositions -------------------------------------------------------


def test_single_bag_decomposition_is_valid():
    g = complete_graph(4)
    pd = PathDecomposition((frozenset(range(4)),))
    assert check_path_decomposition(g, pd) == (True, 3)


def test_two_bag_path_decomposition():
    g = path_graph(3)
    pd = PathDecomposition((frozenset({0, 1}), frozenset({1, 2})))
    assert check_path_decomposition(g, pd) == (True, 1)


def test_split_occurrence_breaks_contiguity():
    g = path_graph(3)
    pd = PathDecomposition(
        (frozenset({0, 1}), frozenset({2}), frozenset({1, 2}))
    )
    result = check_path_decomposition(g, pd)
    assert not result.valid
    assert result.width == 1


def test_missing_vertex_or_edge_is_invalid():
    g = path_graph(3)
    assert not check_path_decomposition(
        g, PathDecomposition((frozenset({0, 1}),))
    ).valid
    assert not check_path_decomposition(
        g, PathDecomposition((frozenset({0, 1}), frozenset({2})))
    ).valid


def test_bag_vertex_out_of_range_is_an_error():
    with pytest.raises(ValueError):
        check_path_decomposition(
            path_graph(2), PathDecomposition((frozenset({0, 7}),))
        )


def test_empty_decomposition_of_empty_graph():
    assert check_path_decomposition(Graph(0), PathDecomposition(())).valid


def _decomposition_outcome(check, g, pd):
    try:
        return check(g, pd)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_decomposition_check_matches_the_bag_scanning_reference():
    # bags built from one interval per vertex, edges mostly between
    # overlapping intervals, then about half the cases damaged
    rng = random.Random(5101)
    seen: Counter[str] = Counter()
    for _ in range(6000):
        n, k = rng.randint(0, 7), rng.randint(1, 6)
        spans = [sorted((rng.randrange(k), rng.randrange(k))) for _ in range(n)]
        bags = [
            {v for v, (a, b) in enumerate(spans) if a <= i <= b} for i in range(k)
        ]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [
            (u, v) for u, v in pairs
            if rng.random() < (0.6 if max(spans[u][0], spans[v][0])
                               <= min(spans[u][1], spans[v][1]) else 0.05)
        ]
        damage = rng.random()
        if damage < 0.2 and any(bags):
            rng.choice([bag for bag in bags if bag]).pop()
        elif damage < 0.4:
            rng.choice(bags).add(rng.randrange(max(n, 1)))
        elif damage < 0.45:
            rng.choice(bags).add(rng.choice((-1, n, n + 3)))
        elif damage < 0.5 and len(bags) > 1:
            bags.pop(rng.randrange(len(bags)))
        g = Graph(n, edges)
        pd = PathDecomposition(tuple(frozenset(bag) for bag in bags))
        want = _decomposition_outcome(bag_scan_check_path_decomposition, g, pd)
        assert _decomposition_outcome(check_path_decomposition, g, pd) == want
        seen["error" if want[0] == "ValueError" else str(want.valid)] += 1
    assert seen["True"] > 1000 and seen["False"] > 1000 and seen["error"] > 100


# -- partial 2-tree elimination ------------------------------------------------


def test_k4_survives_elimination():
    assert not is_partial_two_tree(complete_graph(4))


def test_trees_eliminate_completely():
    for n in range(1, 7):
        for g in all_labeled_trees(n):
            assert is_partial_two_tree(g)


def test_k4_minus_an_edge_eliminates():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_partial_two_tree(g)


def test_cycles_eliminate():
    assert is_partial_two_tree(cycle_graph(5))


# -- bipartiteness ---------------------------------------------------------------


def test_even_cycle_has_bipartition():
    parts = is_bipartite(cycle_graph(6))
    assert parts == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))


def test_triangle_has_no_bipartition():
    assert is_bipartite(cycle_graph(3)) is None


def test_bipartition_matches_the_queue_reference():
    rng = random.Random(8121)
    seen = Counter()
    for _ in range(600):
        g = random_graph(rng, rng.randint(0, 12), rng.choice((0.08, 0.15, 0.3)))
        parts = is_bipartite(g)
        assert parts == queue_is_bipartite(g), g.edges
        seen["odd cycle"] += parts is None
        seen["bipartite with edges"] += parts is not None and g.m > 0
        seen["isolated vertex"] += any(g.degree(v) == 0 for v in range(g.n))
        seen["several components"] += len(g.connected_components()) > 1
        seen["odd cycle beside another component"] += (
            parts is None and len(g.connected_components()) > 1
        )
    assert all(count >= 20 for count in seen.values()) and len(seen) == 5, seen


def test_bipartition_covers_isolated_vertices():
    g = Graph(3, [(1, 2)])
    parts = is_bipartite(g)
    assert parts is not None
    assert parts[0] | parts[1] == {0, 1, 2}
    assert parts[0] & parts[1] == frozenset()


# -- layer distances ----------------------------------------------------------------


def test_layer_distances_match_the_queue_reference():
    rng = random.Random(8131)
    graphs = [inst.graph for inst in spr_samples(60, base_seed=8132)]
    graphs += [
        gen_layered_spr(rng.randint(2, 6), density=rng.uniform(0.3, 0.9), seed=seed).graph
        for seed in range(100)
    ]
    # disconnected graphs leave vertices out of reach
    graphs += [random_graph(rng, rng.randint(1, 12), 0.15) for _ in range(100)]
    unreached = 0
    for g in graphs:
        adj = tuple(map(g.neighbors, range(g.n)))
        for v in range(g.n):
            dist = _distances(adj, v)
            assert dist == queue_bfs_dist(g, v)
            unreached += -1 in dist
    assert unreached > 0
