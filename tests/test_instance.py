from __future__ import annotations

import heapq
import random
from types import SimpleNamespace

import pytest

import lcr.instance
from lcr import (
    Graph,
    RichListRemoval,
    SingletonRemoval,
    is_valid_sequence,
    lift_sequence,
    make_instance,
    normalize,
)
from lcr.errors import (
    InfeasibleList,
    InvalidSequence,
    PartialColoring,
)
from lcr.instance import (
    LcrInstance,
    frozen_no,
    induced_instance,
    is_proper_list_coloring,
    peel,
)
from lcr.oracle import oracle_decide, reachable

from .helpers import (
    caterpillar_corpus,
    frozen_cycle,
    gen_random_instance,
    greatest_frozen_set,
    has_frozen_no,
    layered_corpus,
    path_graph,
    proves_no,
    quadratic_normalize,
    rescanning_peel,
    star_graph,
    trimmed_instance,
)
from .reference import OutOfRange, restrict


def edge_instance(l0, l1, f0, fr):
    return make_instance(Graph(2, [(0, 1)]), [l0, l1], f0, fr)


def test_instance_validates_shapes():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        make_instance(g, [{1, 2}], (1, 2), (2, 1))
    with pytest.raises(ValueError):
        make_instance(g, [{1, 2}, set()], (1, 2), (2, 1))
    with pytest.raises(ValueError):
        make_instance(g, [{1, 2}, {1, 2}], (1,), (2, 1))


def test_num_colors_is_dense_universe_size():
    inst = edge_instance({0, 3}, {1}, (0, 1), (3, 1))
    assert inst.num_colors == 4


# -- proper list colorings -----------------------------------------------------


def test_proper_coloring_accepted():
    inst = edge_instance({1, 2}, {1, 2}, (1, 2), (2, 1))
    assert is_proper_list_coloring(inst, (1, 2))


def test_monochromatic_edge_rejected():
    inst = edge_instance({1, 2}, {1, 2}, (1, 2), (2, 1))
    assert not is_proper_list_coloring(inst, (1, 1))


def test_color_outside_list_rejected():
    inst = make_instance(Graph(1), [{2, 3}], (2,), (3,))
    assert not is_proper_list_coloring(inst, (1,))


def test_partial_coloring_is_an_error():
    inst = edge_instance({1, 2}, {1, 2}, (1, 2), (2, 1))
    with pytest.raises(PartialColoring):
        is_proper_list_coloring(inst, (1,))


# -- normalization ---------------------------------------------------------------


def test_singleton_removal_cascades():
    inst = edge_instance({1}, {1, 2}, (1, 2), (1, 2))
    trimmed, trace = normalize(inst)
    assert trimmed.graph.n == 0
    assert trace.removals == (
        SingletonRemoval(0, 1, (1,)),
        SingletonRemoval(1, 2, ()),
    )
    assert trace.kept == ()


def test_rich_list_removal_keeps_neighbor_lists():
    # center list has degree + 3 colors, so it goes first; the isolated
    # leaves that remain are rich in turn and the instance empties
    inst = make_instance(
        star_graph(3),
        [{0, 1, 2, 3, 4, 5}, {0, 1}, {1, 2}, {2, 3}],
        (0, 1, 2, 3),
        (4, 0, 1, 2),
    )
    trimmed, trace = normalize(inst)
    assert trace.removals[0] == RichListRemoval(0, (0, 1, 2, 3, 4, 5), (1, 2, 3))
    assert all(isinstance(r, RichListRemoval) for r in trace.removals)
    assert trimmed.graph.n == 0


def test_normalize_identity_on_normalized_instance():
    inst = edge_instance({1, 2}, {2, 3}, (1, 2), (2, 3))
    trimmed, trace = normalize(inst)
    assert trimmed is inst
    assert trace.removals == ()
    assert trace.kept == range(2)


def test_normalize_is_idempotent():
    for seed in range(40):
        inst = gen_random_instance(6, seed=seed)
        once, _ = normalize(inst)
        twice, trace = normalize(once)
        assert twice is once and trace.removals == ()


def test_normalize_renumbers_survivors():
    # vertex 1 is forced, which strips color 3 from vertex 2; vertex 0 ends
    # up isolated and rich; the far edge survives with fresh ids
    inst = make_instance(
        path_graph(4),
        [{1, 2}, {3}, {2, 3, 4}, {2, 4}],
        (1, 3, 2, 4),
        (2, 3, 4, 2),
    )
    trimmed, trace = normalize(inst)
    assert trace.removals == (
        SingletonRemoval(1, 3, (2,)),
        RichListRemoval(0, (1, 2), ()),
    )
    assert trace.kept == (2, 3)
    assert trimmed.graph.n == 2 and trimmed.graph.m == 1
    assert trimmed.lists == (frozenset({2, 4}), frozenset({2, 4}))
    assert trimmed.f0 == (2, 4) and trimmed.fr == (4, 2)


def test_normalize_flags_contradicted_pin():
    inst = edge_instance({1}, {1, 2}, (1, 2), (2, 2))
    with pytest.raises(InfeasibleList):
        normalize(inst)


def test_normalized_bounds_hold():
    for seed in range(60):
        inst = gen_random_instance(7, seed=100 + seed)
        trimmed, _ = normalize(inst)
        for v in range(trimmed.graph.n):
            assert 2 <= len(trimmed.lists[v]) <= trimmed.graph.degree(v) + 1


def test_trimmed_instance_replays_the_trace():
    for seed in range(40):
        inst = gen_random_instance(7, seed=300 + seed)
        trimmed, trace = normalize(inst)
        assert trace.trimmed is trimmed
        assert trimmed_instance(inst, trace) == trace.trimmed


def pinned_random_instance(rng: random.Random) -> LcrInstance:
    """Random graph with 1-6 colours and endpoints that need not be proper.

    About one vertex in five is pinned to a one-colour list, and a quarter
    of those pins disagree with fr, so forced chains, emptied lists and
    contradicted pins all occur next to rich vertices.
    """
    n = rng.randint(1, 10)
    k = rng.randint(1, 6)
    p = rng.random() * 0.6
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    lists = [set(rng.sample(range(k), rng.randint(1, k))) for _ in range(n)]
    f0 = [rng.choice(sorted(lst)) for lst in lists]
    fr = [rng.choice(sorted(lst)) for lst in lists]
    for v in range(n):
        if rng.random() < 0.2:
            lists[v] = {f0[v]}
            fr[v] = f0[v] if rng.random() < 0.75 else rng.randrange(k)
    return make_instance(Graph(n, edges), lists, f0, fr)


def test_normalize_matches_the_rescanning_reference():
    rng = random.Random(2024)
    seen = set()
    for _ in range(2500):
        inst = pinned_random_instance(rng)
        try:
            want = quadratic_normalize(inst)
        except InfeasibleList as exc:
            with pytest.raises(InfeasibleList) as got:
                normalize(inst)
            assert str(got.value) == str(exc)
            seen.add("pinned" if "pinned" in str(exc) else "emptied")
            continue
        trimmed, trace = normalize(inst)
        assert trace.removals == want[1].removals
        assert trace.kept == want[1].kept
        assert trimmed.lists == want[0].lists
        assert trimmed.graph.edges == want[0].graph.edges
        assert (trimmed.f0, trimmed.fr) == (want[0].f0, want[0].fr)
        for rem in trace.removals:
            seen.add(type(rem).__name__)
            v = rem.vertex
            if isinstance(rem, RichListRemoval) and len(inst.lists[v]) < (
                inst.graph.degree(v) + 2
            ):
                seen.add("made rich by a removal")
    assert seen == {
        "pinned",
        "emptied",
        "SingletonRemoval",
        "RichListRemoval",
        "made rich by a removal",
    }


def test_normalize_keeps_untrimmed_lists_and_reads_no_degree(monkeypatch):
    def no_degree(self, v):
        raise AssertionError("normalize reads degrees from the rows")

    monkeypatch.setattr(Graph, "degree", no_degree)
    rng = random.Random(2025)
    kept = trimmed_count = 0
    for _ in range(3000):
        inst = pinned_random_instance(rng)
        try:
            trimmed, trace = normalize(inst)
        except InfeasibleList:
            continue
        shrunk = {
            u for rem in trace.removals if isinstance(rem, SingletonRemoval)
            for u in rem.affected
        }
        for new, old in enumerate(trace.kept):
            if old in shrunk:
                trimmed_count += 1
                assert trimmed.lists[new] < inst.lists[old]
            else:
                kept += 1
                assert trimmed.lists[new] is inst.lists[old]
    assert kept > 300 and trimmed_count > 150


def long_rich_path(n: int, chain: int) -> LcrInstance:
    """rich_case's shape: a one-colour head and ``chain`` two-colour links go
    as singletons; the 4-colour lists after them are rich from the start and
    go one by one in vertex order."""
    rng = random.Random(11)
    forced = [0]
    for _ in range(chain):
        forced.append(rng.choice([c for c in range(6) if c != forced[-1]]))
    lists = [{forced[0]}] + [{forced[i - 1], forced[i]} for i in range(1, chain + 1)]
    lists += [set(rng.sample(range(6), 4)) for _ in range(chain + 1, n)]
    f = list(forced)
    for v in range(chain + 1, n):
        f.append(min(lists[v] - {f[-1]}))
    return make_instance(path_graph(n), lists, f, f)


def test_normalize_scales_on_a_long_rich_path():
    n, chain = 20_000, 8
    trimmed, trace = normalize(long_rich_path(n, chain))
    kinds = [type(rem) for rem in trace.removals]
    assert kinds == [SingletonRemoval] * (chain + 1) + [RichListRemoval] * (
        n - chain - 1
    )
    assert [rem.vertex for rem in trace.removals] == list(range(n))
    assert trimmed.graph.n == 0 and trace.kept == ()


def test_normalize_pops_once_per_removal_and_pushes_each_vertex_once(monkeypatch):
    # no heap entry goes stale, and no vertex is queued twice
    calls = {"heappop": 0, "heappush": 0}

    def counted(name):
        def call(*args):
            calls[name] += 1
            return getattr(heapq, name)(*args)

        return call

    n = 20_000
    inst = long_rich_path(n, 8)
    monkeypatch.setattr(
        lcr.instance, "heapq", SimpleNamespace(**{k: counted(k) for k in calls})
    )
    _, trace = normalize(inst)
    assert len(trace.removals) == n
    assert calls["heappop"] == n
    assert calls["heappush"] <= n


def test_removal_records_are_named_immutable_tuples():
    single = SingletonRemoval(3, 1, (2, 4))
    rich = RichListRemoval(5, (0, 1, 2), (4, 6))
    assert (single.vertex, single.color, single.affected) == (3, 1, (2, 4))
    assert (rich.vertex, rich.colors, rich.neighbors) == (5, (0, 1, 2), (4, 6))
    assert isinstance(single, tuple) and tuple(rich) == (5, (0, 1, 2), (4, 6))
    # lifting and demo 03 tell the kinds apart by isinstance
    assert isinstance(single, SingletonRemoval)
    assert not isinstance(single, RichListRemoval)
    assert isinstance(rich, RichListRemoval)
    assert not isinstance(rich, SingletonRemoval)
    with pytest.raises(AttributeError):
        single.vertex = 0
    with pytest.raises(AttributeError):
        rich.colors = ()
    seen = {single: "single", rich: "rich"}
    assert seen[SingletonRemoval(3, 1, (2, 4))] == "single"
    assert seen[RichListRemoval(5, (0, 1, 2), (4, 6))] == "rich"


def test_normalize_preserves_the_answer():
    # the empty product makes the oracle answer yes on a fully trimmed instance
    for seed in range(120):
        inst = gen_random_instance(6, colors=3, seed=500 + seed)
        trimmed, _ = normalize(inst)
        assert oracle_decide(inst) == oracle_decide(trimmed)


# -- the peel ------------------------------------------------------------------


def test_peel_matches_the_rescanning_reference():
    assert peel(make_instance(Graph(0), [], [], [])) == []
    for inst in frozen_corpus():
        assert peel(inst) == rescanning_peel(inst)


def test_peel_preserves_the_answer():
    # the instance answers YES exactly when every piece does, cycles or
    # not, and YES when no piece is left
    shrunk = 0
    for seed in range(150):
        inst = gen_random_instance(6, colors=4, list_range=(2, 4), seed=700 + seed)
        pieces = peel(inst)
        shrunk += sum(map(len, pieces)) < inst.graph.n
        assert oracle_decide(inst) == all(oracle_decide(induced_instance(inst, p)) for p in pieces)
    assert shrunk >= 100


# -- frozen sets -----------------------------------------------------------------


def frozen_corpus():
    """Seeded instances of three kinds, raw and normalized: random graphs
    (with one-colour lists), small caterpillars and compiled layered ones."""
    for seed in range(300):
        yield gen_random_instance(7, edge_prob=0.3, colors=3, seed=seed)
        yield gen_random_instance(9, edge_prob=0.25, colors=3, list_range=(2, 3), seed=seed)
    yield from caterpillar_corpus(300, base_seed=9101, max_n=12)
    for _, red in layered_corpus(40, base_seed=9201):
        yield red.lcr


def test_frozen_no_matches_the_greatest_frozen_set():
    hits = misses = 0
    for raw in frozen_corpus():
        for inst in (raw, normalize(raw)[0]):
            found = frozen_no(inst)
            assert (found is not None) == has_frozen_no(inst)
            if found is None:
                misses += 1
                continue
            hits += 1
            assert found == sorted(set(found))
            assert set(found) <= greatest_frozen_set(inst)
            assert proves_no(inst, found)
    assert hits >= 200 and misses >= 200


def test_the_frozen_no_checker_fails_on_mutations():
    cycle = frozen_cycle()
    edge = make_instance(path_graph(2), [{0, 1}, {0, 1}], (0, 1), (1, 0))
    for inst in (cycle, edge):
        whole = range(inst.graph.n)
        assert proves_no(inst, frozen_no(inst)) and frozen_no(inst) == list(whole)
        # each vertex holds a colour that a neighbour has no other holder of
        for v in whole:
            assert not proves_no(inst, [u for u in whole if u != v])
    # f0's old colour at a recoloured vertex sits on no neighbour (f0 was
    # proper), so no set holding that vertex stays frozen
    recoloured = 0
    for raw in frozen_corpus():
        found = frozen_no(raw)
        if found is None:
            continue
        for v in found:
            for c in raw.lists[v] - {raw.f0[v]}:
                f0 = raw.f0[:v] + (c,) + raw.f0[v + 1:]
                mutant = LcrInstance(raw.graph, raw.lists, f0, raw.fr)
                assert not proves_no(mutant, found)
                recoloured += 1
        # and fr put back to f0 on the set leaves nothing to prove
        fr = tuple(raw.f0[v] if v in found else c for v, c in enumerate(raw.fr))
        assert not proves_no(LcrInstance(raw.graph, raw.lists, raw.f0, fr), found)
    assert recoloured >= 500


def test_a_frozen_set_is_a_no():
    checked = 0
    for inst in frozen_corpus():
        if frozen_no(inst) is not None:
            assert not oracle_decide(inst)
            checked += 1
    assert checked >= 200


def test_a_frozen_set_keeps_the_blockers_where_fr_agrees():
    # the winding path with {1,2} in place of {0,2} at vertex 2: f0 = (0,1,2)
    # now sees every other colour, and vertex 2, where fr agrees, holds the
    # colour that pins vertex 1; with {0,2} vertex 2 is free and nothing is
    frozen = make_instance(path_graph(3), [{0, 1}, {0, 1, 2}, {1, 2}], (0, 1, 2), (1, 0, 2))
    assert frozen_no(frozen) == [0, 1, 2]
    assert not proves_no(frozen, [0, 1])
    free = make_instance(path_graph(3), [{0, 1}, {0, 1, 2}, {0, 2}], (0, 1, 2), (1, 0, 2))
    assert frozen_no(free) is None and greatest_frozen_set(free) == set()
    # with f0 = fr there is nothing to look at, however frozen the instance
    cycle = frozen_cycle()
    still = LcrInstance(cycle.graph, cycle.lists, cycle.f0, cycle.f0)
    assert greatest_frozen_set(still) == set(range(30))
    assert frozen_no(still) is None


# -- witness lifting -------------------------------------------------------------


def test_lift_empty_sequence_without_removals():
    inst = edge_instance({1, 2}, {2, 3}, (1, 2), (1, 2))
    _, trace = normalize(inst)
    assert lift_sequence(trace, inst, []) == []


def test_lift_under_an_empty_trace_copies_nothing(monkeypatch):
    def refuse(self, vertices):
        raise AssertionError("induced_subgraph called under an empty trace")

    inst = edge_instance({1, 2}, {2, 3}, (1, 2), (2, 3))
    _, trace = normalize(inst)
    steps, _ = reachable(inst.graph, inst.lists, inst.f0, inst.fr)
    monkeypatch.setattr(Graph, "induced_subgraph", refuse)
    assert trace.trimmed is inst
    assert lift_sequence(trace, inst, steps) == steps == [(1, 3), (0, 2)]
    with pytest.raises(InvalidSequence):  # still checked against the instance
        lift_sequence(trace, inst, [(0, 1)])


def test_lift_reinserts_rich_vertex_moves():
    # vertex 0 is rich and vanishes; the lifted run must dodge it around
    # vertex 1's recoloring and park it on its target color afterwards
    inst = edge_instance({1, 2, 3}, {1, 2}, (1, 2), (2, 1))
    trimmed, trace = normalize(inst)
    assert trimmed.graph.n == 0
    lifted = lift_sequence(trace, inst, [])
    assert lifted == [(0, 3), (1, 1), (0, 2)]
    assert is_valid_sequence(inst, lifted)


def test_lift_with_removals_builds_no_graph(monkeypatch):
    # witnesses are checked against the trace's own trimmed instance
    cases = []
    for seed in range(60):
        inst = gen_random_instance(6, colors=4, seed=900 + seed)
        trimmed, trace = normalize(inst)
        if trace.removals and trimmed.graph.n:
            steps, _ = reachable(trimmed.graph, trimmed.lists, trimmed.f0, trimmed.fr)
            if steps:
                cases.append((inst, trace, steps))
    assert len(cases) >= 10
    builds = 0
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    lifted = [lift_sequence(trace, inst, steps) for inst, trace, steps in cases]
    assert builds == 0
    monkeypatch.undo()
    assert all(is_valid_sequence(c[0], seq) for c, seq in zip(cases, lifted))


def test_lift_keeps_forced_colors_for_singletons():
    inst = edge_instance({1}, {1, 2}, (1, 2), (1, 2))
    _, trace = normalize(inst)
    lifted = lift_sequence(trace, inst, [])
    assert lifted == []
    assert is_valid_sequence(inst, lifted)


def test_lift_rejects_sequences_invalid_on_the_trimmed_instance():
    inst = edge_instance({1, 2, 3}, {1, 2}, (1, 2), (2, 1))
    _, trace = normalize(inst)
    with pytest.raises(InvalidSequence):
        lift_sequence(trace, inst, [(0, 1)])


def test_lifted_witnesses_stay_valid():
    rng = random.Random(77)
    checked = 0
    for seed in range(200):
        inst = gen_random_instance(rng.randint(3, 7), colors=4, seed=700 + seed)
        trimmed, trace = normalize(inst)
        if trimmed.graph.n == 0:
            seq = []
        else:
            steps, _ = reachable(trimmed.graph, trimmed.lists, trimmed.f0, trimmed.fr)
            if steps is None:
                continue
            seq = steps
        lifted = lift_sequence(trace, inst, seq)
        assert is_valid_sequence(inst, lifted)
        checked += 1
    assert checked >= 100


def chain_then_rich_path(rng: random.Random) -> LcrInstance:
    """Path: a forcing chain, then 4-colour lists, then a short 2-3-colour tail.

    Vertex 0 has a one-colour list and each later chain vertex a two-colour
    list that loses one colour to its predecessor, so the chain goes as
    singletons; the 4-colour stretch then goes as rich vertices one by one,
    and whatever survives of the tail is left for the oracle.
    """
    n = rng.randint(8, 60)
    chain = rng.randint(1, 8)
    tail = rng.randint(0, 5)
    forced = [rng.randrange(6)]
    for _ in range(chain):
        forced.append(rng.choice([c for c in range(6) if c != forced[-1]]))
    lists = [{forced[0]}] + [{forced[i - 1], forced[i]} for i in range(1, chain + 1)]
    for v in range(chain + 1, n):
        size = 4 if v < n - tail else rng.randint(2, 3)
        lists.append(set(rng.sample(range(6), size)))

    def coloring() -> list[int]:
        f = list(forced)
        for v in range(chain + 1, n):
            f.append(rng.choice(sorted(lists[v] - {f[-1]})))
        return f

    return make_instance(path_graph(n), lists, coloring(), coloring())


def test_lifted_witnesses_stay_valid_behind_a_forcing_chain():
    rng = random.Random(4242)
    kinds = set()
    checked = 0
    for _ in range(150):
        inst = chain_then_rich_path(rng)
        trimmed, trace = normalize(inst)
        kinds.update(type(rem) for rem in trace.removals)
        seq, _ = reachable(trimmed.graph, trimmed.lists, trimmed.f0, trimmed.fr)
        if seq is None:
            continue
        lifted = lift_sequence(trace, inst, seq)
        assert is_valid_sequence(inst, lifted)
        checked += 1
    assert kinds == {SingletonRemoval, RichListRemoval}
    assert checked >= 100


# -- step validation ---------------------------------------------------------------


def test_empty_sequence_needs_equal_endpoints():
    same = edge_instance({1, 2}, {1, 2}, (1, 2), (1, 2))
    assert is_valid_sequence(same, [])
    different = edge_instance({1, 2}, {1, 2}, (1, 2), (2, 1))
    assert not is_valid_sequence(different, [])


def test_an_improper_start_makes_no_valid_sequence():
    # the one step would end in a proper fr; the start itself is the fault
    inst = edge_instance({1, 2}, {1, 2}, (1, 1), (2, 1))
    assert not is_valid_sequence(inst, [(0, 2)])


def test_single_vertex_recolor_step():
    inst = make_instance(Graph(1), [{1, 2}], (1,), (2,))
    assert is_valid_sequence(inst, [(0, 2)])


def test_colliding_first_step_is_invalid():
    inst = edge_instance({1, 2}, {1, 2}, (1, 2), (2, 1))
    assert not is_valid_sequence(inst, [(0, 2), (1, 1)])


def test_steps_must_change_the_vertex():
    inst = make_instance(Graph(1), [{1, 2}], (1,), (2,))
    assert not is_valid_sequence(inst, [(0, 1), (0, 2)])
    assert not is_valid_sequence(inst, [(0, 3)])
    assert not is_valid_sequence(inst, [(1, 2)])


def test_sequence_must_land_on_fr():
    inst = make_instance(Graph(1), [{1, 2, 3}], (1,), (2,))
    assert not is_valid_sequence(inst, [(0, 3)])
    assert is_valid_sequence(inst, [(0, 3), (0, 2)])


# -- restriction -------------------------------------------------------------------


def k13_instance():
    return make_instance(
        star_graph(3),
        [{0, 1}, {0, 1}, {1, 2}, {0, 2}],
        (0, 1, 1, 2),
        (1, 0, 2, 0),
    )


def test_restrict_full_prefix_is_the_whole_coloring():
    inst = k13_instance()
    assert restrict(inst, inst.f0, 4) == {0: 0, 1: 1, 2: 1, 3: 2}


def test_restrict_first_vertex_only():
    inst = k13_instance()
    # the solver ordering of this star starts at the promoted leaf 1
    assert restrict(inst, inst.f0, 1) == {1: 1}


def test_restrict_mid_prefix_projects_the_ordering():
    inst = k13_instance()
    assert restrict(inst, inst.f0, 2) == {1: 1, 0: 0}
    assert restrict(inst, inst.f0, 3) == {1: 1, 0: 0, 3: 2}


def test_restrict_rejects_bad_prefix_sizes():
    inst = k13_instance()
    with pytest.raises(OutOfRange):
        restrict(inst, inst.f0, 0)
    with pytest.raises(OutOfRange):
        restrict(inst, inst.f0, 5)
    with pytest.raises(PartialColoring):
        restrict(inst, (0, 1), 2)


# -- induced sub-instances ----------------------------------------------------------


def test_induced_instance_keeps_lists_and_endpoints():
    inst = make_instance(
        path_graph(4),
        [{1, 2}, {2, 3}, {3, 4}, {4, 5}],
        (1, 2, 3, 4),
        (2, 3, 4, 5),
    )
    # new ids 0, 1, 2 are old 0, 2, 3
    sub = induced_instance(inst, [2, 0, 3])
    assert sub.graph.edges == ((1, 2),)
    assert sub.lists == (frozenset({1, 2}), frozenset({3, 4}), frozenset({4, 5}))
    assert sub.f0 == (1, 3, 4) and sub.fr == (2, 4, 5)
    for vertices in ([0, 1, 2, 4], [-1, 0, 1, 2], [0, 9]):
        with pytest.raises(ValueError, match="out of range"):
            induced_instance(inst, vertices)
