from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

import lcr.caterpillar_dp
from lcr import Graph, build, component_of, make_instance, oracle_decide
from lcr.caterpillar_dp import (
    EncodingGraph,
    SizeRecord,
    check_size_bound,
    encoding_history,
)
from lcr.driver import solve_driver
from lcr.errors import IniLost, NotCaterpillar, NotNormalized
from lcr.generators import gen_caterpillar
from lcr.graph import reach, recognize_caterpillar
from lcr.instance import induced_instance

from . import helpers
from .helpers import (
    caterpillar_corpus,
    cycle_graph,
    load_sweep,
    reference_history,
    spine_of_prefix,
    sweep_answer,
)
from .reference import (
    contract_encoding,
    label_preserving_isomorphic,
    validate_encoding,
)


def branchy_caterpillar():
    """Spine 0-1-2-3 with leaf 4 on vertex 1; ordering (0, 1, 4, 2, 3)."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    return make_instance(
        g,
        [{1, 2}, {1, 2, 3}, {2, 3}, {1, 3}, {1, 2}],
        (1, 3, 2, 1, 2),
        (2, 3, 2, 3, 1),
    )


def snapshots(inst, structure=None):
    return [(s.snapshot(), rec) for s, rec in encoding_history(inst, structure)]


def engine_leaf(prev, leaf_list):
    sweep = load_sweep(prev)
    sweep.leaf(leaf_list)
    return sweep.snapshot()


def engine_spine(prev, spine_list, f0_color, fr_color):
    sweep = load_sweep(prev)
    pre = sweep.spine(spine_list, f0_color, fr_color)
    return sweep.snapshot(), pre


# the rebuilding reference and the working-state engine must agree on each case
LEAF_STEPS = (helpers.step_leaf, engine_leaf)
SPINE_STEPS = (helpers.step_spine, engine_spine)


# -- initialization ----------------------------------------------------------------


def first_step(inst):
    return next(encoding_history(inst))[0].snapshot()


def test_init_is_a_k2_with_endpoint_marks():
    inst = make_instance(Graph(1), [{1, 2}], (1,), (2,))
    assert first_step(inst) == EncodingGraph(
        cols=(1, 2), edges=((0, 1),), ini=0, tar=1
    )


def test_init_with_equal_endpoints_marks_one_node_twice():
    inst = make_instance(Graph(1), [{1, 2}], (1,), (1,))
    eg = first_step(inst)
    assert eg.ini == 0 and eg.tar == 0


def test_init_uses_color_ids_verbatim():
    inst = make_instance(Graph(1), [{5, 9}], (9,), (5,))
    eg = first_step(inst)
    assert eg.cols == (5, 9) and eg.ini == 1 and eg.tar == 0


def test_init_requires_a_two_color_list():
    inst = make_instance(Graph(1), [{1, 2, 3}], (1,), (2,))
    with pytest.raises(NotNormalized):
        first_step(inst)


# -- leaf steps -------------------------------------------------------------------


def test_leaf_with_the_same_pair_cuts_the_k2():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_leaf in LEAF_STEPS:
        assert step_leaf(prev, [1, 2]) == EncodingGraph(
            cols=(1,), edges=(), ini=0, tar=None
        )


def test_leaf_disjoint_from_all_cols_changes_nothing():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_leaf in LEAF_STEPS:
        assert step_leaf(prev, [3, 4]) == EncodingGraph(
            cols=(1, 2), edges=((0, 1),), ini=0, tar=1
        )


def test_leaf_can_isolate_the_middle_of_a_path():
    prev = EncodingGraph(
        cols=(1, 2, 1), edges=((0, 1), (1, 2)), ini=1, tar=0
    )
    for step_leaf in LEAF_STEPS:
        assert step_leaf(prev, [1, 2]) == EncodingGraph(
            cols=(2,), edges=(), ini=0, tar=None
        )


def test_leaf_list_must_hold_two_colors():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_leaf in LEAF_STEPS:
        with pytest.raises(NotNormalized):
            step_leaf(prev, [1])
        with pytest.raises(NotNormalized):
            step_leaf(prev, [1, 2, 3])


def test_leaf_list_is_read_as_a_set():
    prev = EncodingGraph(cols=(1, 2, 1), edges=((0, 1), (1, 2)), ini=1, tar=0)
    for step_leaf in LEAF_STEPS:
        with pytest.raises(NotNormalized):  # one color, twice
            step_leaf(prev, [1, 1])
        assert step_leaf(prev, [1, 2, 2]) == step_leaf(prev, [1, 2])


# -- spine steps ------------------------------------------------------------------


def test_spine_over_a_frozen_pair_keeps_only_the_start_side():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_spine in SPINE_STEPS:
        # two new e-nodes before extraction, one after
        assert step_spine(prev, [1, 2], 2, 1) == (
            EncodingGraph(cols=(2,), edges=(), ini=0, tar=None), 2
        )


def test_spine_with_fresh_colors_splits_one_node_into_a_free_edge():
    prev = EncodingGraph(cols=(1,), edges=(), ini=0, tar=0)
    for step_spine in SPINE_STEPS:
        assert step_spine(prev, [2, 3], 2, 3) == (
            EncodingGraph(cols=(2, 3), edges=((0, 1),), ini=0, tar=1),
            2,
        )


def test_spine_color_missing_from_prev_collects_everything():
    # members: col 1 keeps old e-node {1}, col 2 keeps {0}, col 9 keeps {0, 1};
    # the edges say col 9 meets both others, which share nothing
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_spine in SPINE_STEPS:
        eg, pre = step_spine(prev, [1, 2, 9], 9, 9)
        assert eg == EncodingGraph(
            cols=(1, 2, 9), edges=((0, 2), (1, 2)), ini=2, tar=2
        )
        assert pre == 3
        # the marks say which new e-node holds old ini 0 and old tar 1
        eg, _ = step_spine(prev, [1, 2, 9], 2, 1)
        assert eg == EncodingGraph(
            cols=(1, 2, 9), edges=((0, 2), (1, 2)), ini=1, tar=0
        )


def test_spine_step_records_component_members():
    # members: col 1 keeps old e-node {1}, col 3 keeps {0, 1}
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_spine in SPINE_STEPS:
        assert step_spine(prev, [1, 3], 3, 3)[0] == EncodingGraph(
            cols=(1, 3), edges=((0, 1),), ini=1, tar=1
        )
        assert step_spine(prev, [1, 3], 3, 1)[0] == EncodingGraph(
            cols=(1, 3), edges=((0, 1),), ini=1, tar=0
        )
        with pytest.raises(IniLost):  # old ini 0 is not in the col-1 e-node
            step_spine(prev, [1, 3], 1, 1)


def test_spine_list_is_read_as_a_set():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_spine in SPINE_STEPS:
        for f0_color, fr_color in ((2, 1), (3, 1), (3, 3)):
            assert step_spine(prev, [2, 2, 1, 3], f0_color, fr_color) == step_spine(
                prev, [1, 2, 3], f0_color, fr_color
            )


def test_spine_endpoint_colors_must_come_from_the_list():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1)
    for step_spine in SPINE_STEPS:
        with pytest.raises(ValueError):
            step_spine(prev, [1, 2], 7, 1)


# -- full sweeps --------------------------------------------------------------------


def test_history_on_the_branchy_caterpillar():
    inst = branchy_caterpillar()
    steps = snapshots(inst)
    assert [rec for _, rec in steps] == [
        SizeRecord(1, 0, "init", 1, 2, 0, 2),
        SizeRecord(2, 1, "spine", 3, 3, 2, 3),
        SizeRecord(3, 4, "leaf", 1, 3, 3, 3),
        SizeRecord(4, 2, "spine", 2, 3, 3, 2),
        SizeRecord(5, 3, "spine", 1, 2, 2, 2),
    ]
    assert steps[1][0] == EncodingGraph(
        cols=(1, 2, 3), edges=((0, 2), (1, 2)), ini=2, tar=2
    )
    assert steps[2][0] == EncodingGraph(
        cols=(1, 2, 3), edges=((0, 2), (1, 2)), ini=2, tar=2
    )
    assert steps[4][0] == EncodingGraph(
        cols=(1, 3), edges=((0, 1),), ini=0, tar=1
    )
    assert check_size_bound([rec for _, rec in steps]) is None


def test_history_is_deterministic():
    inst = branchy_caterpillar()
    assert snapshots(inst) == snapshots(inst)


def engine_corpus():
    corpus = caterpillar_corpus(150, base_seed=2401)
    corpus += [  # 3-colour paths: the encoding gains one e-node per step
        gen_caterpillar(n, leaf_prob=0, colors=3, list_range=(3, 3), seed=n)
        for n in range(2, 61)
    ]
    corpus += [  # leafy: one leaf on every spine vertex, tiny encodings
        gen_caterpillar(
            spine, colors=6, list_range=(2, 3), leaves_per_spine=1, seed=seed
        )
        for spine, seed in ((40, 1), (80, 2), (160, 3))
    ]
    return corpus


def test_engine_matches_the_rebuilding_reference():
    seen = set()
    for inst in engine_corpus():
        ref = reference_history(inst)
        assert snapshots(inst) == ref
        for (prev, _), (eg, rec) in zip(ref, ref[1:]):
            if rec.kind == "leaf":
                pair = set(inst.lists[rec.vertex])
                cut = any({prev.cols[x], prev.cols[y]} == pair for x, y in prev.edges)
                seen.add("leaf cuts edges" if cut else "leaf cuts nothing")
            if rec.final_size < rec.pre_extraction:
                seen.add("extraction drops e-nodes")
            if prev.tar is not None and eg.tar is None:
                seen.add("tar lost")
    assert seen == {
        "leaf cuts edges", "leaf cuts nothing", "extraction drops e-nodes", "tar lost"
    }


def test_sweep_matches_the_owner_lists_and_skipped_extractions_stay_connected(
    monkeypatch,
):
    seen = set()
    for inst in engine_corpus():
        with monkeypatch.context() as m:
            m.setattr(lcr.caterpillar_dp, "Sweep", helpers.OwnerListSweep)
            ref = [(s.snapshot(), rec) for s, rec in encoding_history(inst)]
        for (sweep, rec), ref_step in zip(encoding_history(inst), ref, strict=True):
            assert (sweep.snapshot(), rec) == ref_step
            if rec.kind == "spine":
                # a spine step of three colors or more skips its extraction
                if len(set(inst.lists[rec.vertex])) == 2:
                    seen.add("extracted")
                else:
                    seen.add("extraction skipped")
                    reached = reach(sweep.adj, sweep.ini, [-1] * len(sweep))
                    assert len(reached) == len(sweep)
    assert seen == {"extracted", "extraction skipped"}


def test_link_phase_joins_the_owners_of_each_old_enode():
    arms = Counter()
    for inst in engine_corpus():
        history = [(s.snapshot(), rec) for s, rec in encoding_history(inst)]
        for (prev, _), (_, rec) in zip(history, history[1:]):
            if rec.kind != "spine":
                continue
            v = rec.vertex
            step = (inst.lists[v], inst.f0[v], inst.fr[v])
            sweep = load_sweep(prev)
            ref = helpers.OwnerListSweep(prev.cols, prev.edges, prev.ini, prev.tar)
            sweep.spine(*step)
            ref.spine(*step)
            assert sweep.snapshot() == ref.snapshot()
            # before extraction the new edges are exactly the owners' cliques
            whole = load_sweep(prev)
            new_cols, owners = helpers.owner_lists(
                whole.cols, whole.adj, sorted(set(step[0]))
            )
            whole._extract = lambda: None
            whole.spine(*step)
            cliques, linked = [set() for _ in new_cols], Counter()
            for own in owners:
                if len(own) > 1:
                    arms["two owners" if len(own) == 2 else "three or more"] += 1
                for p, q in combinations(own, 2):
                    cliques[p].add(q)
                    cliques[q].add(p)
                    linked[p, q] += 1
            assert (whole.cols, whole.adj) == (new_cols, cliques)
            if max(linked.values(), default=0) > 1:
                arms["repeated owner pair"] += 1
    # 37,583 and 268 old e-nodes take the two arms; 363 steps repeat a pair
    assert set(arms) == {"two owners", "three or more", "repeated owner pair"}


def test_sweep_agrees_with_the_oracle_on_three_color_paths():
    answers = []
    for n in range(2, 13):
        for seed in range(12):
            inst = gen_caterpillar(
                n, leaf_prob=0, colors=3, list_range=(3, 3), seed=seed
            )
            answer = solve_driver(inst, "caterpillar").answer
            assert answer == oracle_decide(inst), (n, seed)
            answers.append(answer)
    assert set(answers) == {True, False}


def test_size_bound_flags_the_offending_step():
    good = SizeRecord(1, 0, "init", 1, 2, 0, 2)
    assert check_size_bound([good]) is None
    assert check_size_bound([SizeRecord(1, 0, "init", 1, 3, 0, 3)]) == 1
    assert (
        check_size_bound([good, SizeRecord(2, 1, "spine", 2, 5, 2, 5)]) == 2
    )
    assert check_size_bound([good, SizeRecord(2, 1, "spine", 2, 4, 2, 4)]) is None


# -- decisions ------------------------------------------------------------------------


def test_solve_single_vertex_swap():
    assert sweep_answer(make_instance(Graph(1), [{1, 2}], (1,), (2,))) is True


def test_solve_frozen_edge():
    inst = make_instance(Graph(2, [(0, 1)]), [{1, 2}, {1, 2}], (1, 2), (2, 1))
    assert sweep_answer(inst) is False


def test_solve_mixed_edge():
    inst = make_instance(Graph(2, [(0, 1)]), [{1, 2}, {2, 3}], (1, 2), (2, 3))
    assert sweep_answer(inst) is True


def test_solve_rejects_non_caterpillars():
    inst = make_instance(
        cycle_graph(4), [{1, 2, 3}] * 4, (1, 2, 1, 2), (2, 1, 2, 1)
    )
    with pytest.raises(NotCaterpillar):
        sweep_answer(inst)


def test_solve_rejects_disconnected_graphs():
    inst = make_instance(Graph(2), [{1, 2}, {1, 2}], (1, 1), (2, 2))
    with pytest.raises(NotCaterpillar):
        sweep_answer(inst)


def test_solve_rejects_unnormalized_lists():
    small = make_instance(Graph(2, [(0, 1)]), [{1}, {1, 2}], (1, 2), (1, 2))
    with pytest.raises(NotNormalized):
        sweep_answer(small)
    rich = make_instance(
        Graph(2, [(0, 1)]), [{1, 2, 3}, {1, 2}], (1, 2), (3, 2)
    )
    with pytest.raises(NotNormalized):
        sweep_answer(rich)


def test_solve_agrees_with_the_oracle_on_random_caterpillars():
    for inst in caterpillar_corpus(60, base_seed=2101, max_n=11):
        assert sweep_answer(inst) == oracle_decide(inst)


def test_every_prefix_matches_the_contracted_oracle_component():
    for inst in caterpillar_corpus(15, base_seed=2201, max_n=9):
        st = recognize_caterpillar(inst.graph)
        spines = spine_of_prefix(st)
        for eg, rec in snapshots(inst, st):
            validate_encoding(eg, spine_list=inst.lists[spines[rec.step - 1]])
            prefix = st.ordering[: rec.step]
            sub = induced_instance(inst, prefix)  # new id i is sorted(prefix)[i]
            rg = build(sub.graph, sub.lists)
            comp = component_of(rg, sub.f0)
            oracle_eg = contract_encoding(
                rg, comp, sorted(prefix).index(spines[rec.step - 1]), sub.f0, sub.fr
            )
            assert label_preserving_isomorphic(eg, oracle_eg)


def test_size_bound_holds_on_random_caterpillars():
    for inst in caterpillar_corpus(60, base_seed=2301, max_n=12):
        recs = [rec for _, rec in encoding_history(inst)]
        assert check_size_bound(recs) is None
        assert recs[-1].final_size <= 2 + 2 * inst.graph.m
