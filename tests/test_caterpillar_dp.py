from __future__ import annotations

import pytest

from lcr import Graph, build, component_of, make_instance, oracle_decide
from lcr.caterpillar_dp import (
    EncodingGraph,
    SizeRecord,
    check_size_bound,
    encoding_history,
    step_leaf,
    step_spine,
)
from lcr.errors import IniLost, NotCaterpillar, NotNormalized
from lcr.graph import recognize_caterpillar
from lcr.instance import induced_instance
from lcr.reference import (
    contract_encoding,
    label_preserving_isomorphic,
    validate_encoding,
)

from .helpers import caterpillar_corpus, cycle_graph, sweep_answer


def branchy_caterpillar():
    """Spine 0-1-2-3 with leaf 4 on vertex 1; ordering (0, 1, 4, 2, 3)."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    return make_instance(
        g,
        [{1, 2}, {1, 2, 3}, {2, 3}, {1, 3}, {1, 2}],
        (1, 3, 2, 1, 2),
        (2, 3, 2, 3, 1),
    )


# -- initialization ----------------------------------------------------------------


def first_step(inst):
    return next(encoding_history(inst))[0]


def test_init_is_a_k2_with_endpoint_marks():
    inst = make_instance(Graph(1), [{1, 2}], (1,), (2,))
    assert first_step(inst) == EncodingGraph(
        cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1
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
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1)
    assert step_leaf(prev, [1, 2]) == EncodingGraph(
        cols=(1,), edges=(), ini=0, tar=None, step_index=2
    )


def test_leaf_disjoint_from_all_cols_changes_nothing():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1)
    assert step_leaf(prev, [3, 4]) == EncodingGraph(
        cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=2
    )


def test_leaf_can_isolate_the_middle_of_a_path():
    prev = EncodingGraph(
        cols=(1, 2, 1), edges=((0, 1), (1, 2)), ini=1, tar=0, step_index=3
    )
    assert step_leaf(prev, [1, 2]) == EncodingGraph(
        cols=(2,), edges=(), ini=0, tar=None, step_index=4
    )


def test_leaf_list_must_hold_two_colors():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1)
    with pytest.raises(NotNormalized):
        step_leaf(prev, [1])
    with pytest.raises(NotNormalized):
        step_leaf(prev, [1, 2, 3])


# -- spine steps ------------------------------------------------------------------


def test_spine_over_a_frozen_pair_keeps_only_the_start_side():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1)
    # two new e-nodes before extraction, one after
    assert step_spine(prev, [1, 2], 2, 1) == (
        EncodingGraph(cols=(2,), edges=(), ini=0, tar=None, step_index=2), 2
    )


def test_spine_with_fresh_colors_splits_one_node_into_a_free_edge():
    prev = EncodingGraph(cols=(1,), edges=(), ini=0, tar=0, step_index=1)
    assert step_spine(prev, [2, 3], 2, 3) == (
        EncodingGraph(cols=(2, 3), edges=((0, 1),), ini=0, tar=1, step_index=2),
        2,
    )


def test_spine_color_missing_from_prev_collects_everything():
    # members: col 1 keeps old e-node {1}, col 2 keeps {0}, col 9 keeps {0, 1};
    # the edges say col 9 meets both others, which share nothing
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1)
    eg, pre = step_spine(prev, [1, 2, 9], 9, 9)
    assert eg == EncodingGraph(
        cols=(1, 2, 9), edges=((0, 2), (1, 2)), ini=2, tar=2, step_index=2
    )
    assert pre == 3
    # the marks say which new e-node holds old ini 0 and old tar 1
    eg, _ = step_spine(prev, [1, 2, 9], 2, 1)
    assert eg == EncodingGraph(
        cols=(1, 2, 9), edges=((0, 2), (1, 2)), ini=1, tar=0, step_index=2
    )


def test_spine_step_records_component_members():
    # members: col 1 keeps old e-node {1}, col 3 keeps {0, 1}
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1)
    assert step_spine(prev, [1, 3], 3, 3)[0] == EncodingGraph(
        cols=(1, 3), edges=((0, 1),), ini=1, tar=1, step_index=2
    )
    assert step_spine(prev, [1, 3], 3, 1)[0] == EncodingGraph(
        cols=(1, 3), edges=((0, 1),), ini=1, tar=0, step_index=2
    )
    with pytest.raises(IniLost):  # old ini 0 is not in the col-1 e-node
        step_spine(prev, [1, 3], 1, 1)


def test_spine_endpoint_colors_must_come_from_the_list():
    prev = EncodingGraph(cols=(1, 2), edges=((0, 1),), ini=0, tar=1, step_index=1)
    with pytest.raises(ValueError):
        step_spine(prev, [1, 2], 7, 1)


# -- full sweeps --------------------------------------------------------------------


def test_history_on_the_branchy_caterpillar():
    inst = branchy_caterpillar()
    steps = list(encoding_history(inst))
    assert [rec for _, rec in steps] == [
        SizeRecord(1, 0, "init", 1, 2, 0, 2),
        SizeRecord(2, 1, "spine", 3, 3, 2, 3),
        SizeRecord(3, 4, "leaf", 1, 3, 3, 3),
        SizeRecord(4, 2, "spine", 2, 3, 3, 2),
        SizeRecord(5, 3, "spine", 1, 2, 2, 2),
    ]
    assert steps[1][0] == EncodingGraph(
        cols=(1, 2, 3), edges=((0, 2), (1, 2)), ini=2, tar=2, step_index=2
    )
    assert steps[2][0] == EncodingGraph(
        cols=(1, 2, 3), edges=((0, 2), (1, 2)), ini=2, tar=2, step_index=3
    )
    assert steps[4][0] == EncodingGraph(
        cols=(1, 3), edges=((0, 1),), ini=0, tar=1, step_index=5
    )
    assert check_size_bound([rec for _, rec in steps]) is None


def test_history_is_deterministic():
    inst = branchy_caterpillar()
    first = list(encoding_history(inst))
    second = list(encoding_history(inst))
    assert first == second


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
        for eg, rec in encoding_history(inst, st):
            validate_encoding(eg, spine_list=inst.lists[st.spine_of_prefix[rec.step - 1]])
            prefix = st.ordering[: rec.step]
            sub, id_map = induced_instance(inst, prefix)
            rg = build(sub.graph, sub.lists)
            comp = component_of(rg, sub.f0)
            oracle_eg = contract_encoding(
                rg, comp, id_map[st.spine_of_prefix[rec.step - 1]], sub.f0, sub.fr
            )
            assert label_preserving_isomorphic(eg, oracle_eg)


def test_size_bound_holds_on_random_caterpillars():
    for inst in caterpillar_corpus(60, base_seed=2301, max_n=12):
        recs = [rec for _, rec in encoding_history(inst)]
        assert check_size_bound(recs) is None
        assert recs[-1].final_size <= 2 + 2 * inst.graph.m
