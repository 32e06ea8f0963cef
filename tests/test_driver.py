from __future__ import annotations

import hashlib
import random

import pytest

import lcr.caterpillar_dp
import lcr.driver
import lcr.heights
import lcr.oracle
from lcr import Graph, is_valid_sequence, make_instance
from lcr.caterpillar_dp import encoding_history
from lcr.driver import solve_driver
from lcr.errors import ImproperEndpoints, NotCaterpillar, StateSpaceTooLarge
from lcr.generators import gen_caterpillar
from lcr.graph import recognize_caterpillar
from lcr.instance import Certificate, induced_instance, normalize, peel

from .helpers import (
    _shuffled_coloring,
    beside_a_huge_cycle,
    caterpillar_corpus,
    cycle_graph,
    even_cycle_no,
    four_colour_no,
    frozen_cycle,
    gen_random_instance,
    has_frozen_no,
    huge_cycle,
    layered_corpus,
    outside_heights,
    proves,
    proves_no,
    rescanning_peel,
    shared_colours_no,
    shared_colours_yes,
    side_by_side,
    sweep_answer,
    tree_from_prufer,
    winding_path,
)


def mixed_edge():
    return make_instance(Graph(2, [(0, 1)]), [{1, 2}, {2, 3}], (1, 2), (2, 3))


def two_component_instance(yes_first=False):
    """Frozen edge on {0,1} next to a mixed edge on {2,3}, or with
    ``yes_first`` the mixed edge on {0,1} and the frozen one on {2,3}."""
    frozen = make_instance(Graph(2, [(0, 1)]), [{1, 2}, {1, 2}], (1, 2), (2, 1))
    return side_by_side(mixed_edge(), frozen) if yes_first else side_by_side(frozen, mixed_edge())


def four_colour_edge():
    return make_instance(Graph(2, [(0, 1)]), [{1, 2}, {3, 4}], (1, 3), (2, 4))


def hidden_no_components(yes_first=False):
    """The four-colour NO on {0..4} next to a four-colour edge on {5,6}, or
    with ``yes_first`` the edge on {0,1} and the NO on {2..6}: a NO that no
    frozen set shows and the heights do not take whole, so ``auto`` with a
    witness has to run the oracle to find it.  With none, the peel takes
    the NO's vertex of colour 3 and the whole edge, and the heights answer
    what is left."""
    if yes_first:
        inst = side_by_side(four_colour_edge(), four_colour_no())
    else:
        inst = side_by_side(four_colour_no(), four_colour_edge())
    assert not has_frozen_no(inst) and outside_heights(inst)
    return inst


def frozen_head_path():
    """A 5-vertex path whose first edge is frozen and the rest mixed: the
    sweep loses tar at step 2 of 5."""
    return make_instance(
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        [{1, 2}, {1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4}],
        (1, 2, 1, 2, 3),
        (2, 1, 3, 4, 3),
    )


def sweep_histories(inst):
    """The whole sweep on each caterpillar component of the normalized
    instance, in the driver's component order: (size record, whether tar is
    kept) per step."""
    trimmed, _ = normalize(inst)
    subs = [induced_instance(trimmed, comp) for comp in trimmed.graph.connected_components()]
    return [
        [(rec, sweep.tar is not None) for sweep, rec in encoding_history(sub)]
        for sub in subs
        if recognize_caterpillar(sub.graph) is not None
    ]


def records_run(inst):
    """The size records the driver's sweep runs on an instance whose
    components are all caterpillars: each component's up to the step that
    loses tar, and the components up to the first that loses it."""
    runs = []
    for history in sweep_histories(inst):
        kept = [tar for _, tar in history]
        if False in kept:
            runs.append([rec for rec, _ in history[: kept.index(False) + 1]])
            break
        runs.append([rec for rec, _ in history])
    return runs


def test_auto_recognizes_each_component_once(monkeypatch):
    calls = []
    for module in (lcr.driver, lcr.caterpillar_dp):
        def counting(g, original=module.recognize_caterpillar):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(module, "recognize_caterpillar", counting)
    # the NO path comes last or first, so a YES after it is never reached;
    # a neighbour lists each colour of both, so the peel keeps them whole
    for yes_first, sizes in ((True, [4, 5]), (False, [5])):
        calls.clear()
        yes, no = shared_colours_yes(), shared_colours_no()
        report = solve_driver(side_by_side(yes, no) if yes_first else side_by_side(no, yes))
        assert report.algorithm == "caterpillar"
        assert [c.answer for c in report.components] == [True, False][-len(sizes):]
        assert calls == sizes


def test_auto_sweeps_a_large_caterpillar_beside_a_triangle():
    # an 8-vertex path (2916 colorings) is past the cap of 100 and must be
    # swept; the triangle (27 colorings), whose last vertex moves, goes to
    # the oracle; colour 4 in each keeps them from the heights, and a
    # neighbour lists each colour of the path, so the peel keeps it whole
    inst = make_instance(
        Graph(11, [(i, i + 1) for i in range(7)] + [(8, 9), (9, 10), (8, 10)]),
        [{1, 2}] + [{1, 2, 3}] * 5 + [{1, 2, 4}, {2, 4}] + [{1, 2, 3}] * 2 + [{2, 3, 4}],
        (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 3),
        (1, 3, 1, 3, 1, 3, 1, 2, 1, 2, 4),
    )
    assert outside_heights(inst)
    report = solve_driver(inst, "auto", state_cap=100)
    assert report.answer == solve_driver(inst, "bruteforce").answer
    assert report.algorithm == "mixed"
    assert [c.algorithm for c in report.components] == ["caterpillar", "bruteforce"]


def test_a_plain_solve_never_snapshots_the_sweep(monkeypatch):
    def refuse(self):
        raise AssertionError("snapshot taken without an observer")

    monkeypatch.setattr(lcr.caterpillar_dp.Sweep, "snapshot", refuse)
    for inst in caterpillar_corpus(20, base_seed=7201, max_n=10):
        solve_driver(inst, algo="caterpillar")


def test_the_observer_sees_every_sweep_step():
    # every step that runs: the frozen edge loses its tar and ends the run,
    # so the mixed edge, which would keep it, is never swept
    inst = two_component_instance()
    seen = []
    report = solve_driver(
        inst, algo="caterpillar",
        observer=lambda sweep, rec: seen.append((sweep.snapshot(), rec)),
    )
    assert report.answer is False
    assert [rec for _, rec in seen] == sum(records_run(inst), [])
    assert [rec.kind for _, rec in seen] == ["init", "spine"]
    assert [eg.tar is not None for eg, _ in seen] == [True, False]
    assert [history[-1][1] for history in sweep_histories(inst)] == [False, True]


def test_a_sweep_stops_at_the_step_that_loses_tar():
    inst = frozen_head_path()
    history = sweep_histories(inst)[0]
    k = [tar for _, tar in history].index(False) + 1
    n = inst.graph.n
    assert k < n and len(history) == n
    seen = []
    report = solve_driver(
        inst, algo="caterpillar", observer=lambda sweep, rec: seen.append(rec.step),
    )
    assert seen == list(range(1, k + 1))
    (comp,) = report.components
    assert (comp.answer, comp.steps) == (False, k)
    # the summary covers the steps that ran
    ran = [rec for rec, _ in history[:k]]
    assert comp.enode_peak == max(rec.pre_extraction for rec in ran)
    assert comp.slack_min == min(rec.bound - rec.pre_extraction for rec in ran)


def count_engine_calls(monkeypatch):
    """Record, by name, each call of the pieces a component run uses."""
    calls = []
    for module, name in ((lcr.driver, "induced_instance"),
                         (lcr.heights, "decide"),
                         (lcr.driver, "peel"),
                         (lcr.driver, "recognize_caterpillar"),
                         (lcr.caterpillar_dp, "encoding_history"),
                         (lcr.oracle, "reachable")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("algo, want_witness", [
    ("auto", False), ("auto", True), ("bruteforce", False),
])
def test_the_run_stops_at_the_first_no_component(monkeypatch, algo, want_witness):
    calls = count_engine_calls(monkeypatch)
    inst = side_by_side(shared_colours_no(), shared_colours_yes())
    report = solve_driver(inst, algo, want_witness=want_witness)
    assert report.answer is False and report.witness is None
    assert [c.vertices for c in report.components] == [(0, 1, 2, 3, 4)]
    # one of each call, all for the NO path: under auto the heights are
    # asked first, and bruteforce never asks them; a sweeping run peels the
    # tree first, which keeps it whole
    swept = algo == "auto" and not want_witness
    assert calls == ["induced_instance"] + (["decide"] if algo == "auto" else []) + (
        ["peel", "recognize_caterpillar", "encoding_history"] if swept else ["reachable"]
    )


def oracle_bound_corpus():
    """Instances whose components reach the oracle under ``auto --witness``
    and ``bruteforce``: a NO that no frozen set shows, a YES beside it, and
    compiled layered instances within the cap."""
    return [four_colour_no(), hidden_no_components(), hidden_no_components(True)] + [
        red.lcr for _, red in layered_corpus(30, base_seed=7501, max_states=20_000)
    ]


def test_the_oracle_builds_no_reconfiguration_graph(monkeypatch):
    corpus = oracle_bound_corpus()
    runs = [(algo, witness) for algo in ("auto", "bruteforce") for witness in (False, True)]

    def reports_of(inst):
        return [solve_driver(inst, algo, want_witness=witness) for algo, witness in runs]

    expected = [reports_of(inst) for inst in corpus]
    assert any(c.oracle_nodes for reports in expected for r in reports for c in r.components)

    def refuse(*args, **kwargs):
        raise AssertionError("oracle.build called on the solve path")

    monkeypatch.setattr(lcr.oracle, "build", refuse)
    assert [reports_of(inst) for inst in corpus] == expected


@pytest.mark.parametrize("algo, want_witness", [("auto", True), ("bruteforce", False)])
def test_the_oracle_answers_no_on_four_colours(monkeypatch, algo, want_witness):
    inst = four_colour_no()
    assert not has_frozen_no(inst) and outside_heights(inst)
    calls = count_engine_calls(monkeypatch)
    report = solve_driver(inst, algo, want_witness=want_witness)
    assert (report.answer, report.algorithm, report.witness) == (False, "bruteforce", None)
    (comp,) = report.components
    assert (comp.vertices, comp.answer) == ((0, 1, 2, 3, 4), False)
    assert calls == ["induced_instance"] + (["decide"] if algo == "auto" else []) + ["reachable"]
    # the instance is normalized and connected, so it is its one component;
    # its 15 colourings fall in two components of the reconfiguration graph,
    # and the search sees 10 of them before one side runs out
    assert lcr.oracle.reachable(inst.graph, inst.lists, inst.f0, inst.fr) == (None, 10)
    assert comp.oracle_nodes == 10
    assert len(lcr.oracle.build(inst.graph, inst.lists).nodes) == 15


@pytest.mark.parametrize("algo, want_witness", [("auto", True), ("bruteforce", False)])
def test_a_refusal_is_the_one_build_raises(algo, want_witness):
    # four_colour_no has 2 * 3 * 3 * 2 * 2 = 72 list colourings; a cap of 10
    # is passed at the third vertex, at 18
    inst = four_colour_no()
    with pytest.raises(StateSpaceTooLarge) as refused:
        solve_driver(inst, algo, want_witness=want_witness, state_cap=10)
    with pytest.raises(StateSpaceTooLarge) as built:
        lcr.oracle.build(inst.graph, inst.lists, 10)
    assert str(refused.value) == str(built.value)
    assert (refused.value.size, refused.value.cap) == (built.value.size, built.value.cap)
    assert built.value.size == 18


def test_a_frozen_no_runs_no_engine_under_auto(monkeypatch):
    calls = count_engine_calls(monkeypatch)
    for yes_first, frozen in ((False, (0, 1)), (True, (2, 3))):
        inst = two_component_instance(yes_first)
        for want_witness in (False, True):
            report = solve_driver(inst, "auto", want_witness=want_witness)
            certificate = Certificate("frozen", frozen)
            assert report == lcr.driver.SolveReport(False, "frozen", None, [], certificate)
        assert calls == []
        # the engines the tests take as references still run on it
        swept = solve_driver(inst, "caterpillar")
        assert calls.count("encoding_history") == len(swept.components) >= 1
        assert "reachable" not in calls
        calls.clear()
        brute = solve_driver(inst, "bruteforce")
        assert calls.count("reachable") == len(brute.components) >= 1
        assert "encoding_history" not in calls
        assert not swept.answer and not brute.answer
        assert swept.certificate is brute.certificate is None
        calls.clear()


def test_a_frozen_no_past_the_cap_answers_under_auto():
    # the oracle refuses the frozen cycle's 3^30 colourings, and the sweep
    # takes no cycle; its frozen set answers before either is asked
    inst = frozen_cycle()
    for want_witness in (False, True):
        report = solve_driver(inst, "auto", want_witness=want_witness)
        assert (report.answer, report.algorithm) == (False, "frozen")
        assert report.certificate == ("frozen", tuple(range(30)))
    with pytest.raises(StateSpaceTooLarge):
        solve_driver(inst, "bruteforce")
    with pytest.raises(NotCaterpillar):
        solve_driver(inst, "caterpillar")


def frozen_corpus():
    """Random graphs (one-colour lists and rich ones included, so that
    normalization removes vertices), small caterpillars and compiled layered
    instances."""
    for seed in range(400):
        yield gen_random_instance(7, edge_prob=0.3, colors=3, seed=8100 + seed)
        yield gen_random_instance(8, edge_prob=0.3, colors=4, seed=8100 + seed)
    yield from caterpillar_corpus(300, base_seed=8301, max_n=10)
    for _, red in layered_corpus(150, base_seed=8401, density_range=(0.2, 0.5)):
        yield red.lcr


def test_auto_takes_the_frozen_shortcut_exactly_when_the_reference_does():
    frozen = needs_singletons = 0
    for inst in frozen_corpus():
        expect = inst.f0 != inst.fr and has_frozen_no(inst)
        brute = solve_driver(inst, "bruteforce").answer
        for want_witness in (False, True):
            report = solve_driver(inst, "auto", want_witness=want_witness)
            assert (report.algorithm == "frozen") == expect
            if not expect:
                assert report.certificate is None or report.certificate.kind != "frozen"
                continue
            # the set is checked against the input, and the oracle agrees
            assert report.answer is brute is False
            assert report.witness is None and report.components == []
            assert proves(inst, report.certificate)
        if expect:
            frozen += 1
            trimmed_only = set(normalize(inst)[1].kept) & set(report.certificate.vertices)
            needs_singletons += not proves_no(inst, sorted(trimmed_only))
    assert frozen >= 150 and needs_singletons >= 30


def corpora():
    """The seeded corpora the stop is checked on: small caterpillars, and
    small random graphs, some not caterpillars; those with two-colour lists
    keep several components through normalization."""
    yield from caterpillar_corpus(40, base_seed=7501, max_n=10)
    for seed in range(60):
        yield gen_random_instance(7, edge_prob=0.25, colors=3, seed=seed)
        yield gen_random_instance(10, edge_prob=0.15, colors=3, list_range=(2, 2), seed=seed)
    # most NOs above have a frozen set, which answers before any component
    # runs; the four-colour NO first leaves auto a NO to find by the sweep
    for seed in range(40):
        rest = gen_random_instance(10, edge_prob=0.15, colors=3, list_range=(2, 3), seed=seed)
        yield side_by_side(four_colour_no(), rest)


def whole_sweep_answer(inst):
    """The answer from whole sweep histories on the caterpillar components
    and the oracle on the others, with no component left out."""
    trimmed, _ = normalize(inst)
    answers = []
    for comp in trimmed.graph.connected_components():
        sub = induced_instance(trimmed, comp)
        if recognize_caterpillar(sub.graph) is not None:
            answers.append(sweep_answer(sub))
        else:
            answers.append(solve_driver(sub, "bruteforce").answer)
    return all(answers)


def test_stopped_answers_match_whole_sweeps_and_the_oracle():
    no = skipped = 0
    for inst in corpora():
        report = solve_driver(inst, "auto")
        assert report.answer == whole_sweep_answer(inst)
        assert report.answer == solve_driver(inst, "bruteforce").answer
        no += not report.answer
        # a frozen NO runs no component; the stop is counted on the others
        if inst.f0 != inst.fr and report.algorithm != "frozen":
            ran = len(report.components)
            skipped += len(normalize(inst)[0].graph.connected_components()) - ran
    assert no >= 10 and skipped >= 10


def test_a_whole_sweep_never_gets_tar_back():
    lost = 0
    for inst in corpora():
        for history in sweep_histories(inst):
            kept = [tar for _, tar in history]
            if False in kept:
                lost += 1
                assert not any(kept[kept.index(False):])
    assert lost >= 10


def peeled_routes(inst):
    """(vertices, algorithm) of each component or piece that ``auto`` with
    no witness runs, in order, on a forest whose components the heights do
    not take whole: a component that the reference peel keeps whole is
    swept, and the pieces of those that it shrinks follow the components,
    each to the heights if its lists hold three colours, else to the
    sweep."""
    trimmed, _ = normalize(inst)
    routes, pieces = [], []
    for comp in trimmed.graph.connected_components():
        cut = rescanning_peel(induced_instance(trimmed, comp))
        if cut == [list(range(len(comp)))]:
            routes.append((tuple(comp), "caterpillar"))
        else:
            pieces += [tuple(comp[v] for v in piece) for piece in cut]
    for piece in pieces:
        colours = set().union(*(trimmed.lists[v] for v in piece))
        routes.append((piece, "heights" if len(colours) <= 3 else "caterpillar"))
    return routes


def test_caterpillar_and_oracle_agree_through_the_driver():
    heights_no = swept_whole = peeled = 0
    corpus = caterpillar_corpus(40, base_seed=7101, max_n=10)
    # three colours give NOs that no frozen set shows, which the heights take
    corpus += caterpillar_corpus(40, base_seed=7101, max_n=10, colors=3)
    for inst in corpus:
        auto = solve_driver(inst, algo="auto")
        swept = solve_driver(inst, algo="caterpillar")
        brute = solve_driver(inst, algo="bruteforce")
        assert auto.answer == swept.answer == brute.answer
        if inst.f0 != inst.fr:
            # auto peels, then sweeps, every instance that neither a frozen
            # set settles nor the heights take; the run ends at a NO
            if has_frozen_no(inst):
                assert auto.algorithm == "frozen"
            elif outside_heights(inst):
                routes = peeled_routes(inst)
                ran = [(c.vertices, c.algorithm) for c in auto.components]
                assert ran == routes[: len(ran)]
                assert len(ran) == len(routes) or not auto.answer
                whole = routes == [(tuple(range(inst.graph.n)), "caterpillar")]
                swept_whole += whole
                peeled += not whole
            else:
                assert auto.algorithm in ("heights", "mixed")
                heights_no += not auto.answer
    assert heights_no >= 1 and swept_whole >= 1 and peeled >= 1


def test_equal_endpoints_shortcut():
    inst = make_instance(Graph(1), [{1, 2}], (1,), (1,))
    report = solve_driver(inst, want_witness=True)
    assert report.answer is True
    assert report.algorithm == "trivial"
    assert report.witness == []
    assert report.components == []


def test_one_frozen_component_sinks_the_answer():
    # the report ends at the frozen component, wherever it stands
    for yes_first, answers in ((True, [True, False]), (False, [False])):
        report = solve_driver(two_component_instance(yes_first), algo="bruteforce")
        assert report.answer is False
        assert [c.answer for c in report.components] == answers
        assert report.witness is None


def test_witnesses_come_back_in_original_ids():
    for seed in range(60):
        inst = gen_random_instance(6, edge_prob=0.3, colors=3, seed=seed)
        report = solve_driver(inst, want_witness=True)
        if report.answer:
            assert is_valid_sequence(inst, report.witness)
        else:
            assert report.witness is None


def test_witness_requests_fall_back_to_the_oracle():
    inst = next(
        i for i in caterpillar_corpus(5, base_seed=7201, max_n=9)
        if i.f0 != i.fr and not has_frozen_no(i)
    )
    report = solve_driver(inst, algo="auto", want_witness=True)
    assert report.algorithm == "bruteforce"


def test_witness_with_explicit_caterpillar_algo_is_an_error():
    inst = two_component_instance()
    with pytest.raises(ValueError):
        solve_driver(inst, algo="caterpillar", want_witness=True)


def test_unknown_algorithm_is_an_error():
    inst = two_component_instance()
    with pytest.raises(ValueError):
        solve_driver(inst, algo="magic")


def test_improper_endpoints_are_rejected():
    g = Graph(2, [(0, 1)])
    bad_f0 = make_instance(g, [{1, 2}, {1, 2}], (1, 1), (1, 2))
    with pytest.raises(ImproperEndpoints):
        solve_driver(bad_f0)
    bad_fr = make_instance(g, [{1, 2}, {1, 2}], (1, 2), (3, 2))
    with pytest.raises(ImproperEndpoints):
        solve_driver(bad_fr)


def four_colour_cycle():
    """A 4-cycle whose colour 4 keeps it from the heights; no neighbour of
    vertex 3 lists 4."""
    return make_instance(
        cycle_graph(4),
        [{1, 2, 3}] * 3 + [{1, 2, 4}],
        (1, 2, 1, 2),
        (2, 1, 2, 1),
    )


def test_explicit_caterpillar_algo_rejects_cycles():
    # colour 4 keeps the cycle from the heights, so auto takes the oracle
    inst = four_colour_cycle()
    assert outside_heights(inst)
    with pytest.raises(
        NotCaterpillar,
        match=r"^component \[0, 1, 2, 3\] of the trimmed graph is not a caterpillar$",
    ):
        solve_driver(inst, algo="caterpillar")
    assert solve_driver(inst, algo="auto").algorithm == "bruteforce"


def test_tiny_state_cap_trips_the_guard():
    inst = two_component_instance()
    with pytest.raises(StateSpaceTooLarge):
        solve_driver(inst, algo="bruteforce", state_cap=1)


@pytest.mark.parametrize("cycle_first", [False, True])
@pytest.mark.parametrize("algo, want_witness", [
    ("auto", False), ("auto", True), ("bruteforce", False), ("bruteforce", True),
])
def test_a_refused_component_does_not_hide_a_no(cycle_first, algo, want_witness):
    # the NO has no frozen set and four colours, each listed by a
    # neighbour, so auto too needs its oracle or sweep; the odd cycle lifts
    # at neither end
    inst = beside_a_huge_cycle(shared_colours_no(), cycle_first)
    assert not has_frozen_no(inst) and outside_heights(inst)
    report = solve_driver(inst, algo=algo, want_witness=want_witness)
    assert report.answer is False and report.witness is None
    assert [len(c.vertices) for c in report.components] == [5]


@pytest.mark.parametrize("cycle_first", [False, True])
def test_a_refusal_beside_only_yes_components_still_raises(cycle_first):
    # the heights answer the edge; the odd cycle lifts at neither end
    mixed = make_instance(Graph(2, [(0, 1)]), [{0, 1}, {1, 2}], (0, 1), (1, 2))
    inst = beside_a_huge_cycle(mixed, cycle_first)
    assert not has_frozen_no(inst) and outside_heights(huge_cycle())
    with pytest.raises(StateSpaceTooLarge):
        solve_driver(inst)


@pytest.mark.parametrize("cycle_first", [False, True])
@pytest.mark.parametrize("algo, want_witness", [
    ("auto", False), ("auto", True), ("bruteforce", False), ("bruteforce", True),
])
def test_a_component_whose_endpoints_agree_needs_no_oracle(
    cycle_first, algo, want_witness
):
    # the still cycle's 3^31 colourings pass the cap, but nothing on it
    # moves; it lifts at neither end, so the heights leave it
    edge = make_instance(Graph(2, [(0, 1)]), [{0, 1}, {1, 2}], (0, 1), (0, 2))
    inst = beside_a_huge_cycle(edge, cycle_first, still=True)
    assert outside_heights(huge_cycle(still=True))
    report = solve_driver(inst, algo=algo, want_witness=want_witness)
    assert report.answer is True
    cycle, pair = report.components[::1 if cycle_first else -1]
    assert (len(cycle.vertices), cycle.algorithm, cycle.answer) == (31, "trivial", True)
    assert cycle.oracle_nodes is None and cycle.steps is None
    # the run is named by the edge alone, as it would be without the cycle
    assert pair.algorithm == report.algorithm
    assert report.algorithm == ("heights" if algo == "auto" else "bruteforce")
    if want_witness:
        assert report.witness == [(32 if cycle_first else 1, 2)]
        assert is_valid_sequence(inst, report.witness)


def test_a_run_of_only_trivial_components_is_named_trivial():
    # the isolated vertex is rich and goes; the triangle left keeps its colours
    inst = make_instance(
        Graph(4, [(0, 1), (1, 2), (0, 2)]),
        [{1, 2, 3}] * 3 + [{1, 2}],
        (1, 2, 3, 1),
        (1, 2, 3, 2),
    )
    for algo, want_witness in (("auto", False), ("auto", True), ("bruteforce", False)):
        report = solve_driver(inst, algo=algo, want_witness=want_witness)
        assert (report.answer, report.algorithm) == (True, "trivial")
        assert [c.algorithm for c in report.components] == ["trivial"]
        assert report.witness == ([(3, 2)] if want_witness else None)


def test_a_negative_state_cap_is_a_value_error():
    # raised up front, even where no component reaches the oracle
    inst = make_instance(Graph(1), [{1, 2}], (1,), (2,))
    for algo in ("auto", "caterpillar", "bruteforce"):
        with pytest.raises(ValueError, match="non-negative"):
            solve_driver(inst, algo=algo, state_cap=-1)


def test_component_reports_track_their_algorithms():
    inst = two_component_instance()
    report = solve_driver(inst, algo="bruteforce")
    assert all(c.algorithm == "bruteforce" for c in report.components)
    assert all(c.oracle_nodes is not None for c in report.components)
    assert all(
        (c.steps, c.enode_peak, c.slack_min, c.slack_max) == (None,) * 4
        for c in report.components
    )

    cat = solve_driver(inst, algo="caterpillar")
    assert cat.answer is False
    assert all(c.algorithm == "caterpillar" for c in cat.components)
    assert all(c.enode_peak is not None for c in cat.components)
    assert all(c.oracle_nodes is None for c in cat.components)


def test_dp_size_history_reaches_the_report():
    # each swept component reports its step count and the peak and slack
    # range of the records of those steps
    corpus = caterpillar_corpus(10, base_seed=7301, max_n=10)
    corpus = [inst for inst in corpus if inst.f0 != inst.fr]
    assert corpus
    for inst in corpus:
        report = solve_driver(inst, algo="caterpillar")
        histories = records_run(inst)
        assert len(report.components) == len(histories)
        for comp, records in zip(report.components, histories):
            assert records[0].step == 1
            assert comp.steps == len(records)
            slacks = [rec.bound - rec.pre_extraction for rec in records]
            assert comp.enode_peak == max(rec.pre_extraction for rec in records)
            assert (comp.slack_min, comp.slack_max) == (min(slacks), max(slacks))


def copying_induced_instance(inst, vertices):
    """``induced_instance`` as it was: a fresh copy even of a spanning component."""
    kept = sorted(set(vertices))
    return make_instance(
        inst.graph.induced_subgraph(kept),
        [inst.lists[v] for v in kept],
        [inst.f0[v] for v in kept],
        [inst.fr[v] for v in kept],
    )


def test_a_spanning_component_is_swept_without_a_copy(monkeypatch):
    def refuse(self, vertices):
        raise AssertionError("induced_subgraph called on a connected caterpillar")

    corpus = caterpillar_corpus(30, base_seed=7401, max_n=12)
    spanning = [inst for inst in corpus if normalize(inst)[0] is inst]
    assert len(spanning) >= 10
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "induced_subgraph", refuse)
        for inst in spanning:
            solve_driver(inst, algo="caterpillar")
    # answers, witnesses and component reports are those of the copying split
    for want_witness in (False, True):
        for inst in corpus:
            report = solve_driver(inst, want_witness=want_witness)
            with monkeypatch.context() as patch:
                patch.setattr(lcr.driver, "induced_instance", copying_induced_instance)
                copied = solve_driver(inst, want_witness=want_witness)
            assert (report.answer, report.algorithm, report.witness) == (
                copied.answer, copied.algorithm, copied.witness
            )
            assert report.components == copied.components


def report_corpus():
    """One instance for each way a run ends, then seeded ones: the frozen
    NO; heights YES, NO by a pair and NO by a cycle; a sweep YES and a NO
    that loses tar; trivial components only; a mixed run; an instance that
    normalization empties; a refusal beside a NO and beside only YESes."""
    triangle = make_instance(  # colour 4 keeps it from the heights
        Graph(3, [(0, 1), (1, 2), (0, 2)]), [{1, 2, 3}] * 2 + [{2, 3, 4}], (1, 2, 3), (1, 2, 4),
    )
    still_triangle = make_instance(
        Graph(4, [(0, 1), (1, 2), (0, 2)]), [{1, 2, 3}] * 3 + [{1, 2}], (1, 2, 3, 1), (1, 2, 3, 2),
    )
    yield two_component_instance()
    yield mixed_edge()
    yield winding_path()
    yield even_cycle_no()
    yield four_colour_edge()
    yield hidden_no_components()
    yield hidden_no_components(True)
    yield frozen_head_path()
    yield still_triangle
    yield side_by_side(four_colour_edge(), mixed_edge(), triangle)
    yield make_instance(Graph(1), [{1, 2}], (1,), (2,))
    for cycle_first in (False, True):
        yield beside_a_huge_cycle(four_colour_no(), cycle_first)
        yield beside_a_huge_cycle(mixed_edge(), cycle_first)
        yield beside_a_huge_cycle(four_colour_edge(), cycle_first, still=True)
    yield from caterpillar_corpus(30, base_seed=9101, max_n=10)
    yield from caterpillar_corpus(30, base_seed=9201, max_n=10, colors=3)
    for seed in range(30):
        yield gen_random_instance(8, edge_prob=0.3, colors=4, seed=9300 + seed)
    for _, red in layered_corpus(15, base_seed=9401, max_states=20_000):
        yield red.lcr


def report_view(report: lcr.driver.SolveReport) -> tuple:
    """A report field by field: answer, algorithm, witness, components, and
    the NO certificate as a plain (kind, vertices) tuple or None."""
    cert = report.certificate
    return (
        report.answer, report.algorithm, report.witness, report.components,
        None if cert is None else (cert.kind, cert.vertices),
    )


def report_digest():
    """SHA-256 over the view of every report, or over the refusal raised,
    of each corpus instance under auto, auto with a witness, the sweep and
    the oracle; a sweep asked of a graph that is not a caterpillar gives its
    message."""
    lines = []
    for inst in report_corpus():
        for algo, want_witness in (
            ("auto", False), ("auto", True), ("caterpillar", False), ("bruteforce", False),
        ):
            try:
                report = solve_driver(inst, algo, want_witness=want_witness)
                lines.append(repr(report_view(report)))
            except StateSpaceTooLarge as exc:
                lines.append(repr((str(exc), exc.size, exc.cap)))
            except NotCaterpillar as exc:
                lines.append(repr(str(exc)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_reports_are_pinned():
    # any change to a report's content changes the digest.  It is that of
    # the commit after 75c3aba, whose driver peels tree components under
    # auto with no witness: 27 of the 122 reports of such runs changed
    # their components, algorithm or certificate, and every answer and
    # refusal, and every other report, stayed as at 75c3aba, whose digest
    # was f6cd5853 (commit 45246d4 viewed a NO's frozen set and heights
    # certificate, then two fields, each as its (kind, vertices))
    assert report_digest() == (
        "047c393face34d348735043849dfbc33d07db5b5486aacda56a0efdd6dc744fa"
    )


# -- the peel ------------------------------------------------------------------------


def random_tree(seed: int):
    """A random labelled tree on 3 to 12 vertices whose lists of two or
    three colours come from 3 to 5 colours; None when they admit no two
    proper colourings."""
    rng = random.Random(seed)
    n, colours = rng.randint(3, 12), rng.randint(3, 5)
    g = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)], n)
    lists = [frozenset(rng.sample(range(colours), rng.randint(2, 3))) for _ in range(n)]
    f0, fr = _shuffled_coloring(g, lists, rng), _shuffled_coloring(g, lists, rng)
    if f0 is None or fr is None:
        return None
    return make_instance(g, lists, f0, fr)


def peel_corpus():
    for seed in range(1500):
        inst = random_tree(10_000 + seed)
        if inst is not None:
            yield inst
    rng = random.Random(8900)
    for seed in range(300):
        inst = gen_caterpillar(
            rng.randint(1, 6), leaf_prob=0.5, colors=rng.randint(3, 5), seed=8900 + seed,
        )
        if inst.graph.n <= 12:
            yield inst


def test_peeled_trees_answer_as_the_oracle_does(monkeypatch):
    shrunk = []
    original = lcr.driver.peel

    def recording(sub):
        pieces = original(sub)
        shrunk.append(sum(map(len, pieces)) < sub.graph.n)
        return pieces

    monkeypatch.setattr(lcr.driver, "peel", recording)
    kinds = {}
    for inst in peel_corpus():
        report = solve_driver(inst)
        assert report.answer == solve_driver(inst, "bruteforce").answer
        if report.certificate is not None:
            # a piece's certificate holds in the input: in a tree the only
            # path between its two vertices stays inside the piece
            assert proves(inst, report.certificate)
            kinds[report.certificate.kind] = kinds.get(report.certificate.kind, 0) + 1
    assert shrunk.count(True) >= 500 and shrunk.count(False) >= 5
    assert kinds.get("pair", 0) >= 40 and kinds.get("frozen", 0) >= 100


def test_a_private_colour_leaf_leaves_a_path_to_the_heights(monkeypatch):
    # a 500-vertex 3-colour YES path with one leaf at its end that lists a
    # fourth colour, which it holds at both ends: the heights decline the
    # whole, which the sweep took, quadratic in the path; the peel takes the
    # leaf and gives the heights the path back
    path = gen_caterpillar(500, leaf_prob=0, colors=3, list_range=(3, 3), seed=6)
    inst = make_instance(
        Graph(501, path.graph.edges + ((499, 500),)),
        path.lists + (frozenset({0, 3}),),
        path.f0 + (3,),
        path.fr + (3,),
    )
    assert solve_driver(path).algorithm == "heights"
    assert lcr.heights.decide(inst) is None
    calls = count_engine_calls(monkeypatch)
    report = solve_driver(inst)
    assert (report.answer, report.algorithm) == (True, "heights")
    assert [c.vertices for c in report.components] == [tuple(range(500))]
    assert calls == ["induced_instance", "decide", "peel", "induced_instance", "decide"]


@pytest.mark.parametrize("algo, want_witness", [
    ("auto", True), ("caterpillar", False), ("bruteforce", False),
])
def test_only_auto_with_no_witness_peels(monkeypatch, algo, want_witness):
    calls = count_engine_calls(monkeypatch)
    # the NO's vertex of colour 3 and the whole four-colour edge are
    # private-colour vertices, which only a sweeping auto run takes
    report = solve_driver(hidden_no_components(True), algo, want_witness=want_witness)
    assert report.answer is False and "peel" not in calls
    assert [c.vertices for c in report.components] == [(0, 1), (2, 3, 4, 5, 6)]
    calls.clear()
    report = solve_driver(hidden_no_components(True))
    assert report.answer is False and calls.count("peel") == 2
    assert [(c.vertices, c.algorithm) for c in report.components] == [((2, 3, 4, 5), "heights")]


def test_a_component_with_a_cycle_is_not_peeled(monkeypatch):
    # vertex 3 of the 4-cycle holds a colour that no neighbour lists, and so
    # does a vertex of the 4-cycle in this random draw: peeled, it would
    # leave the heights a piece whose pair certificate proves nothing on
    # the input, since the checker's path between the pair runs through
    # the peeled vertex
    inst = make_instance(
        Graph(6, [(0, 4), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)]),
        [{0, 1}, {1, 2, 3}, {0, 2, 3}, {0, 1, 2}, {0, 1, 2}, {1, 2}],
        (1, 3, 0, 1, 2, 2),
        (1, 1, 3, 2, 0, 1),
    )
    trimmed, trace = normalize(inst)
    (piece,) = peel(trimmed)
    kind, ends = lcr.heights.decide(induced_instance(trimmed, piece)).certificate
    assert kind == "pair" and not proves(inst, (kind, [trace.kept[piece[v]] for v in ends]))
    calls = count_engine_calls(monkeypatch)
    for cyclic in (four_colour_cycle(), inst):
        calls.clear()
        report = solve_driver(cyclic)
        assert report.algorithm == "bruteforce" and "peel" not in calls
    assert report.answer is False and report.certificate is None


def test_a_tree_that_the_peel_empties_is_a_yes_with_no_component():
    # each end of the edge lists a colour the other does not, so the peel
    # takes both; a run with no component left names the engine it asked
    # for, which for auto with no witness is the sweep
    report = solve_driver(four_colour_edge())
    assert (report.answer, report.algorithm, report.components) == (True, "caterpillar", [])
    assert report.certificate is None
