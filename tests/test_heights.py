"""The heights against the exhaustive oracle and the caterpillar sweep.

Every answer is checked against a reference that shares no code with the
heights: the oracle on small seeded trees, on trees that stay
non-caterpillars after normalization and on connected graphs with cycles,
and the sweep on 3-colour caterpillars past the oracle's cap, the
benchmark's ``path3`` texts among them.  A YES witness must replay on the
input after lifting, and on its component it must be as short as the
oracle's.  A NO certificate must pass ``helpers.proves``, and mutants of
it must not.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import lcr.errors
from lcr import Graph, is_valid_sequence, make_instance
from lcr import heights
from lcr.driver import solve_driver
from lcr.fileio import parse_lcr
from lcr.generators import gen_caterpillar
from lcr.graph import recognize_caterpillar
from lcr.instance import Certificate, LcrInstance, induced_instance, normalize
from lcr.oracle import DEFAULT_STATE_CAP, oracle_decide, reachable, state_space_size

from .helpers import (
    _shuffled_coloring,
    cycle_graph,
    even_cycle_no,
    four_colour_no,
    gen_random_instance,
    has_frozen_no,
    outside_heights,
    frozen_cycle,
    path_graph,
    proves,
    queue_shortest_path,
    shared_colours_no,
    side_by_side,
    tree_from_prufer,
    winding_path,
)

ROOT = Path(__file__).resolve().parent.parent


def random_tree_instance(n: int, seed: int, trimmed: bool = False):
    """A random labelled tree whose lists of one to three colours come from
    a random palette of three out of 0..5, so that the heights must rename
    them, or with ``trimmed`` of two colours up to the degree plus one, so
    that normalization removes nothing; None when the lists admit no two
    proper colourings."""
    rng = random.Random(seed)
    g = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)], n) if n > 1 else Graph(1)
    palette = rng.sample(range(6), 3)
    sizes = [
        max(2, min(rng.randint(2, 3), g.degree(v) + 1)) if trimmed else rng.randint(1, 3)
        for v in range(n)
    ]
    lists = [frozenset(rng.sample(palette, k)) for k in sizes]
    f0, fr = _shuffled_coloring(g, lists, rng), _shuffled_coloring(g, lists, rng)
    if f0 is None or fr is None:
        return None
    return LcrInstance(g, tuple(lists), f0, fr)


def tree_corpus(count: int, base_seed: int, sizes=range(2, 12), trimmed: bool = False):
    seed = base_seed
    while count:
        seed += 1
        inst = random_tree_instance(sizes[seed % len(sizes)], seed, trimmed)
        if inst is not None:
            count -= 1
            yield inst


def spider_corpus(count: int, base_seed: int):
    """Trees that are not caterpillars and that normalization leaves as
    they are."""
    for inst in tree_corpus(10 * count, base_seed, sizes=range(7, 11), trimmed=True):
        if normalize(inst)[0] is inst and recognize_caterpillar(inst.graph) is None:
            count -= 1
            yield inst
            if not count:
                return


def cyclic_corpus(count: int, base_seed: int):
    """Connected graphs with a cycle, n = 4..11, lists within three colours."""
    seed = base_seed
    while count:
        seed += 1
        n = 4 + seed % 8
        inst = gen_random_instance(n, edge_prob=2.6 / n, colors=3, list_range=(1, 3), seed=seed)
        g = inst.graph
        if g.m >= g.n and len(g.connected_components()) == 1:
            count -= 1
            yield inst


def directions(inst: LcrInstance, steps) -> list[int]:
    """How each step moves its vertex's height, -2 or +2, with the colours
    of the lists renamed 0, 1, 2 in increasing order."""
    rank = {c: i for i, c in enumerate(sorted(set().union(*inst.lists)))}
    f, out = list(inst.f0), []
    for v, c in steps:
        out.append(2 if (rank[c] - rank[f[v]]) % 3 == 2 else -2)
        f[v] = c
    return out


def check_against_the_oracle(inst: LcrInstance, tally: dict) -> None:
    """The driver's answers, witness and certificate on the input, and the
    heights' own on each trimmed component they take, against the oracle."""
    shortest, _ = reachable(inst.graph, inst.lists, inst.f0, inst.fr)
    for want_witness in (False, True):
        report = solve_driver(inst, "auto", want_witness=want_witness)
        assert report.answer == (shortest is not None)
    if report.answer:
        assert is_valid_sequence(inst, report.witness)
        # lifting may add dodges, so the input's witness is only checked for length
        assert len(report.witness) >= len(shortest)
        tally["lifted_longer"] += len(report.witness) > len(shortest)
    cert = report.certificate
    if cert is not None:
        assert report.algorithm == ("frozen" if cert.kind == "frozen" else "heights")
        assert proves(inst, cert)
        tally["certified_" + cert.kind] += 1
    trimmed, _ = normalize(inst)
    for comp in trimmed.graph.connected_components():
        sub = induced_instance(trimmed, comp)
        out = heights.decide(sub, want_witness=True)
        if out is None:
            tally["left"] += 1
            continue
        best, _ = reachable(sub.graph, sub.lists, sub.f0, sub.fr)
        assert out.answer == (best is not None)
        if out.answer:
            # each vertex moves |h0 - T| / 2 times, which no sequence undercuts
            assert is_valid_sequence(sub, out.steps)
            assert len(out.steps) == len(best)
            moves = directions(sub, out.steps)
            assert moves == sorted(moves)  # down first, then up
            tally["yes"] += 1
        else:
            assert out.steps is None and proves(sub, out.certificate)
            tally["no"] += 1


def new_tally() -> dict:
    return dict.fromkeys(
        ("yes", "no", "left", "lifted_longer", "certified_pair", "certified_cycle",
         "certified_frozen"), 0
    )


def test_heights_match_the_oracle_on_trees():
    tally = new_tally()
    for inst in tree_corpus(1500, base_seed=12_000):
        try:
            check_against_the_oracle(inst, tally)
        except lcr.errors.InfeasibleList:
            continue
    # every colouring of a tree lifts, so the heights take every component
    assert tally["left"] == 0
    assert tally["yes"] >= 400 and tally["no"] >= 150 and tally["certified_pair"] >= 25
    # on its component each witness is as short as the oracle's; lifted, one
    # in 522 is longer
    assert tally["lifted_longer"] <= tally["yes"] // 100


def test_heights_match_the_oracle_on_trees_that_are_not_caterpillars():
    tally = new_tally()
    corpus = list(spider_corpus(60, base_seed=13_000))
    assert len(corpus) == 60
    rng = random.Random(13_000)
    for i, inst in enumerate(corpus):
        check_against_the_oracle(walked(inst, rng, 40) if i % 2 else inst, tally)
    assert tally["left"] == 0 and tally["yes"] >= 25 and tally["no"] >= 10


def test_heights_match_the_oracle_on_graphs_with_cycles():
    tally = new_tally()
    for inst in cyclic_corpus(600, base_seed=14_000):
        try:
            check_against_the_oracle(inst, tally)
        except lcr.errors.InfeasibleList:
            continue
    # an odd cycle stops every lift: those components fall through
    # (exactly one lifting end, whose NO has a cycle for its certificate, is
    # checked on ``even_cycle_no`` below)
    assert tally["yes"] >= 150 and tally["no"] >= 50 and tally["left"] >= 100


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def check_against_the_sweep(inst: LcrInstance) -> bool:
    auto = solve_driver(inst, "auto")
    swept = solve_driver(inst, "caterpillar")
    assert auto.answer == swept.answer
    assert auto.algorithm == ("frozen" if has_frozen_no(inst) else "heights")
    if auto.certificate is not None:
        assert proves(inst, auto.certificate)
    if auto.answer:
        witness = solve_driver(inst, "auto", want_witness=True).witness
        assert is_valid_sequence(inst, witness)
    return auto.answer


def walked(inst: LcrInstance, rng: random.Random, moves: int) -> LcrInstance:
    """The instance with fr moved to the end of a random walk of moves from
    f0, so that the answer is YES."""
    f, rows = list(inst.f0), inst.graph.adjacency
    for _ in range(moves):
        v = rng.randrange(len(f))
        free = sorted(inst.lists[v].difference(f[u] for u in rows[v]) - {f[v]})
        if free:
            f[v] = rng.choice(free)
    return LcrInstance(inst.graph, inst.lists, inst.f0, tuple(f))


def test_heights_match_the_sweep_on_caterpillars_past_the_oracle_cap():
    rng = random.Random(15_000)
    answers = []
    for seed in range(200):
        inst = gen_caterpillar(
            rng.randint(16, 40), leaf_prob=0.3, colors=3, list_range=(2, 3), seed=seed,
        )
        if seed % 2:
            inst = walked(inst, rng, 4 * inst.graph.n)
        assert state_space_size(inst.lists) > DEFAULT_STATE_CAP
        answers.append(check_against_the_sweep(inst))
    assert answers.count(False) >= 50 and answers.count(True) >= 50


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_heights_match_the_sweep_and_the_plants_on_path3(seed):
    batch = load_workloads().build_path3(seed)
    for case, text in zip(batch.cases, batch.texts):
        assert check_against_the_sweep(parse_lcr(text)) == case.expect


def test_a_heights_no_carries_its_certificate_in_input_ids():
    # one-colour vertex 0 strips colour 2 from vertex 1, which leaves the
    # winding path on 1..3, whose bands at 1 and 3 disagree; the pair comes
    # back in input ids
    inst = make_instance(
        path_graph(4), [{2}, {0, 1, 2}, {0, 1, 2}, {0, 2}], (2, 0, 1, 2), (2, 1, 0, 2),
    )
    report = solve_driver(inst)
    assert (report.answer, report.algorithm) == (False, "heights")
    assert report.certificate == Certificate("pair", (1, 3))
    assert proves(inst, report.certificate)
    assert [c.algorithm for c in report.components] == ["heights"]


def test_exactly_one_lifting_end_is_a_no_with_a_cycle():
    inst = even_cycle_no()
    for want_witness in (False, True):
        report = solve_driver(inst, want_witness=want_witness)
        assert (report.answer, report.algorithm, report.witness) == (False, "heights", None)
        kind, cycle = report.certificate
        assert kind == "cycle" and sorted(cycle) == list(range(6))
        assert proves(inst, report.certificate)
    # with the two ends swapped, f0 freezes the whole cycle, and the frozen
    # set answers before the heights run
    swapped = LcrInstance(inst.graph, inst.lists, inst.fr, inst.f0)
    assert solve_driver(swapped).algorithm == "frozen"
    assert heights.decide(swapped).certificate.kind == "cycle"


def test_the_heights_leave_four_colours_and_non_lifting_ends():
    assert outside_heights(four_colour_no())
    assert heights.decide(four_colour_no()) is None
    # a triangle lifts under no colouring
    triangle = make_instance(
        Graph(3, [(0, 1), (1, 2), (0, 2)]), [{0, 1, 2}] * 3, (0, 1, 2), (1, 2, 0),
    )
    assert outside_heights(triangle) and heights.decide(triangle) is None
    with pytest.raises(ValueError, match="connected"):
        heights.decide(make_instance(Graph(2), [{0, 1}] * 2, (0, 0), (1, 1)))


def test_the_heights_witness_flips_down_then_up():
    # no band: h0 = 1, 2, 1, 2 and fr lifts to 0, -1, 0, -1 plus 3k for any
    # odd k; k = 1 costs two flips up, k = -1 ten flips down
    inst = make_instance(path_graph(4), [{0, 1, 2}] * 4, (1, 2, 1, 2), (0, 2, 0, 2))
    out = heights.decide(inst, want_witness=True)
    assert out.answer and is_valid_sequence(inst, out.steps)
    assert directions(inst, out.steps) == [2, 2]
    # the band at vertex 0 fixes k = 0 on the 5-path from h0 = 0, 1, 2, 1, 0
    # to T = 0, 1, 0, 1, 2: vertex 2 comes down, then vertex 4 goes up
    inst = make_instance(
        path_graph(5), [{0, 1}] + [{0, 1, 2}] * 4, (0, 1, 2, 1, 0), (0, 1, 0, 1, 2),
    )
    out = heights.decide(inst, want_witness=True)
    assert out.steps == [(2, 0), (4, 2)] and directions(inst, out.steps) == [-2, 2]
    # no band on a 4-cycle, h0 - hr = 2 everywhere: k = 1 would cost less in
    # sum, but only an even k keeps h0 - T even, and k = 0 takes four flips
    inst = make_instance(cycle_graph(4), [{0, 1, 2}] * 4, (2, 0, 2, 0), (0, 1, 0, 1))
    out = heights.decide(inst, want_witness=True)
    assert is_valid_sequence(inst, out.steps) and directions(inst, out.steps) == [-2] * 4
    # a single vertex flips within its band
    lone = make_instance(Graph(1), [{3, 5}], (3,), (5,))
    assert heights.decide(lone, want_witness=True) == (True, [(0, 5)], None)


def test_the_heights_checker_fails_on_mutations():
    # the winding path proves NO by its two bands; swapping an end for the
    # middle vertex, which has no band, or for the other end proves nothing
    inst = winding_path()
    assert proves(inst, ("pair", (0, 2))) and proves(inst, ("pair", (2, 0)))
    for pair in ((1, 2), (0, 1), (0, 0), (2, 2)):
        assert not proves(inst, ("pair", pair))
    assert not proves(inst, ("pair", (0, 1, 2)))
    assert not proves(inst, ("cycle", (0, 2)))
    # around a cycle where both ends lift, both wind by 0: no proof
    still = make_instance(cycle_graph(6), [{0, 1, 2}] * 6, (0, 1) * 3, (1, 0) * 3)
    assert not proves(still, ("cycle", tuple(range(6))))
    # bands at 0, 2 and 4 of a 5-path: vertex 4's lift of fr disagrees with
    # both others, while 0 and 2 agree with each other
    path = make_instance(
        path_graph(5), [{0, 1}, {0, 1, 2}, {0, 1}, {0, 1, 2}, {0, 2}],
        (0, 1, 0, 1, 0), (0, 2, 1, 0, 2),
    )
    report = solve_driver(path)
    assert report.certificate.kind == "pair" and proves(path, report.certificate)
    assert proves(path, ("pair", (0, 4))) and proves(path, ("pair", (2, 4)))
    for pair in ((0, 2), (1, 4), (0, 3), (4, 4)):
        assert not proves(path, ("pair", pair))
    # the cycle with a vertex swapped out is no closed walk, and shifted it
    # is the same cycle
    cycle = even_cycle_no()
    kind, walk = solve_driver(cycle).certificate
    assert proves(cycle, (kind, walk[1:] + walk[:1]))
    for i in range(len(walk)):
        for w in set(range(6)) - {walk[i]}:
            assert not proves(cycle, (kind, walk[:i] + (w,) + walk[i + 1:]))
    # each certificate the driver gives, read as another kind, proves
    # nothing: a pair as a cycle or a frozen set, a cycle as a pair or a
    # frozen set, a frozen set as a pair or a cycle
    frozen_path = make_instance(path_graph(3), [{0, 1}, {0, 1, 2}, {1, 2}], (0, 1, 2), (1, 0, 2))
    for inst in (winding_path(), path, cycle, frozen_path, frozen_cycle()):
        report = solve_driver(inst)
        assert proves(inst, report.certificate)
        for other in {"pair", "cycle", "frozen"} - {report.certificate.kind}:
            assert not proves(inst, report.certificate._replace(kind=other))


def recoloured(inst: LcrInstance, walk):
    """Each instance with one colour of f0 or fr changed at one vertex of
    the walk, to another of its list, and whether that end stays proper."""
    for v in walk:
        for c in sorted(inst.lists[v]):
            for end in (0, 1):
                f = (inst.f0, inst.fr)[end]
                if c == f[v]:
                    continue
                ends = [inst.f0, inst.fr]
                ends[end] = f[:v] + (c,) + f[v + 1:]
                proper = all(f[u] != c for u in inst.graph.neighbors(v))
                yield LcrInstance(inst.graph, inst.lists, *ends), proper


def test_a_colour_changed_on_the_walk_is_a_move_or_a_clash():
    # a proper change of one colour is a move, which keeps the certificate
    # (both the heights' rise along a path and a winding are invariant);
    # any other change makes an end improper, and the checker must refuse it
    moved = clashed = certificates = 0
    corpus = list(tree_corpus(1200, base_seed=16_000, sizes=range(3, 10)))
    for inst in corpus + [even_cycle_no()]:
        try:
            report = solve_driver(inst)
        except lcr.errors.InfeasibleList:
            continue
        if report.certificate is None or report.certificate.kind == "frozen":
            continue
        certificates += 1
        kind, vertices = report.certificate
        walk = queue_shortest_path(inst.graph, *vertices) if kind == "pair" else vertices
        for mutant, proper in recoloured(inst, walk):
            assert proves(mutant, report.certificate) == proper
            if proper:
                assert not oracle_decide(mutant)
            moved += proper
            clashed += not proper
    assert certificates >= 30 and moved >= 30 and clashed >= 100


def test_auto_names_the_heights_and_mixed_runs():
    # a 3-colour edge beside a four-colour NO that the peel keeps whole:
    # the heights answer the edge, the sweep the NO
    yes_path = make_instance(path_graph(2), [{0, 1}, {1, 2}], (0, 1), (1, 2))
    report = solve_driver(yes_path)
    assert (report.answer, report.algorithm) == (True, "heights")
    both = solve_driver(side_by_side(yes_path, shared_colours_no()))
    assert both.answer is False and both.algorithm == "mixed"
    assert [c.algorithm for c in both.components] == ["heights", "caterpillar"]
    # the references never run the heights
    assert solve_driver(yes_path, "caterpillar").algorithm == "caterpillar"
    assert solve_driver(yes_path, "bruteforce").algorithm == "bruteforce"
