"""End-to-end acceptance checks.

Each test exercises one advertised guarantee over a seeded corpus and prints
one summary line (run with ``pytest -s`` to see them all):

    criterion <n> PASS|FAIL: <measurement>

The corpora are frozen by seed, so reruns check the same instances.
"""

from __future__ import annotations

import resource
import time

import pytest

from lcr import is_valid_sequence, oracle_decide
from lcr.caterpillar_dp import check_size_bound, encoding_history
from lcr.generators import gen_caterpillar
from lcr.graph import (
    check_path_decomposition,
    is_bipartite,
    is_partial_two_tree,
    recognize_caterpillar,
)
from lcr.instance import induced_instance, lift_sequence, normalize
from lcr.oracle import (
    build,
    component_of,
    reachable,
    state_space_size,
)
from lcr.reduction import (
    emit_path_decomposition,
    recoloring_to_spath_sequence,
    spath_sequence_to_recoloring,
    to_threshold,
)
from lcr.rerouting import adjacent_s_paths, brute_solve, is_s_path

from .helpers import (
    all_colorings,
    caterpillar_corpus,
    gen_random_instance,
    layered_corpus,
    spine_of_prefix,
    sweep_answer,
)
from .reference import contract_encoding, label_preserving_isomorphic


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


@pytest.fixture(scope="module")
def cat_corpus():
    """1000 seeded normalized caterpillars, n <= 12, colors <= 4, lists 2..3."""
    start = time.perf_counter()
    corpus = caterpillar_corpus(1000, base_seed=20250, max_n=12)
    return corpus, time.perf_counter() - start


@pytest.fixture(scope="module")
def layered():
    """200 seeded layered rerouting instances with their compilations."""
    return layered_corpus(200, base_seed=8200)


def test_criterion_1_dp_matches_oracle_within_budget(cat_corpus):
    corpus, gen_seconds = cat_corpus
    start = time.perf_counter()
    agreements = sum(
        1 for inst in corpus if sweep_answer(inst) == oracle_decide(inst)
    )
    seconds = gen_seconds + (time.perf_counter() - start)
    ok = agreements == len(corpus) == 1000 and seconds <= 60
    report(1, ok, f"{agreements}/{len(corpus)} agreements in {seconds:.1f}s (budget 60s)")
    assert ok


def test_criterion_2_every_prefix_encoding_is_isomorphic(cat_corpus):
    corpus, _ = cat_corpus
    subset = [
        inst for inst in corpus
        if inst.graph.n <= 9 and state_space_size(inst.lists) <= 30_000
    ][:200]
    matched = prefixes = 0
    for inst in subset:
        st = recognize_caterpillar(inst.graph)
        spines = spine_of_prefix(st)
        for sweep, rec in encoding_history(inst, st):
            prefixes += 1
            prefix = st.ordering[: rec.step]
            sub = induced_instance(inst, prefix)  # new id i is sorted(prefix)[i]
            rg = build(sub.graph, sub.lists)
            comp = component_of(rg, sub.f0)
            oracle_eg = contract_encoding(
                rg, comp, sorted(prefix).index(spines[rec.step - 1]), sub.f0, sub.fr
            )
            matched += label_preserving_isomorphic(sweep.snapshot(), oracle_eg)
    ok = len(subset) == 200 and matched == prefixes
    report(2, ok, f"{matched}/{prefixes} prefixes isomorphic on {len(subset)} instances")
    assert ok


def test_criterion_3_size_bound_never_breaks(cat_corpus):
    corpus, _ = cat_corpus
    step_violations = final_violations = 0
    for inst in corpus:
        records = [rec for _, rec in encoding_history(inst)]
        if check_size_bound(records) is not None:
            step_violations += 1
        if records[-1].final_size > 2 + 2 * inst.graph.m:
            final_violations += 1
    ok = step_violations == 0 == final_violations
    report(
        3,
        ok,
        f"{step_violations} step violations, {final_violations} final-bound "
        f"violations over {len(corpus)} runs",
    )
    assert ok


def test_criterion_4_normalization_keeps_answers_and_witnesses():
    made = agreements = lifted = 0
    seed = 0
    while made < 500:
        n = 3 + seed % 7
        inst = gen_random_instance(
            n, edge_prob=0.35, colors=4, list_range=(1, 4), seed=seed
        )
        seed += 1
        if state_space_size(inst.lists) > 50_000:
            continue
        made += 1
        before = oracle_decide(inst)
        trimmed, trace = normalize(inst)
        agreements += before == oracle_decide(trimmed)
        if before and trimmed.graph.n:
            steps, _ = reachable(trimmed.graph, trimmed.lists, trimmed.f0, trimmed.fr)
            if is_valid_sequence(inst, lift_sequence(trace, inst, steps)):
                lifted += 1
            else:
                agreements = -1  # a bad lift fails the criterion outright
    ok = agreements == made == 500
    report(4, ok, f"{agreements}/{made} answers preserved, {lifted} witnesses lifted")
    assert ok


def test_criterion_5_reduction_agrees_and_translates(layered):
    agreements = yes = no = translated = 0
    for spr, red in layered:
        seq = brute_solve(spr)
        oracle_steps, _ = reachable(red.lcr.graph, red.lcr.lists, red.lcr.f0, red.lcr.fr)
        agreements += (seq is not None) == (oracle_steps is not None)
        if seq is None:
            no += 1
            continue
        yes += 1
        steps = spath_sequence_to_recoloring(red, seq)
        forward_ok = is_valid_sequence(red.lcr, steps)
        forward_ok &= recoloring_to_spath_sequence(red, steps) == seq
        back = recoloring_to_spath_sequence(red, oracle_steps)
        backward_ok = back[0] == spr.p0 and back[-1] == spr.pr
        backward_ok &= all(is_s_path(spr, p) for p in back)
        backward_ok &= all(adjacent_s_paths(p, q) for p, q in zip(back, back[1:]))
        translated += forward_ok and backward_ok
    ok = agreements == len(layered) == 200 and translated == yes and no > 0
    report(
        5,
        ok,
        f"{agreements}/{len(layered)} agreements ({yes} yes / {no} no), "
        f"{translated}/{yes} witness translations validated",
    )
    assert ok


def test_criterion_6_compiled_graphs_carry_their_certificates(layered):
    certified = 0
    for _, red in layered:
        g = red.lcr.graph
        parts = is_bipartite(g)
        dec = emit_path_decomposition(red)
        valid, width = check_path_decomposition(g, dec)
        certified += (
            parts is not None and is_partial_two_tree(g) and valid and width <= 2
        )
    ok = certified == len(layered) == 200
    report(6, ok, f"{certified}/{len(layered)} compiled graphs fully certified")
    assert ok


def test_criterion_7_threshold_variant_preserves_everything(layered):
    preserved = 0
    sample = layered[:100]
    for _, red in sample:
        thr, witness = to_threshold(red)
        same_colorings = all_colorings(
            thr.graph, thr.lists
        ) == all_colorings(red.lcr.graph, red.lcr.lists)
        preserved += (
            same_colorings
            and witness.verify(thr.graph)
            and oracle_decide(thr) == oracle_decide(red.lcr)
        )
    ok = preserved == len(sample) == 100
    report(7, ok, f"{preserved}/{len(sample)} threshold variants preserved")
    assert ok


def test_criterion_8_reachable_restrictions_stay_reachable(cat_corpus):
    corpus, _ = cat_corpus
    subset = [i for i in corpus if state_space_size(i.lists) <= 2000][:100]
    checked_pairs = bad_pairs = 0
    for inst in subset:
        st = recognize_caterpillar(inst.graph)
        n = inst.graph.n
        reachable_sets = []
        id_maps = []
        kept = []
        for i in range(1, n + 1):
            sub = induced_instance(inst, st.ordering[:i])
            rg = build(sub.graph, sub.lists)
            comp = component_of(rg, sub.f0)
            reachable_sets.append({rg.nodes[x] for x in comp})
            kept.append(sorted(st.ordering[:i]))
            # new id k is kept[-1][k]
            id_maps.append({v: k for k, v in enumerate(kept[-1])})
        for i in range(1, n + 1):
            for g in reachable_sets[i - 1]:
                for j in range(1, i):
                    restricted = tuple(g[id_maps[i - 1][v]] for v in kept[j - 1])
                    checked_pairs += 1
                    bad_pairs += restricted not in reachable_sets[j - 1]
    ok = len(subset) == 100 and bad_pairs == 0
    report(
        8,
        ok,
        f"{checked_pairs} restriction pairs on {len(subset)} instances, "
        f"{bad_pairs} failures",
    )
    assert ok


def test_criterion_9_dp_scales_to_one_hundred_thousand_vertices():
    gen_start = time.perf_counter()
    inst = gen_caterpillar(
        50_000, colors=6, list_range=(2, 3), seed=20259, leaves_per_spine=1
    )
    gen_seconds = time.perf_counter() - gen_start
    assert inst.graph.n == 100_000

    solve_start = time.perf_counter()
    records = []
    final = None
    for final, rec in encoding_history(inst):
        records.append(rec)
    seconds = time.perf_counter() - solve_start
    answer = final.tar is not None
    monitor = check_size_bound(records)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok = seconds < 10 and peak_mib < 1024 and monitor is None
    report(
        9,
        ok,
        f"n=100000 answer {'yes' if answer else 'no'} in {seconds:.2f}s "
        f"(gen {gen_seconds:.2f}s), peak rss {peak_mib:.0f} MiB, "
        f"size monitor {'clean' if monitor is None else f'violated at {monitor}'}",
    )
    assert ok
