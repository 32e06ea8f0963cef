from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import lcr.caterpillar_dp
import lcr.cli
from lcr import Graph, is_valid_sequence, make_instance
from lcr.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, main
from lcr.fileio import (
    format_graph,
    format_lcr,
    format_sequence,
    format_spr,
    format_threshold_witness,
    parse_lcr,
    parse_sequence,
)
from lcr.generators import gen_caterpillar
from lcr.reduction import ThresholdWitness, compile_spr
from lcr.rerouting import build_spr_instance

from .helpers import (
    beside_a_huge_cycle,
    even_cycle_no,
    four_colour_no,
    frozen_cycle,
    has_frozen_no,
    huge_cycle,
    one_color_path,
    outside_heights,
    shared_colours_no,
    shared_colours_yes,
    side_by_side,
    winding_path,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def mixed_edge():
    return make_instance(Graph(2, [(0, 1)]), [{1, 2}, {2, 3}], (1, 2), (2, 3))


def frozen_edge():
    return make_instance(Graph(2, [(0, 1)]), [{1, 2}, {1, 2}], (1, 2), (2, 1))


def write_lcr(tmp_path, inst, name="inst.lcr"):
    path = tmp_path / name
    path.write_text(format_lcr(inst))
    return str(path)


# -- solve ---------------------------------------------------------------------


def test_solve_answers_yes(tmp_path, capsys):
    assert main(["solve", write_lcr(tmp_path, mixed_edge())]) == EXIT_OK
    assert capsys.readouterr().out == "YES\n"


def test_solve_answers_no(tmp_path, capsys):
    assert main(["solve", write_lcr(tmp_path, frozen_edge())]) == EXIT_OK
    assert capsys.readouterr().out == "NO\n"


def test_solve_witness_lines_replay(tmp_path, capsys):
    inst = mixed_edge()
    assert main(["solve", write_lcr(tmp_path, inst), "--witness"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    steps = parse_sequence("\n".join(out[1:]))
    assert steps and is_valid_sequence(inst, steps)


def test_solve_trace_dumps_each_step(tmp_path, capsys):
    # auto would give the 3-colour edge to the heights
    argv = ["solve", write_lcr(tmp_path, mixed_edge()), "--trace", "--algo", "caterpillar"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (
        "YES\n"
        "component 0\n"
        "step 1 vertex 0 init\n"
        "enode 0 col 1 ini 1 tar 0\n"
        "enode 1 col 2 ini 0 tar 1\n"
        "eedge 0 1\n"
        "step 2 vertex 1 spine\n"
        "enode 0 col 2 ini 1 tar 0\n"
        "enode 1 col 3 ini 0 tar 1\n"
        "eedge 0 1\n"
    )


def two_swept_components():
    # vertex 4 is forced (a singleton removal that strips color 1 from
    # vertex 3) and vertex 5 is rich; two caterpillar components remain, and
    # the second answers NO with no frozen set, so a sweep loses tar at step
    # 4 of 5; under auto the heights take the first, whose lists hold three
    # colours, and the sweep the second, which holds four
    inst = make_instance(
        Graph(9, [(0, 1), (0, 5), (2, 3), (3, 4), (3, 6), (6, 7), (3, 8)]),
        [{1, 2}, {2, 3}, {1, 4}, {1, 2, 3, 4}, {1}, {1, 2, 3, 4},
         {3, 4}, {1, 4}, {2, 3}],
        (1, 2, 1, 4, 1, 3, 3, 1, 3),
        (2, 3, 1, 3, 1, 4, 4, 1, 2),
    )
    assert not has_frozen_no(inst)
    return inst


SECOND_COMPONENT_TRACE = (
    "component 1\n"
        "step 1 vertex 2 init\n"
        "enode 0 col 1 ini 1 tar 1\n"
        "enode 1 col 4 ini 0 tar 0\n"
        "eedge 0 1\n"
        "step 2 vertex 3 spine\n"
        "enode 0 col 2 ini 0 tar 0\n"
        "enode 1 col 3 ini 0 tar 1\n"
        "enode 2 col 4 ini 1 tar 0\n"
        "eedge 0 1\n"
        "eedge 0 2\n"
        "eedge 1 2\n"
        "step 3 vertex 8 leaf\n"
        "enode 0 col 2 ini 0 tar 0\n"
        "enode 1 col 3 ini 0 tar 1\n"
        "enode 2 col 4 ini 1 tar 0\n"
        "eedge 0 2\n"
        "eedge 1 2\n"
        "step 4 vertex 6 spine\n"
        "enode 0 col 3 ini 1 tar 0\n"
        "enode 1 col 4 ini 0 tar 0\n"
        "eedge 0 1\n"
)


def test_solve_trace_follows_the_driver_components(tmp_path, capsys):
    path = write_lcr(tmp_path, two_swept_components())
    assert main(["solve", path, "--trace", "--algo", "caterpillar"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "NO\n"
        "component 0\n"
        "step 1 vertex 0 init\n"
        "enode 0 col 1 ini 1 tar 0\n"
        "enode 1 col 2 ini 0 tar 1\n"
        "eedge 0 1\n"
        "step 2 vertex 1 spine\n"
        "enode 0 col 2 ini 1 tar 0\n"
        "enode 1 col 3 ini 0 tar 1\n"
        "eedge 0 1\n"
    ) + SECOND_COMPONENT_TRACE


def test_solve_trace_names_input_vertices(tmp_path, capsys):
    # the edge {0, 1} is component 0, so the path 2-3-4 is component 1,
    # which numbers its own vertices 0, 1, 2; the sweep's steps name them
    # by their input ids, as the heights' pair under auto does
    path = tmp_path / "split.lcr"
    path.write_text(
        "p lcr 5 3 3\ne 0 1\ne 2 3\ne 3 4\n"
        "l 0 0 1\nl 1 0 1\nl 2 0 1\nl 3 0 1 2\nl 4 0 2\n"
        "s 0 0\ns 1 1\ns 2 0\ns 3 1\ns 4 2\nt 0 0\nt 1 1\nt 2 1\nt 3 0\nt 4 2\n"
    )
    assert main(["solve", str(path), "--trace"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("lifts of fr: 2 4\n")
    assert main(["solve", str(path), "--algo", "caterpillar", "--trace"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith(("component", "step"))] == [
        "component 0", "step 1 vertex 0 init", "step 2 vertex 1 spine",
        "component 1", "step 1 vertex 2 init", "step 2 vertex 3 spine", "step 3 vertex 4 spine",
    ]


def heights_then_sweep():
    """The first component of ``two_swept_components`` (a 3-colour edge once
    rich vertex 2 is removed), then a 5-vertex NO whose four colours a
    neighbour lists too, so that under auto the peel keeps it whole for the
    sweep, which loses tar at step 3."""
    first = make_instance(
        Graph(3, [(0, 1), (0, 2)]), [{1, 2}, {2, 3}, {1, 2, 3, 4}], (1, 2, 3), (2, 3, 4),
    )
    return side_by_side(first, shared_colours_no())


def test_solve_trace_of_a_mixed_heights_and_sweep_run(tmp_path, capsys):
    # the heights answer component 0 and print nothing; the swept component
    # keeps its index and the trace the sweep alone gives it, and the notice
    # follows, as after any other engine
    path = write_lcr(tmp_path, heights_then_sweep())
    assert main(["solve", path, "--trace", "--algo", "caterpillar"]) == EXIT_OK
    swept = capsys.readouterr().out
    assert main(["solve", path, "--trace"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "NO\n" + swept[swept.index("component 1\n"):]
        + "# trace available only for the caterpillar algorithm\n"
    )


def test_solve_trace_sweeps_each_component_once(tmp_path, monkeypatch, capsys):
    calls = []
    original = lcr.caterpillar_dp.encoding_history

    def counting(*args, **kwargs):
        calls.append(args[0].graph.n)
        return original(*args, **kwargs)

    monkeypatch.setattr(lcr.caterpillar_dp, "encoding_history", counting)
    # and any name the CLI might import the entry under
    monkeypatch.setattr(lcr.cli, "encoding_history", counting, raising=False)
    path = write_lcr(tmp_path, heights_then_sweep())
    assert main(["solve", path, "--trace", "--algo", "caterpillar"]) == EXIT_OK
    assert capsys.readouterr().out.count("component ") == 2
    assert calls == [2, 5]
    # under auto the heights take the first component, and the sweep only
    # the second
    calls.clear()
    assert main(["solve", path, "--trace"]) == EXIT_OK
    assert capsys.readouterr().out.count("component ") == 1
    assert calls == [5]


# digests of the whole ``solve --trace`` output at commit 0c5927b, whose spine
# step linked new e-nodes during its search; both answers are YES, and the
# sweep is asked for, since auto gives the 3-colour path to the heights
TRACE_DIGESTS = (
    (
        dict(spine_len=80, leaf_prob=0, colors=3, list_range=(3, 3), seed=14),
        "a24084b8a769b50655102aa96eedc2a5d0070b7f15ab310732c01b882214195f",
    ),
    (
        dict(spine_len=40, colors=5, list_range=(2, 4), seed=14),
        "568cf357bf948aa52bf2036dd4d26e3f8cfaf82ad9c1d5f36efe69eadbf59aaf",
    ),
)


def test_solve_trace_of_seeded_caterpillars_is_pinned(tmp_path, capsys):
    for params, digest in TRACE_DIGESTS:
        path = write_lcr(tmp_path, gen_caterpillar(**params))
        assert main(["solve", path, "--trace", "--algo", "caterpillar"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("YES\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_solve_trace_is_caterpillar_only(tmp_path, capsys):
    # a run whose components went to other engines prints only the notice:
    # the oracle asked for, and a trivial triangle left once rich vertex 3
    # is removed
    trivial = make_instance(
        Graph(4, [(0, 1), (1, 2), (0, 2)]),
        [{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2}],
        (1, 2, 3, 1),
        (1, 2, 3, 2),
    )
    for inst, extra in ((mixed_edge(), ["--algo", "bruteforce"]), (trivial, [])):
        assert main(["solve", write_lcr(tmp_path, inst), "--trace", *extra]) == EXIT_OK
        assert capsys.readouterr().out == (
            "YES\n# trace available only for the caterpillar algorithm\n"
        )


def test_solve_trace_says_when_no_component_was_left_to_sweep(tmp_path, capsys):
    # the peel takes both vertices of the edge, each with a private colour;
    # normalization removes the lone rich vertex, so no engine runs on it
    # whichever was asked for, witness or not; f0 = fr runs no engine either
    edge = tmp_path / "edge.lcr"
    edge.write_text("p lcr 2 1 5\ne 0 1\nl 0 1 2\nl 1 3 4\ns 0 1\ns 1 3\nt 0 2\nt 1 4\n")
    lone = tmp_path / "lone.lcr"
    lone.write_text("p lcr 1 0 2\nl 0 0 1\ns 0 0\nt 0 1\n")
    same = make_instance(Graph(2, [(0, 1)]), [{1, 2}, {2, 3}], (1, 2), (1, 2))
    runs = (
        (edge, ["--algo", "auto"], ""),
        (lone, ["--algo", "auto"], ""),
        (lone, ["--algo", "caterpillar"], ""),
        (lone, ["--algo", "bruteforce"], ""),
        (lone, ["--witness"], "r 0 1\n"),
        (write_lcr(tmp_path, same), [], ""),
    )
    for path, extra, steps in runs:
        assert main(["solve", str(path), "--trace", *extra]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"YES\n{steps}# no sweep: no component was left to sweep\n"
        )


def test_solve_trace_of_a_mixed_run_prints_its_sweeps_then_the_notice(tmp_path, capsys):
    # the triangle (vertex 2 moves) goes to the oracle as component 0, the
    # path is swept as component 1: its trace, the one the path alone
    # gives, is headed by that index and names the path's vertices by their
    # ids after the triangle's three; each holds four colours, which keeps
    # it from the heights, and a neighbour lists each colour of the path,
    # so the peel keeps it whole
    triangle = make_instance(
        Graph(3, [(0, 1), (1, 2), (0, 2)]),
        [{1, 2, 3}, {1, 2, 3}, {2, 3, 4}],
        (1, 2, 3),
        (1, 2, 4),
    )
    path = shared_colours_yes()
    assert main(["solve", write_lcr(tmp_path, path), "--trace"]) == EXIT_OK
    alone = capsys.readouterr().out
    assert alone.startswith("YES\ncomponent 0\nstep 1 vertex 0 init\n")
    inst = side_by_side(triangle, path)
    assert outside_heights(inst)
    assert main(["solve", write_lcr(tmp_path, inst), "--trace"]) == EXIT_OK
    shifted = re.sub(r"(?m)^(step \d+ vertex )(\d+)", lambda m: f"{m[1]}{int(m[2]) + 3}", alone)
    assert capsys.readouterr().out == (
        shifted.replace("component 0\n", "component 1\n")
        + "# trace available only for the caterpillar algorithm\n"
    )


def test_solve_equal_endpoints(tmp_path, capsys):
    inst = make_instance(Graph(1), [{1, 2}], (1,), (1,))
    assert main(["solve", write_lcr(tmp_path, inst), "--witness"]) == EXIT_OK
    assert capsys.readouterr().out == "YES\n"


def test_solve_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.lcr"
    bad.write_text("p lcr 1 0\n")
    assert main(["solve", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.lcr")]) == EXIT_USAGE


def test_solve_state_cap_exits_3(tmp_path, capsys):
    path = write_lcr(tmp_path, mixed_edge())
    argv = ["solve", path, "--algo", "bruteforce", "--state-cap", "1"]
    assert main(argv) == EXIT_CAP
    assert "error:" in capsys.readouterr().err


def test_solve_answers_a_no_beside_a_refused_component(tmp_path, capsys):
    # the NO has no frozen set and four colours: it comes from the oracle,
    # or with no witness from the heights once the peel removes its colour-3
    # leaf; the odd cycle lifts at neither end, so only the oracle could
    # answer it
    assert outside_heights(four_colour_no()) and outside_heights(huge_cycle())
    for cycle_first in (False, True):
        path = write_lcr(tmp_path, beside_a_huge_cycle(four_colour_no(), cycle_first))
        for extra in ([], ["--witness"]):
            assert main(["solve", path, *extra]) == EXIT_OK
            assert capsys.readouterr().out == "NO\n"


def test_solve_refusal_beside_yes_components_exits_3(tmp_path, capsys):
    # the heights answer the edge, and the odd cycle is left to the oracle
    mixed = make_instance(Graph(2, [(0, 1)]), [{0, 1}, {1, 2}], (0, 1), (1, 2))
    assert outside_heights(huge_cycle())
    for cycle_first in (False, True):
        inst = beside_a_huge_cycle(mixed, cycle_first)
        assert not has_frozen_no(inst)
        path = write_lcr(tmp_path, inst)
        assert main(["solve", path]) == EXIT_CAP
        assert "exceeds cap" in capsys.readouterr().err


def big_caterpillar(tmp_path):
    # 15,508 vertices: the state space is about 10^5360 colourings, an int
    # too long for CPython to write out
    path = str(tmp_path / "big.lcr")
    gen = ["gen", "caterpillar", "--spine-len", "8000", "--seed", "3", "-o", path]
    assert main(gen) == EXIT_OK
    return path


def test_a_refusal_past_4300_digits_exits_3(tmp_path, capsys):
    # the oracle asked for outright; auto answers this file from a frozen set
    path = big_caterpillar(tmp_path)
    for argv in (["solve", path, "--algo", "bruteforce", "--witness"],
                 ["solve", path, "--algo", "bruteforce"], ["oracle", "stats", path]):
        assert main(argv) == EXIT_CAP
        err = capsys.readouterr().err
        assert "exceeds cap" in err and len(err) < 200


def test_frozen_nos_past_the_cap_answer_under_auto(tmp_path, capsys):
    # each has a frozen set that fr recolours, which answers before the
    # oracle could refuse; with --witness auto would otherwise need it
    for path in (big_caterpillar(tmp_path), write_lcr(tmp_path, frozen_cycle())):
        for extra in ([], ["--witness"]):
            assert main(["solve", path, *extra]) == EXIT_OK
            assert capsys.readouterr().out == "NO\n"
        assert main(["solve", path, "--algo", "bruteforce"]) == EXIT_CAP
        capsys.readouterr()


def test_solve_trace_names_the_frozen_set(tmp_path, capsys):
    assert main(["solve", write_lcr(tmp_path, frozen_edge()), "--trace"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "NO\n# no sweep: a frozen set of 2 vertices, on which fr differs from f0: 0 1\n"
    )
    # the set is in input ids, with the one-colour vertices normalization removed
    inst = make_instance(
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        [{1, 2, 3}, {3}, {1, 2, 3}, {1, 2}],
        (2, 3, 1, 2),
        (1, 3, 2, 1),
    )
    assert main(["solve", write_lcr(tmp_path, inst), "--trace"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == (
        "# no sweep: a frozen set of 3 vertices, on which fr differs from f0: 1 2 3"
    )


def test_solve_trace_names_a_heights_certificate(tmp_path, capsys):
    # the winding path's bands disagree; the 6-cycle's f0 lifts, and its fr
    # winds once round every three vertices
    expected = (
        (winding_path(), "# heights: two-colour vertices whose bands fix "
                         "different lifts of fr: 0 2"),
        (even_cycle_no(), "# heights: a cycle of 6 vertices, around which f0 "
                          "and fr wind differently: 3 2 1 0 5 4"),
    )
    for inst, line in expected:
        for extra in ([], ["--witness"]):
            assert main(["solve", write_lcr(tmp_path, inst), "--trace", *extra]) == EXIT_OK
            assert capsys.readouterr().out == f"NO\n{line}\n"


def test_solve_answers_yes_beside_a_still_huge_cycle(tmp_path, capsys):
    edge = make_instance(Graph(2, [(0, 1)]), [{0, 1}, {1, 2}], (0, 1), (0, 2))
    path = write_lcr(tmp_path, beside_a_huge_cycle(edge, True, still=True))
    assert main(["solve", path]) == EXIT_OK
    assert capsys.readouterr().out == "YES\n"
    assert main(["solve", path, "--witness"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("YES\n")


def test_solve_negative_state_cap_exits_2(tmp_path, capsys):
    path = write_lcr(tmp_path, mixed_edge())
    argv = ["solve", path, "--algo", "bruteforce", "--state-cap", "-1"]
    assert main(argv) == EXIT_USAGE
    assert "error: argument --state-cap" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


# -- normalize -------------------------------------------------------------------


def test_normalize_writes_the_trimmed_instance(tmp_path, capsys):
    inst = make_instance(
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        [{1, 2}, {3}, {2, 3, 4}, {2, 4}],
        (1, 3, 2, 4),
        (2, 3, 4, 2),
    )
    out_path = tmp_path / "trimmed.lcr"
    code = main(["normalize", write_lcr(tmp_path, inst), "-o", str(out_path)])
    assert code == EXIT_OK
    trimmed = parse_lcr(out_path.read_text())
    assert trimmed.graph.n == 2
    assert trimmed.lists == (frozenset({2, 4}), frozenset({2, 4}))
    capsys.readouterr()


def test_normalize_defaults_to_stdout(tmp_path, capsys):
    path = write_lcr(tmp_path, mixed_edge())
    assert main(["normalize", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert parse_lcr(out) == mixed_edge()
    assert "0 removals" in out.splitlines()[0]


# -- reduce ---------------------------------------------------------------------


def one_gap_spr_text():
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)])
    spr = build_spr_instance(g, 0, 5, (0, 1, 3, 5), (0, 2, 4, 5))
    return format_spr(spr), spr


def test_reduce_emits_the_compiled_instance(tmp_path, capsys):
    text, spr = one_gap_spr_text()
    spr_path = tmp_path / "inst.spr"
    spr_path.write_text(text)
    out_path = tmp_path / "compiled.lcr"
    assert main(["reduce", str(spr_path), "-o", str(out_path)]) == EXIT_OK
    assert parse_lcr(out_path.read_text()) == compile_spr(spr).lcr
    capsys.readouterr()


def test_reduce_with_certificates(tmp_path, capsys):
    text, spr = one_gap_spr_text()
    spr_path = tmp_path / "inst.spr"
    spr_path.write_text(text)
    out = tmp_path / "compiled.lcr"
    dec = tmp_path / "bags.dec"
    cmap = tmp_path / "colors.map"
    wit = tmp_path / "weights.thr"
    code = main([
        "reduce", str(spr_path), "-o", str(out), "--threshold",
        "--emit-decomposition", str(dec), "--emit-colormap", str(cmap),
        "--emit-witness", str(wit),
    ])
    assert code == EXIT_OK
    capsys.readouterr()

    assert main(["verify", "threshold", str(out), str(wit)]) == EXIT_OK
    assert capsys.readouterr().out == "OK\n"
    # the decomposition certifies the pre-threshold compiled graph
    plain = tmp_path / "plain.lcr"
    assert main(["reduce", str(spr_path), "-o", str(plain)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "decomposition", str(plain), str(dec)]) == EXIT_OK
    assert capsys.readouterr().out == "OK width 2\n"
    assert cmap.read_text().splitlines() == [
        "c 0 1 0",
        "c 1 1 1",
        "c 2 2 0",
        "c 3 2 1",
    ]


def test_reduce_emit_witness_without_threshold_is_a_usage_error(tmp_path, capsys):
    text, _ = one_gap_spr_text()
    spr_path = tmp_path / "inst.spr"
    spr_path.write_text(text)
    out, wit = tmp_path / "compiled.lcr", tmp_path / "weights.thr"
    code = main(["reduce", str(spr_path), "-o", str(out), "--emit-witness", str(wit)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--emit-witness" in err and "--threshold" in err
    assert not out.exists() and not wit.exists()


def test_reduce_of_a_sparse_text_is_sized_by_its_named_vertices(tmp_path, capsys):
    # two named ids a million apart: a graph sized by the largest id would
    # take about 90 MiB before finding no path
    spr_path = tmp_path / "far.spr"
    spr_path.write_text("p spr 1000000000000 0\nsrc 0\ndst 999999\np0 0\npr 0\n")
    tracemalloc.start()
    try:
        code = main(["reduce", str(spr_path), "-o", str(tmp_path / "out.lcr")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: no path between 0 and 999999\n"
    assert peak < 2**20


# -- verify ---------------------------------------------------------------------


def test_verify_coloring(tmp_path, capsys):
    assert main(["verify", "coloring", write_lcr(tmp_path, mixed_edge())]) == EXIT_OK
    assert capsys.readouterr().out == "OK\n"
    bad = make_instance(Graph(2, [(0, 1)]), [{1, 2}, {1, 2}], (1, 2), (2, 2))
    assert main(["verify", "coloring", write_lcr(tmp_path, bad, "bad.lcr")]) == EXIT_OK
    assert capsys.readouterr().out == "FAIL f0=ok fr=bad\n"


def test_verify_sequence(tmp_path, capsys):
    inst = mixed_edge()
    inst_path = write_lcr(tmp_path, inst)
    good = tmp_path / "good.seq"
    good.write_text(format_sequence([(1, 3), (0, 2)]))
    assert main(["verify", "sequence", inst_path, str(good)]) == EXIT_OK
    assert capsys.readouterr().out == "OK\n"
    bad = tmp_path / "bad.seq"
    bad.write_text(format_sequence([(0, 2)]))
    assert main(["verify", "sequence", inst_path, str(bad)]) == EXIT_OK
    assert capsys.readouterr().out == "FAIL\n"


def test_verify_sequence_reads_the_solver_witness_file(tmp_path, capsys):
    # the file 'lcr solve --witness' writes opens with its answer line
    for inst, answer in ((mixed_edge(), "YES"), (frozen_edge(), "NO")):
        inst_path = write_lcr(tmp_path, inst)
        assert main(["solve", "--witness", inst_path]) == EXIT_OK
        witness = tmp_path / "witness.txt"
        witness.write_text(capsys.readouterr().out)
        assert witness.read_text().splitlines()[0] == answer
        code = main(["verify", "sequence", inst_path, str(witness)])
        out, err = capsys.readouterr()
        if answer == "YES":
            assert (code, out, err) == (EXIT_OK, "OK\n", "")
        else:
            assert code == EXIT_USAGE and out == ""
            assert err == "error: the answer line is NO: a NO answer has no sequence to verify\n"


def test_verify_decomposition_against_a_bare_graph(tmp_path, capsys):
    graph_path = tmp_path / "path.graph"
    graph_path.write_text(format_graph(Graph(3, [(0, 1), (1, 2)])))
    dec_path = tmp_path / "bags.dec"
    dec_path.write_text("b 0 1\nb 1 2\n")
    assert main(["verify", "decomposition", str(graph_path), str(dec_path)]) == EXIT_OK
    assert capsys.readouterr().out == "OK width 1\n"


def _timed_main(argv):
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def test_verify_threshold_on_a_large_edgeless_graph(tmp_path, capsys):
    # every pair is a non-edge: a pair-by-pair check makes 2 * 10**8 tests
    n = 20_000
    graph_path = tmp_path / "edgeless.graph"
    graph_path.write_text(f"p graph {n} 0\n")
    wit = tmp_path / "zero.thr"
    wit.write_text(format_threshold_witness(ThresholdWitness((0,) * n, 1)))
    code, elapsed = _timed_main(["verify", "threshold", str(graph_path), str(wit)])
    assert code == EXIT_OK and capsys.readouterr().out == "OK\n"
    assert elapsed < 2.0


def test_verify_decomposition_of_a_long_path(tmp_path, capsys):
    # scanning the bags for each edge makes 2 * 10**8 membership tests
    n = 20_000
    graph_path = tmp_path / "path.graph"
    graph_path.write_text(format_graph(Graph(n, [(i, i + 1) for i in range(n - 1)])))
    dec_path = tmp_path / "chain.dec"
    dec_path.write_text("".join(f"b {i} {i + 1}\n" for i in range(n - 1)))
    code, elapsed = _timed_main(["verify", "decomposition", str(graph_path), str(dec_path)])
    assert code == EXIT_OK and capsys.readouterr().out == "OK width 1\n"
    assert elapsed < 2.0


def test_verify_needs_its_certificate_file(tmp_path, capsys):
    path = write_lcr(tmp_path, mixed_edge())
    assert main(["verify", "sequence", path]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_verify_decomposition_without_bags_says_so(tmp_path, capsys):
    graph_path = tmp_path / "path.graph"
    graph_path.write_text(format_graph(Graph(3, [(0, 1), (1, 2)])))
    dec_path = tmp_path / "empty.dec"
    dec_path.write_text("# no bags\n")
    assert main(["verify", "decomposition", str(graph_path), str(dec_path)]) == EXIT_OK
    assert capsys.readouterr().out == "FAIL no bags\n"


def test_verify_threshold_names_an_out_of_range_vertex(tmp_path, capsys):
    path = write_lcr(tmp_path, mixed_edge())
    wit = tmp_path / "weights.thr"
    wit.write_text("thr 1\nw 0 1\nw 1 1\nw -1 1\n")
    assert main(["verify", "threshold", path, str(wit)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: weight for vertex -1 out of range: 3 weights name 0..2\n"


def test_verify_threshold_weight_count_mismatch(tmp_path, capsys):
    path = write_lcr(tmp_path, mixed_edge())
    wit = tmp_path / "weights.thr"
    wit.write_text("thr 1\nw 0 1\n")
    assert main(["verify", "threshold", path, str(wit)]) == EXIT_USAGE
    capsys.readouterr()


# -- gen ------------------------------------------------------------------------


def test_gen_caterpillar_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.lcr"
    b = tmp_path / "b.lcr"
    argv = ["gen", "caterpillar", "--spine-len", "3", "--seed", "42"]
    assert main(argv + ["-o", str(a)]) == EXIT_OK
    assert main(argv + ["-o", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()
    assert a.read_text().splitlines()[0] == "# seed 42"
    parse_lcr(a.read_text())
    capsys.readouterr()


def test_gen_layered_writes_a_loadable_instance(tmp_path, capsys):
    out = tmp_path / "inst.spr"
    argv = ["gen", "layered", "--depth", "3", "--seed", "7", "-o", str(out)]
    assert main(argv) == EXIT_OK
    text = out.read_text()
    assert text.splitlines()[0] == "# seed 7"
    from lcr.fileio import parse_spr

    parse_spr(text)
    capsys.readouterr()


def test_gen_rejects_a_negative_leaf_count(tmp_path, capsys):
    out = tmp_path / "x.lcr"
    argv = ["gen", "caterpillar", "--spine-len", "3", "--leaves-per-spine", "-1"]
    assert main(argv + ["-o", str(out)]) == EXIT_USAGE
    assert "error: leaf count" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_lists_below_two_colors(capsys):
    assert main(["gen", "caterpillar", "--list-min", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: list size range")


def test_a_failed_write_exits_2_without_a_traceback(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.lcr")
    gen = ["gen", "caterpillar", "--spine-len", "3", "-o", target]
    assert main(gen) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    normalize = ["normalize", write_lcr(tmp_path, mixed_edge()), "-o", target]
    assert main(normalize) == EXIT_USAGE
    assert "error: cannot write" in capsys.readouterr().err
    # the same through the module entry point, as a user would run it
    result = subprocess.run(
        [sys.executable, "-m", "lcr.cli", *gen],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == EXIT_USAGE
    assert "error: cannot write" in result.stderr
    assert "Traceback" not in result.stderr


def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # one line fails at the final flush, a long trace while it is printed
    small = write_lcr(tmp_path, mixed_edge(), "small.lcr")
    big = write_lcr(tmp_path, gen_caterpillar(60, colors=5, list_range=(3, 4), seed=4))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    for argv in (["solve", small], ["solve", "--algo", "caterpillar", "--trace", big]):
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "lcr.cli", *argv], env=env, stdout=write,
                stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("error: cannot write stdout: ")
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr


def test_gen_rejects_probabilities_outside_0_1(tmp_path, capsys):
    out = tmp_path / "x.txt"
    for argv, what in (
        (["gen", "caterpillar", "--spine-len", "3", "--leaf-prob", "2"], "leaf probability"),
        (["gen", "layered", "--depth", "3", "--density", "nan"], "density"),
    ):
        assert main(argv + ["-o", str(out)]) == EXIT_USAGE
        assert f"error: {what} must be within [0, 1]" in capsys.readouterr().err
        assert not out.exists()


def test_gen_defaults_to_stdout(capsys):
    assert main(["gen", "caterpillar", "--spine-len", "2", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# seed 1\n")
    parse_lcr(out)


# -- oracle stats ------------------------------------------------------------------


def test_oracle_stats_on_the_frozen_edge(tmp_path, capsys):
    assert main(["oracle", "stats", write_lcr(tmp_path, frozen_edge())]) == EXIT_OK
    assert capsys.readouterr().out == (
        "nodes 2\nedges 0\ncomponents 2\nf0_component 1\n"
    )


def test_oracle_stats_on_a_long_one_color_path(tmp_path, capsys):
    inst = one_color_path(5000)
    assert main(["oracle", "stats", write_lcr(tmp_path, inst)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "nodes 1\nedges 0\ncomponents 1\nf0_component 1\n"
    )


def test_oracle_stats_of_an_improper_f0_names_no_component(tmp_path, capsys):
    inst = make_instance(Graph(2, [(0, 1)]), [{1, 2}, {1, 2}], (1, 1), (1, 2))
    assert main(["oracle", "stats", write_lcr(tmp_path, inst)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "nodes 2\nedges 0\ncomponents 2\nf0_component 0\n"
    )


def test_oracle_stats_cap_exits_3(tmp_path, capsys):
    path = write_lcr(tmp_path, mixed_edge())
    assert main(["oracle", "stats", path, "--state-cap", "1"]) == EXIT_CAP
    capsys.readouterr()


def test_oracle_stats_negative_state_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.lcr"
    path.write_text("p lcr 0 0 0\n")
    assert main(["oracle", "stats", str(path), "--state-cap", "-5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --state-cap" in captured.err


# -- experiments -------------------------------------------------------------------


def test_experiments_writes_csv(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("kind=caterpillar\ncount=3\nseed=11\nalgos=caterpillar,bruteforce\n")
    out = tmp_path / "results.csv"
    assert main(["experiments", str(config), "-o", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,kind,seed,n,m,algo,answer")
    assert len(lines) == 1 + 3 * 2
    capsys.readouterr()


def test_experiments_negative_state_cap_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("kind=caterpillar\ncount=3\nseed=11\nstate_cap=-1\n")
    out = tmp_path / "results.csv"
    assert main(["experiments", str(config), "-o", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "error: state cap must be non-negative" in capsys.readouterr().err


def test_experiments_density_past_1_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("kind=layered\ncount=3\nseed=11\ndensity_max=7\n")
    out = tmp_path / "results.csv"
    assert main(["experiments", str(config), "-o", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "error: density_max must be within [0, 1], not 7.0" in capsys.readouterr().err
