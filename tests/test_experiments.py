from __future__ import annotations

import csv
import hashlib
import io
import random

import pytest

from lcr.errors import ParseError
from lcr.experiments import CSV_FIELDS, parse_config, run_experiments
from lcr.generators import gen_layered_spr
from lcr.oracle import DEFAULT_STATE_CAP
from lcr.reduction import compile_spr

from .helpers import direct_oracle_reduction


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def strip_timing(text):
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def test_empty_config_yields_a_bare_header():
    text = run_experiments("")
    assert text.splitlines() == [",".join(CSV_FIELDS)]


def test_config_defaults_and_comments():
    config = parse_config("# tune the corpus\ncount = 4\n\nseed=9\n")
    assert config["count"] == 4
    assert config["seed"] == 9
    assert config["kind"] == "caterpillar"
    assert config["leaf_prob"] == 0.6
    assert config["algos"] == ["caterpillar", "bruteforce"]


@pytest.mark.parametrize(
    "text",
    [
        "count\n",
        "mystery=1\n",
        "kind=starfish\ncount=1\n",
        "kind=layered\ncount=1\nalgos=warp\n",
        # each value is checked before any instance is generated
        "kind=layered\ncount=2\nalgos=spr\nstate_cap=-1\n",
        "count=0\nstate_cap=-1\n",
        "count=0\nalgos=warp\n",
        "kind=layered\ncount=0\nalgos=warp\n",
        "count=-3\n",
        "count=two\n",
        "leaf_prob=often\n",
        # a probability outside [0, 1]
        "count=3\nleaf_prob=5\n",
        "count=3\nleaf_prob=nan\n",
        "kind=layered\ncount=3\ndensity_min=-1\n",
        "kind=layered\ncount=3\ndensity_max=7\n",
        # a range whose minimum exceeds its maximum
        "kind=layered\ncount=3\ndensity_min=0.9\ndensity_max=0.2\n",
        "kind=layered\ncount=3\ndepth_min=5\ndepth_max=2\n",
        "count=3\nspine_min=6\nspine_max=3\n",
        # a value below what the generators or the compiler accept
        "kind=layered\ncount=3\ndepth_min=1\ndepth_max=1\n",
        "kind=layered\ncount=0\ndepth_min=0\nalgos=spr\n",
        "count=30\nspine_min=0\nspine_max=1\n",
        "count=0\ncolors=1\n",
        "count=0\nlist_min=1\n",
        "kind=layered\ncount=0\nmax_width=0\n",
    ],
)
def test_bad_configs_are_rejected(text):
    with pytest.raises(ParseError):
        run_experiments(text)


def test_distance_one_runs_without_the_reduction():
    rows = rows_of(run_experiments(
        "kind=layered\ncount=6\nseed=2\ndepth_min=1\ndepth_max=2\nalgos=spr\n"
    ))
    assert len(rows) == 6 and all(r["answer"] in ("YES", "NO") for r in rows)


def test_caterpillar_runs_compare_both_algorithms():
    text = run_experiments("kind=caterpillar\ncount=5\nseed=3000\n")
    rows = rows_of(text)
    assert len(rows) == 10
    assert {r["algo"] for r in rows} == {"caterpillar", "bruteforce"}
    assert all(r["agree"] == "yes" for r in rows)
    assert all(r["answer"] in ("YES", "NO") for r in rows)
    # trivially decided instances leave the size columns blank
    for r in rows:
        if r["algo"] == "caterpillar":
            assert r["oracle_nodes"] == ""
            if r["slack_min"]:
                assert int(r["slack_min"]) >= 0
        else:
            assert r["enode_peak"] == ""
    assert any(r["enode_peak"] for r in rows if r["algo"] == "caterpillar")
    assert any(r["oracle_nodes"] for r in rows if r["algo"] == "bruteforce")


def test_caterpillar_size_columns_are_pinned():
    # SHA-256 of the CSV without its wall_s column, taken at commit 6d8f1eb,
    # whose driver kept the peak and slack extremes as report fields; the
    # runner now reads them off each swept component's size records
    text = run_experiments(
        "kind=caterpillar\ncount=150\nseed=11\nspine_max=12\ncolors=5\nlist_max=4\n"
    )
    rows = rows_of(text)
    assert any(r["enode_peak"] for r in rows) and any(r["slack_max"] for r in rows)
    digest = hashlib.sha256("\n".join(strip_timing(text)).encode()).hexdigest()
    assert digest == "0119e2fa1eae625e135d9c335fbdd1a719665226bdbe35138c4944f722ca39cf"


def test_layered_runs_compare_rerouting_against_the_reduction():
    text = run_experiments(
        "kind=layered\ncount=4\nseed=4000\ndepth_min=2\ndepth_max=3\n"
    )
    rows = rows_of(text)
    assert len(rows) == 8
    assert {r["algo"] for r in rows} == {"spr", "reduction"}
    assert all(r["agree"] == "yes" for r in rows)


def test_algo_subset_is_respected():
    text = run_experiments("kind=caterpillar\ncount=2\nseed=5\nalgos=caterpillar\n")
    rows = rows_of(text)
    assert len(rows) == 2
    assert all(r["algo"] == "caterpillar" for r in rows)


def test_reruns_differ_only_in_timing():
    config = "kind=caterpillar\ncount=4\nseed=777\n"
    first = run_experiments(config)
    second = run_experiments(config)
    assert strip_timing(first) == strip_timing(second)
    config_layered = "kind=layered\ncount=3\nseed=888\n"
    assert strip_timing(run_experiments(config_layered)) == strip_timing(
        run_experiments(config_layered)
    )


@pytest.mark.parametrize(
    "config, count, algos",
    [
        ("kind=caterpillar\ncount=6\nseed=5\nstate_cap=200\n", 6,
         ("caterpillar", "bruteforce")),
        ("kind=layered\ncount=4\nseed=4000\nstate_cap=30\n", 4,
         ("spr", "reduction")),
    ],
    ids=["caterpillar", "layered"],
)
def test_a_refused_oracle_run_keeps_the_experiment_going(config, count, algos):
    rows = rows_of(run_experiments(config))
    assert [(r["instance"], r["algo"]) for r in rows] == [
        (str(i), a) for i in range(count) for a in algos
    ]
    refused = [r for r in rows if r["answer"] == "REFUSED"]
    assert refused and all(r["oracle_nodes"] == "" for r in refused)
    # refused runs are left out of agree; the decided answers still match
    assert all(r["agree"] == "yes" for r in rows)


@pytest.mark.parametrize("cap", [DEFAULT_STATE_CAP, 30])
def test_reduction_rows_agree_with_the_direct_oracle_reference(cap):
    seed, count = 10, 40
    config = f"kind=layered\ncount={count}\nseed={seed}\nstate_cap={cap}\n"
    rows = rows_of(run_experiments(config + "depth_max=6\nmax_width=4\n"))
    reduction = [r for r in rows if r["algo"] == "reduction"]
    assert len(reduction) == count
    # the runner's draws: depth, then density, from one generator seeded by seed
    rng = random.Random(seed)
    rescued = 0
    for i, row in enumerate(reduction):
        depth, density = rng.randint(2, 6), rng.uniform(0.5, 0.9)
        spr = gen_layered_spr(depth, max_width=4, density=density, seed=seed + 1 + i)
        graph = compile_spr(spr).lcr.graph
        assert (row["n"], row["m"]) == (str(graph.n), str(graph.m))
        answer = direct_oracle_reduction(spr, cap)
        if answer is None:
            rescued += row["answer"] != "REFUSED"
        else:
            # the driver refuses only what the whole-graph oracle refuses
            assert row["answer"] == ("YES" if answer else "NO")
    # normalizing and splitting decide some instances the reference refuses
    assert rescued > 0
