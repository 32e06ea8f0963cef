"""Tests of the benchmark itself, on tiny ladders.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import spans
import worker
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = {
    "leafy": lambda seed: workloads.build_leafy(seed, spines=(12, 24, 48)),
    "path3": lambda seed: workloads.build_path3(seed, lengths=(8, 12, 16)),
    "rich_witness": lambda seed: workloads.build_rich_witness(seed, lengths=(20, 30, 40)),
    "spr_oracle": lambda seed: workloads.build_spr_oracle(seed, depths=(4, 5), per_rung=6),
}


def _job(batch, trace):
    return {
        "workload": batch.workload,
        "texts": batch.texts,
        "rungs": batch.rungs,
        "seconds": 0,
        "trace": trace,
    }


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_ladder_runs_clean_and_reports_every_metric(name):
    batch = TINY[name](3)
    ladder = run.Ladder(batch)
    result = worker.run_job(_job(batch, trace=True))
    attempted, failed, _, _ = run.check_all(batch, result)
    assert attempted == 2 * len(batch.cases)
    assert failed == 0

    e2e = run.end_to_end(result["untraced"], result["untraced_loop_s"], ladder,
                         result["maxrss_kib"], 0.1)
    assert set(e2e) == _declared("end_to_end")
    layers = run.layer_metrics(result["traced"][0], ladder)
    extra = {"bench.trace_overhead_frac", "bench.src_lines",
             "error_rate", "refusal_rate", "witness_steps"}
    assert set(layers) | extra == _declared("per_layer")


def test_planted_answers_match_the_oracle():
    from lcr.generators import gen_caterpillar
    from lcr.graph import Graph
    from lcr.instance import make_instance
    from lcr.oracle import oracle_decide

    rng = random.Random(5)
    for trial in range(6):
        inst = gen_caterpillar(5, leaf_prob=0, colors=3, list_range=(3, 3), seed=trial)
        case = workloads._from_generated(inst, True)
        planted = workloads._planted(case, trial % 2 == 0, rng, [(3, 4)])
        assert planted.fr != planted.f0
        lcr_inst = make_instance(
            Graph(planted.n, planted.edges), planted.lists, planted.f0, planted.fr
        )
        assert oracle_decide(lcr_inst) == planted.expect


def test_flipped_answer_and_corrupted_witness_raise_the_error_count():
    for name in ("path3", "rich_witness"):
        batch = TINY[name](1)
        result = worker.run_job(_job(batch, trace=False))
        assert run.check_all(batch, result)[1] == 0

        batch.cases[0].expect = not batch.cases[0].expect
        assert run.check_all(batch, result)[1] == len(result["differs"])
        batch.cases[0].expect = not batch.cases[0].expect

    out = result["outputs"][-1]
    steps = check.parse_steps(out["witness"])
    v, c = steps[0]
    bad = [(v, c)] + steps  # the repeated first step is no recolouring at all
    out["witness"] = "".join(f"r {a} {b}\n" for a, b in bad)
    assert run.check_all(batch, result)[1] == len(result["differs"])


def test_rerouting_checker_accepts_brute_force_and_rejects_jumps():
    from lcr.graph import Graph
    from lcr.rerouting import brute_solve, build_spr_instance

    rng = random.Random(2)
    seq = None
    while seq is None or len(seq) < 3:
        case = workloads.layered_spr(4, 3, 3, rng)
        spr = build_spr_instance(Graph(case.n, case.edges), case.s, case.t, case.p0, case.pr)
        seq = brute_solve(spr)
    # every vertex lies on a shortest path, so the ids are not renumbered
    assert check.valid_rerouting(case, seq)
    assert not check.valid_rerouting(case, [seq[0], seq[-1]])
    detour = list(case.p0)
    detour[1] = case.t
    assert not check.valid_rerouting(case, [case.p0, detour, case.pr])


def test_untraced_run_installs_no_shims_and_traced_run_restores_them(monkeypatch):
    originals = [
        (owner, attr, owner.__dict__[attr])
        for owner, attr, _ in spans.shim_table(spans.Recorder())
    ]
    seen = []

    def probe(text, rec):
        seen.append(all(owner.__dict__[attr] is fn for owner, attr, fn in originals))
        return worker.solve_decision(text, rec)

    monkeypatch.setitem(worker.CALL_PATHS, "probe", probe)
    batch = TINY["leafy"](0)
    job = _job(batch, trace=False)
    job["workload"] = "probe"
    worker.run_job(job)
    assert seen and all(seen)

    seen.clear()
    job["trace"] = True
    worker.run_job(job)
    assert True in seen and False in seen  # traced pass ran with shims in place
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_command_line_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spr_oracle",
         "--seed", "4", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == _declared("end_to_end")


def test_command_line_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leafy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
