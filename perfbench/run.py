"""lcr benchmark: one seeded workload, timed end to end or traced by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload leafy --seed 1 --seconds 15 --trace 0

Set-up builds the workload's instances from the seed (several times, to
time it), a fresh worker process solves them in a closed loop for the given
seconds, and this process checks every output against its planted or
independent reference.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # set-up runs at least this often, and for SETUP_MIN_S
SETUP_MIN_S = 2.0
TIME_LIMIT_S = 170.0


def growth_exponent(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size); 0 if any time is 0."""
    if len(sizes) < 2 or min(times) <= 0:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


class Ladder:
    """Rung keys of a batch and the mean vertex count of each rung."""

    def __init__(self, batch):
        self.rungs = batch.rungs
        self.keys = sorted(set(batch.rungs))
        self.sizes = [
            statistics.fmean(c.n for c, r in zip(batch.cases, batch.rungs) if r == k)
            for k in self.keys
        ]
        self.count = {k: batch.rungs.count(k) for k in self.keys}

    def per_rung_means(self, times) -> list[float]:
        sums = dict.fromkeys(self.keys, 0.0)
        for t, r in zip(times, self.rungs):
            sums[r] += t
        return [sums[k] / self.count[k] for k in self.keys]

    def top_time(self, times) -> float:
        top = self.keys[-1]
        return sum(t for t, r in zip(times, self.rungs) if r == top)


def fastest(passes) -> list[float]:
    """Each instance's fastest time over the passes (for the trace overhead,
    where traced and untraced passes are compared on the same footing)."""
    return [min(col) for col in zip(*passes)]


def typical(passes, loop_s) -> list[float]:
    """Each instance's median over the passes, in reference seconds.

    ``loop_s`` holds the calibration loop's timing around each instance of
    each pass, so every time is scaled by how fast the machine ran just
    then (see ``speed``) before the median is taken.
    """
    return [
        statistics.median(speed.in_reference(t, c) for t, c in zip(times, loops))
        for times, loops in zip(zip(*passes), zip(*loop_s))
    ]


def end_to_end(untraced, loop_s, ladder: Ladder, maxrss_kib: int, setup_s: float) -> dict:
    """End-to-end metrics of the untraced passes, in reference seconds."""
    per_instance = typical(untraced, loop_s)
    return {
        "wall_s": (sum(per_instance), "s"),
        "largest_s": (ladder.top_time(per_instance), "s"),
        "growth_exp": (
            growth_exponent(ladder.sizes, ladder.per_rung_means(per_instance)), "exponent"),
        "peak_rss_mib": (maxrss_kib / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def _table(rows):
    out: dict[str, dict] = {}
    for rung, name, value in rows:
        out.setdefault(name, {})[rung] = value
    return out


def layer_metrics(traced: dict, ladder: Ladder) -> dict:
    """Per-layer metrics of one traced pass."""
    total, own = _table(traced["total"]), _table(traced["self"])
    calls, counts = _table(traced["calls"]), _table(traced["counts"])

    def t(name):
        return sum(total.get(name, {}).values())

    def c(name, table=counts):
        return sum(table.get(name, {}).values())

    def ratio(a, b):
        return a / b if b else 0.0

    def growth(name):
        per_rung = total.get(name, {})
        means = [per_rung.get(k, 0.0) / ladder.count[k] for k in ladder.keys]
        return growth_exponent(ladder.sizes, means)

    return {
        "fileio.parse_s": (t("fileio.parse"), "s"),
        "fileio.format_s": (t("fileio.format"), "s"),
        "fileio.parse_mb_per_s": (ratio(c("fileio.parse_bytes") / 1e6, t("fileio.parse")), "MB/s"),
        "fileio.parse_growth_exp": (growth("fileio.parse"), "exponent"),
        "driver.self_s": (sum(own.get("driver", {}).values()), "s"),
        "instance.endpoint_check_s": (t("instance.endpoint_check"), "s"),
        "instance.induced_s": (t("instance.induced"), "s"),
        "instance.normalize_s": (t("instance.normalize"), "s"),
        "instance.removals": (c("instance.removals"), "count"),
        "instance.normalize_growth_exp": (growth("instance.normalize"), "exponent"),
        "instance.lift_s": (t("instance.lift"), "s"),
        "instance.lift_added_steps": (c("instance.lift_added_steps"), "count"),
        "instance.lift_growth_exp": (growth("instance.lift"), "exponent"),
        "graph.components_s": (t("graph.components"), "s"),
        "graph.recognize_s": (t("graph.recognize"), "s"),
        "graph.recognize_calls_per_component": (
            ratio(c("graph.recognize", calls), c("graph.components")), "ratio"),
        "caterpillar_dp.spine_s": (t("caterpillar_dp.spine"), "s"),
        "caterpillar_dp.spine_steps": (c("caterpillar_dp.spine", calls), "count"),
        "caterpillar_dp.spine_growth_exp": (growth("caterpillar_dp.spine"), "exponent"),
        "caterpillar_dp.leaf_s": (t("caterpillar_dp.leaf"), "s"),
        "caterpillar_dp.leaf_steps": (c("caterpillar_dp.leaf", calls), "count"),
        "caterpillar_dp.init_s": (sum(own.get("caterpillar_dp.init", {}).values()), "s"),
        "caterpillar_dp.enode_peak": (traced["peaks"].get("caterpillar_dp.enode_peak", 0), "count"),
        "caterpillar_dp.enodes_built": (c("caterpillar_dp.enodes_built"), "count"),
        "caterpillar_dp.enodes_kept_ratio": (
            ratio(c("caterpillar_dp.enodes_kept"), c("caterpillar_dp.enodes_built")), "ratio"),
        "caterpillar_dp.bound_slack_min": (
            traced["minima"].get("caterpillar_dp.bound_slack_min", 0), "count"),
        "oracle.build_s": (t("oracle.build"), "s"),
        "oracle.bfs_s": (t("oracle.bfs"), "s"),
        "oracle.states": (c("oracle.states"), "count"),
        "oracle.edges": (c("oracle.edges"), "count"),
        "oracle.states_per_s": (ratio(c("oracle.states"), t("oracle.build")), "1/s"),
        "oracle.enumeration_yield": (ratio(c("oracle.states"), c("oracle.state_space")), "ratio"),
        "oracle.refusals": (c("oracle.refusals"), "count"),
        "reduction.compile_s": (t("reduction.compile"), "s"),
        "reduction.certificates_s": (t("reduction.certificates"), "s"),
        "reduction.translate_s": (t("reduction.translate"), "s"),
        "reduction.forbidden_vertices": (c("reduction.forbidden_vertices"), "count"),
    }


def median_metrics(samples: list[dict]) -> dict:
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "lcr").glob("*.py"))
    )


def run_worker(job: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job).encode(),
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def check_all(batch, result) -> tuple[int, int, int, int]:
    """(attempted, failed, refusals per pass, witness steps per pass)."""
    from check import check_output

    wrong, refused, witness_steps = set(), 0, 0
    for i, (case, out) in enumerate(zip(batch.cases, result["outputs"])):
        ok, steps = check_output(case, out)
        if not ok:
            wrong.add(i)
            print(f"instance {i} (rung {batch.rungs[i]}): wrong output {str(out)[:200]}",
                  file=sys.stderr)
        refused += bool(out.get("refused"))
        witness_steps += steps
    failed = sum(len(wrong.union(d)) for d in result["differs"])
    attempted = len(result["differs"]) * len(batch.cases)
    return attempted, failed, refused, witness_steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "lcr" / "__init__.py").is_file():
        print(f"no lcr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        print(f"unknown workload {args.workload!r}; one of {sorted(BUILDERS)}",
              file=sys.stderr)
        return 2
    build = BUILDERS[args.workload]

    calibrator = speed.Calibrator()
    setups, batch = [], None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        calibrator.sample()
        batch = None  # each build starts from the same heap
        gc.collect()
        t0 = time.perf_counter()
        batch = build(args.seed)
        setups.append(time.perf_counter() - t0)
    calibrator.sample()  # each repeat now has a loop timing on either side
    setup_s = statistics.median(map(speed.in_reference, setups, calibrator.bracketing()))
    ladder = Ladder(batch)

    job = {
        "workload": args.workload,
        "texts": batch.texts,
        "rungs": batch.rungs,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    result = run_worker(job, TIME_LIMIT_S - (time.perf_counter() - started))
    attempted, failed, refused, witness_steps = check_all(batch, result)

    if args.trace:
        samples = [layer_metrics(p, ladder) for p in result["traced"]]
        metrics = median_metrics(samples)
        untraced = sum(fastest(result["untraced"]))
        traced = sum(fastest([p["times"] for p in result["traced"]]))
        metrics["bench.trace_overhead_frac"] = (traced / untraced - 1, "ratio")
        metrics["bench.src_lines"] = (src_lines(), "lines")
        metrics["error_rate"] = (failed / attempted, "ratio")
        metrics["refusal_rate"] = (refused / len(batch.cases), "ratio")
        metrics["witness_steps"] = (witness_steps, "count")
    else:
        metrics = end_to_end(
            result["untraced"], result["untraced_loop_s"], ladder,
            result["maxrss_kib"], setup_s,
        )
        print(f"measured: fastest passes {sum(fastest(result['untraced'])):.4f} s, "
              f"median set-up {statistics.median(setups):.4f} s; in reference seconds: "
              f"wall {metrics['wall_s'][0]:.4f} s, setup {setup_s:.4f} s", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
