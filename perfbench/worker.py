"""Closed-loop runner: one process, one thread, one instance at a time.

Reads a job (workload name, instance texts, rung keys, seconds, trace flag)
as JSON on stdin, feeds the texts through the same public call path as
``lcr solve`` / ``lcr reduce`` until the time is up, and writes the timings
and the first pass's outputs as JSON on stdout.  It runs in a fresh process
so that ``ru_maxrss`` is the program's own peak, not the set-up's.

With tracing on, untraced and traced passes alternate; only the traced
passes have the shims of ``spans.py`` installed.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

from lcr.driver import solve_driver
from lcr.errors import StateSpaceTooLarge
from lcr.fileio import (
    format_decomposition,
    format_lcr,
    format_sequence,
    format_threshold_witness,
    parse_lcr,
    parse_spr,
)
from lcr.reduction import (
    compile_spr,
    emit_path_decomposition,
    recoloring_to_spath_sequence,
    to_threshold,
)

import spans
import speed


def _parse(rec, parser, text):
    with rec.span("fileio.parse"):
        obj = parser(text)
    rec.count("fileio.parse_bytes", len(text))
    return obj


def solve_decision(text, rec):
    """``lcr solve``: instance text in, YES/NO out."""
    inst = _parse(rec, parse_lcr, text)
    with rec.span("driver"):
        report = solve_driver(inst, "auto")
    return {"answer": report.answer}


def solve_witness(text, rec):
    """``lcr solve --witness``: instance text in, answer and witness text out."""
    inst = _parse(rec, parse_lcr, text)
    with rec.span("driver"):
        report = solve_driver(inst, "auto", want_witness=True)
    out = {"answer": report.answer, "witness": None}
    if report.witness is not None:
        with rec.span("fileio.format"):
            out["witness"] = format_sequence(report.witness)
    return out


def reduce_and_solve(text, rec):
    """``lcr reduce`` with its certificates, then ``lcr solve --witness``,
    then the recolouring witness translated back into a rerouting."""
    spr = _parse(rec, parse_spr, text)
    with rec.span("reduction.compile"):
        red = compile_spr(spr)
    rec.count("reduction.forbidden_vertices", len(red.forbidden))
    with rec.span("reduction.certificates"):
        decomposition = emit_path_decomposition(red)
        _, threshold = to_threshold(red)
    with rec.span("fileio.format"):
        lcr_text = format_lcr(red.lcr)
        format_decomposition(decomposition)
        format_threshold_witness(threshold)
    inst = _parse(rec, parse_lcr, lcr_text)
    try:
        with rec.span("driver"):
            report = solve_driver(inst, "auto", want_witness=True)
    except StateSpaceTooLarge:
        return {"refused": True}
    out = {"answer": report.answer, "steps": len(report.witness or ())}
    if report.answer:
        with rec.span("reduction.translate"):
            paths = recoloring_to_spath_sequence(red, report.witness)
            back = {new: old for old, new in spr.id_map.items()}
            out["reroute"] = [[back[v] for v in p] for p in paths]
    return out


CALL_PATHS = {
    "leafy": solve_decision,
    "path3": solve_decision,
    "rich_witness": solve_witness,
    "spr_oracle": reduce_and_solve,
}


def run_pass(path, texts, rungs, rec, calibrator):
    """Solve every text once; per-instance seconds, outputs, and the index
    of the calibration sample taken last before each instance."""
    times, outs, marks = [], [], []
    for text, rung in zip(texts, rungs):
        rec.rung = rung
        calibrator.maybe_sample()
        marks.append(len(calibrator.samples) - 1)
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = path(text, rec)
        except Exception as exc:  # any crash is an error the checker counts
            out = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return times, outs, marks


def _recorded(rec: spans.Recorder) -> dict:
    def rows(table):
        return [[rung, name, value] for (rung, name), value in table.items()]

    return {
        "total": rows(rec.total),
        "self": rows(rec.self_time),
        "calls": rows(rec.calls),
        "counts": rows(rec.counts),
        "peaks": rec.peaks,
        "minima": rec.minima,
    }


def run_job(job: dict) -> dict:
    path = CALL_PATHS[job["workload"]]
    texts, rungs = job["texts"], job["rungs"]
    deadline = time.perf_counter() + job["seconds"]
    untraced, untraced_marks, traced, differs = [], [], [], []
    first = None
    null = spans.NullRecorder()
    calibrator = speed.Calibrator()
    gc.collect()
    gc.freeze()  # the program's collections need not scan the job's texts
    while True:
        times, outs, marks = run_pass(path, texts, rungs, null, calibrator)
        untraced.append(times)
        untraced_marks.append(marks)
        if first is None:
            first = outs
            gc.freeze()  # nor the outputs kept for checking
        differs.append([i for i, (a, b) in enumerate(zip(first, outs)) if a != b])
        if job["trace"]:
            rec = spans.Recorder()
            with spans.installed(rec):
                times, outs, _ = run_pass(path, texts, rungs, rec, calibrator)
            traced.append({"times": times, **_recorded(rec)})
            differs.append([i for i, (a, b) in enumerate(zip(first, outs)) if a != b])
        if time.perf_counter() >= deadline:
            break
    calibrator.sample()  # so that every instance has a sample after it too
    loop_s = calibrator.bracketing()
    return {
        "untraced": untraced,
        "untraced_loop_s": [[loop_s[m] for m in marks] for marks in untraced_marks],
        "traced": traced,
        "outputs": first,
        "differs": differs,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(run_job(job), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
