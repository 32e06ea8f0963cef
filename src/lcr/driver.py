"""End-to-end solve pipeline shared by the CLI and the experiments runner.

Order of business: check the endpoints, shortcut f0 = fr, normalize; under
``auto``, answer NO from a frozen set that fr recolours, before any engine
runs; then split the trimmed graph into components and answer each in turn.
Under ``auto`` a component whose lists lie within three colours goes to the
heights (``lcr.heights``), which decide it in linear time unless neither
end lifts; the others, and those, go to the caterpillar sweep or the
exhaustive oracle, whose two-sided search builds no reconfiguration graph;
an oracle-bound component whose endpoints agree needs neither.  Witnesses
come from the heights or the oracle and are lifted back through the
normalization trace.

The run stops once its answer is known: a sweep at the step that loses the
tar mark, which no later step brings back (a spine step passes it on only
from the old tar), and the run at the first NO component, after which no
component is induced or solved.  ``ComponentReport.steps`` counts the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import caterpillar_dp, heights, oracle
from .caterpillar_dp import SizeRecord, Sweep
from .errors import ImproperEndpoints, NotCaterpillar, StateSpaceTooLarge
from .graph import recognize_caterpillar
from .instance import (
    LcrInstance,
    SingletonRemoval,
    Step,
    frozen_no,
    induced_instance,
    is_proper_list_coloring,
    lift_sequence,
    normalize,
)

ALGORITHMS = ("auto", "caterpillar", "bruteforce")


@dataclass
class ComponentReport:
    vertices: tuple[int, ...]  # ids in the normalized instance
    algorithm: str  # "heights" | "caterpillar" | "bruteforce" | "trivial" (f0 = fr there)
    answer: bool
    oracle_nodes: Optional[int] = None  # colourings the oracle's search visited
    # a swept run's sweep steps, fewer than len(vertices) where it lost tar,
    # and its summary over the records of those steps (None for the oracle):
    # the largest pre-extraction count and the extremes of bound - pre-extraction
    steps: Optional[int] = None
    enode_peak: Optional[int] = None
    slack_min: Optional[int] = None
    slack_max: Optional[int] = None


@dataclass
class SolveReport:
    """``components`` has one report per component that ran, in order; a NO
    component is the last.  A ``"frozen"`` NO runs none."""

    answer: bool
    algorithm: str  # "trivial" | "frozen" | "heights" | "caterpillar" | "bruteforce" | "mixed"
    witness: Optional[list[Step]]
    components: list[ComponentReport]
    # a "frozen" NO's vertex set, sorted input ids: f0 freezes it in the
    # input instance, and fr differs from f0 on it
    frozen: Optional[tuple[int, ...]] = None
    # a "heights" NO's certificate, in input ids: its vertices lie in the
    # trimmed instance, whose lists are the ones it speaks of
    winding: Optional[heights.Winding] = None


def solve_driver(
    inst: LcrInstance,
    algo: str = "auto",
    want_witness: bool = False,
    state_cap: int = oracle.DEFAULT_STATE_CAP,
    observer: Optional[Callable[[Sweep, SizeRecord], None]] = None,
) -> SolveReport:
    """Decide the instance; optionally return a recoloring witness.

    Under ``auto``, a set of the trimmed instance that f0 freezes and fr
    recolours (``frozen_no``) answers NO before any component runs, witness
    asked or not: the report's algorithm is ``"frozen"``, and ``frozen``
    holds the set in input ids together with the vertices that
    normalization removed as one-colour ones, so it is frozen in the input
    itself.  Otherwise ``auto`` tries the heights on each component of the
    trimmed graph, witness asked or not; a heights NO leaves its
    certificate in ``winding``.  A component they do not take goes to the
    caterpillar sweep if it is a caterpillar and to the oracle if not; the
    report's algorithm is ``"mixed"`` when the components went different
    ways.  ``caterpillar`` and ``bruteforce`` always run their own engine.
    Witnesses come from the heights and the oracle, so ``want_witness``
    sends what the heights leave to the oracle unless the caller insisted
    on the sweep, in which case a witness request is an error.  Each
    component is recognized at most once; the sweep reuses that structure.
    ``observer``, if given, sees each sweep step that runs as (live
    ``Sweep``, size record); each swept component opens with ``init``, and a
    sweep's last step is the one that lost tar, if any.  The first NO
    component ends the run.  A component bound for the oracle whose
    endpoints agree answers YES as ``"trivial"`` and searches nothing; the
    run's algorithm is named by the other components that ran, if any.  A
    component whose oracle would pass ``state_cap`` is skipped, and its
    ``StateSpaceTooLarge`` raised at the end only if no component said NO.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if want_witness and algo == "caterpillar":
        raise ValueError("the caterpillar sweep is decision-only; no witnesses")
    if state_cap < 0:
        raise ValueError(f"state cap must be non-negative, not {state_cap}")

    if not is_proper_list_coloring(inst, inst.f0):
        raise ImproperEndpoints("f0 is not a proper list coloring")
    if not is_proper_list_coloring(inst, inst.fr):
        raise ImproperEndpoints("fr is not a proper list coloring")

    if inst.f0 == inst.fr:
        return SolveReport(True, "trivial", [] if want_witness else None, [])

    trimmed, trace = normalize(inst)
    if algo == "auto":
        frozen = frozen_no(trimmed)
        if frozen is not None:
            # a one-colour vertex's colour left its neighbours' lists, so the
            # removed ones hold the input's other colours of the set's lists
            kept = trace.kept
            frozen = [kept[v] for v in frozen] + [
                r.vertex for r in trace.removals if isinstance(r, SingletonRemoval)
            ]
            return SolveReport(False, "frozen", None, [], tuple(sorted(frozen)))
    # a witness request sends auto past the sweep without recognizing anything
    sweep = algo == "caterpillar" or (algo == "auto" and not want_witness)
    answer, refusal, winding = True, None, None
    reports = []
    witness_steps: Optional[list[Step]] = [] if want_witness else None
    for comp in trimmed.graph.connected_components():
        sub = induced_instance(trimmed, comp)  # new id i is comp[i]
        # None unless the component is within three colours and an end lifts
        decided = heights.decide(sub, want_witness) if algo == "auto" else None
        # None unless the component is a caterpillar
        structure = recognize_caterpillar(sub.graph) if sweep and decided is None else None
        if structure is None and algo == "caterpillar":
            raise NotCaterpillar(
                f"component {comp} of the trimmed graph is not a caterpillar"
            )
        steps = None  # a YES's witness, in the component's ids
        if decided is not None:
            report = ComponentReport(tuple(comp), "heights", decided.answer)
            steps = decided.steps
            if decided.winding is not None:
                kept = trace.kept
                winding = decided.winding._replace(
                    vertices=tuple(kept[comp[v]] for v in decided.winding.vertices)
                )
        elif structure is not None:
            peak, lo, hi = 0, math.inf, -math.inf
            for state, rec in caterpillar_dp.encoding_history(sub, structure):
                pre = rec.pre_extraction
                # rec.bound, read off the fields without a property call
                slack = (2 if rec.step == 1 else rec.prev_size + rec.degree) - pre
                if pre > peak:
                    peak = pre
                if slack < lo:
                    lo = slack
                if slack > hi:
                    hi = slack
                if observer is not None:
                    observer(state, rec)
                if state.tar is None:
                    break  # NO: no later step brings tar back
            report = ComponentReport(
                tuple(comp), "caterpillar", state.tar is not None, steps=rec.step,
                enode_peak=peak, slack_min=lo, slack_max=hi,
            )
        elif sub.f0 == sub.fr:
            # YES with no steps: no state space to build, however large
            report = ComponentReport(tuple(comp), "trivial", True)
        else:
            try:
                steps, visited = oracle.reachable(
                    sub.graph, sub.lists, sub.f0, sub.fr, state_cap
                )
            except StateSpaceTooLarge as exc:
                refusal = refusal or exc  # another component may answer NO
                continue
            report = ComponentReport(
                tuple(comp), "bruteforce", steps is not None, oracle_nodes=visited,
            )
        if steps is not None and witness_steps is not None:
            witness_steps.extend((comp[v], c) for v, c in steps)
        reports.append(report)
        if not report.answer:
            answer = False
            break
    if refusal is not None and answer:
        raise refusal
    # trivial components name the algorithm only when no other is left; with
    # no component at all, it names the one that was asked for
    used = {r.algorithm for r in reports}
    if len(used) > 1:
        used.discard("trivial")
    used = used or {"caterpillar" if sweep else "bruteforce"}
    chosen = used.pop() if len(used) == 1 else "mixed"

    witness: Optional[list[Step]] = None
    if want_witness and answer:
        witness = lift_sequence(trace, inst, witness_steps)

    return SolveReport(answer, chosen, witness, reports, winding=winding)
