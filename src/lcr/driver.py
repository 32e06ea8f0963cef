"""End-to-end solve pipeline shared by the CLI and the experiments runner.

Order of business: check the endpoints, shortcut f0 = fr, normalize; under
``auto``, answer NO from a frozen set that fr recolours, before any engine
runs; then split the trimmed graph into components and answer each in turn
with the first engine that takes it:

1. the heights (``lcr.heights``), under ``auto`` only: a component whose
   lists lie within three colours, in linear time, unless neither end lifts;
2. the caterpillar sweep, on a run that sweeps (``caterpillar``, or ``auto``
   with no witness asked) and a component that is a caterpillar, recognized
   once; under ``caterpillar`` any other component is a ``NotCaterpillar``;
3. ``trivial``, a YES with no steps and no search, where the ends agree;
4. the oracle's two-sided search, which builds no reconfiguration graph.

Witnesses come from the heights or the oracle and are lifted back through
the normalization trace.

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
    Certificate,
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
    component is the last.  A ``"frozen"`` NO runs none.  ``certificate``
    holds a NO's evidence, in input ids: a ``"frozen"`` set with the
    one-colour vertices normalization removed, so that f0 freezes it in the
    input itself, or the heights' ``"pair"`` or ``"cycle"``."""

    answer: bool
    algorithm: str  # "trivial" | "frozen" | "heights" | "caterpillar" | "bruteforce" | "mixed"
    witness: Optional[list[Step]]
    components: list[ComponentReport]
    certificate: Optional[Certificate] = None


def _first_engine(
    sub: LcrInstance, comp: list[int], algo: str, sweep: bool, want_witness: bool,
    state_cap: int, observer: Optional[Callable[[Sweep, SizeRecord], None]],
) -> tuple[str, bool, Optional[list[Step]], Optional[Certificate], dict]:
    """Answer the component ``sub`` (new id i is ``comp[i]``) with the first
    engine of the module's order that takes it: (algorithm, answer, witness
    steps in ``sub``'s ids or None, a heights NO's certificate or None, the
    report's size fields).  The oracle's ``StateSpaceTooLarge`` passes up."""
    if algo == "auto":
        decided = heights.decide(sub, want_witness)
        if decided is not None:
            return "heights", decided.answer, decided.steps, decided.certificate, {}
    structure = recognize_caterpillar(sub.graph) if sweep else None
    if structure is not None:
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
        sizes = dict(steps=rec.step, enode_peak=peak, slack_min=lo, slack_max=hi)
        return "caterpillar", state.tar is not None, None, None, sizes
    if algo == "caterpillar":
        raise NotCaterpillar(f"component {comp} of the trimmed graph is not a caterpillar")
    if sub.f0 == sub.fr:
        return "trivial", True, None, None, {}
    steps, visited = oracle.reachable(sub.graph, sub.lists, sub.f0, sub.fr, state_cap)
    return "bruteforce", steps is not None, steps, None, {"oracle_nodes": visited}


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
    asked or not, with algorithm ``"frozen"``.  Otherwise each component
    goes to the first engine of the module's order that takes it.  Either
    NO leaves its ``certificate``.  The sweep gives no witness, so asking
    ``caterpillar`` for one is an error.  ``observer``, if given, sees each
    sweep step that runs as (live ``Sweep``, size record); each swept
    component opens with ``init``, and a sweep's last step is the one that
    lost tar, if any.  The report's algorithm is ``"mixed"`` when the
    components went different ways; trivial ones name it only when no
    other ran.  A component whose oracle would pass ``state_cap`` is
    skipped, and its ``StateSpaceTooLarge`` raised at the end only if no
    component said NO.
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
            removed = [r.vertex for r in trace.removals if isinstance(r, SingletonRemoval)]
            frozen = tuple(sorted([trace.kept[v] for v in frozen] + removed))
            return SolveReport(False, "frozen", None, [], Certificate("frozen", frozen))
    # a witness request sends auto past the sweep without recognizing anything
    sweep = algo == "caterpillar" or (algo == "auto" and not want_witness)
    answer, refusal, certificate = True, None, None
    reports = []
    witness_steps: Optional[list[Step]] = [] if want_witness else None
    for comp in trimmed.graph.connected_components():
        sub = induced_instance(trimmed, comp)  # new id i is comp[i]
        try:
            name, yes, steps, cert, sizes = _first_engine(
                sub, comp, algo, sweep, want_witness, state_cap, observer
            )
        except StateSpaceTooLarge as exc:
            refusal = refusal or exc  # another component may answer NO
            continue
        reports.append(ComponentReport(tuple(comp), name, yes, **sizes))
        if steps is not None and witness_steps is not None:
            witness_steps.extend((comp[v], c) for v, c in steps)
        if cert is not None:
            certificate = cert._replace(vertices=tuple(trace.kept[comp[v]] for v in cert.vertices))
        if not yes:
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

    return SolveReport(answer, chosen, witness, reports, certificate)
