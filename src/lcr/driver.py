"""End-to-end solve pipeline shared by the CLI and the experiments runner.

Order of business: check the endpoints, shortcut f0 = fr, normalize; under
``auto``, answer NO from a frozen set that fr recolours, before any engine
runs; then split the trimmed graph into components and answer each in turn
with the first engine that takes it:

1. the heights (``lcr.heights``), under ``auto`` only: a component whose
   lists lie within three colours, in linear time, unless neither end lifts;
2. under ``auto`` with no witness, ``lcr.instance.peel`` on a tree, whose pieces join the rest;
3. the caterpillar sweep, on a run that sweeps (``caterpillar``, or ``auto``
   with no witness asked) and a component that is a caterpillar, recognized
   once; under ``caterpillar`` any other component is a ``NotCaterpillar``;
4. ``trivial``, a YES with no steps and no search, where the ends agree;
5. the oracle's two-sided search, which builds no reconfiguration graph.

Witnesses come from the heights or the oracle and are lifted back through
the normalization trace.

The run stops once its answer is known: a sweep at the step that loses the
tar mark, which no later step brings back (a spine step passes it on only
from the old tar), and the run at the first NO component, after which no
component is induced or solved.  ``ComponentReport.records`` holds the size
records of the steps that ran.
"""

from __future__ import annotations

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
    peel,
)

ALGORITHMS = ("auto", "caterpillar", "bruteforce")


@dataclass
class ComponentReport:
    vertices: tuple[int, ...]  # input ids; a sweep record's vertex is a position here
    algorithm: str  # "heights" | "caterpillar" | "bruteforce" | "trivial" (f0 = fr there)
    answer: bool
    oracle_nodes: Optional[int] = None  # colourings the oracle's search visited
    # a sweep's size record of each step that ran, fewer than len(vertices)
    # where it lost tar (None for the other engines)
    records: Optional[tuple[SizeRecord, ...]] = None


@dataclass
class SolveReport:
    """``components`` has one report per component or peeled piece that ran,
    in order (a NO is the last; a peeled vertex is in none): the engines
    that ran are ``[c.algorithm for c in components]``.  A frozen NO, f0 = fr
    and a run that normalization or the peel empties run none.  ``certificate``
    holds a NO's evidence, in input ids: a ``"frozen"`` set with the
    one-colour vertices normalization removed, so that f0 freezes it in the
    input itself, or the heights' ``"pair"`` or ``"cycle"``."""

    answer: bool
    witness: Optional[list[Step]]
    components: list[ComponentReport]
    certificate: Optional[Certificate] = None


def _first_engine(
    sub: LcrInstance, comp: list[int], algo: str, sweep: bool, want_witness: bool,
    state_cap: int, observer: Optional[Callable[[Sweep, SizeRecord], None]],
) -> tuple[str, bool, Optional[list[Step]], Optional[Certificate], dict] | list[list[int]]:
    """Answer the component ``sub`` (new id i is ``comp[i]``) with the first
    engine of the module's order that takes it: (algorithm, answer, witness
    steps in ``sub``'s ids or None, a heights NO's certificate or None, the
    report's size fields), or the pieces in ``comp``'s ids of a tree the
    peel shrinks.  The oracle's ``StateSpaceTooLarge`` passes up."""
    if algo == "auto":
        decided = heights.decide(sub, want_witness)
        if decided is not None:
            return "heights", decided.answer, decided.steps, decided.certificate, {}
        if sweep and sub.graph.m == sub.graph.n - 1:
            pieces = peel(sub)
            if sum(map(len, pieces)) < sub.graph.n:
                return [[comp[v] for v in piece] for piece in pieces]
    structure = recognize_caterpillar(sub.graph) if sweep else None
    if structure is not None:
        records = []
        for state, rec in caterpillar_dp.encoding_history(sub, structure):
            records.append(rec)
            if observer is not None:
                observer(state, rec)
            if state.tar is None:
                break  # NO: no later step brings tar back
        return "caterpillar", state.tar is not None, None, None, {"records": tuple(records)}
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
    asked or not.  Otherwise each component goes to the first engine of the
    module's order that takes it.  Either NO leaves its ``certificate``.
    The sweep gives no witness, so asking ``caterpillar`` for one is an
    error.  ``observer``, if given, sees each sweep step that runs as (live
    ``Sweep``, size record); each swept component opens with ``init``, and
    a sweep's last step is the one that lost tar, if any.  A component
    whose oracle would pass ``state_cap`` is skipped, and its
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
        return SolveReport(True, [] if want_witness else None, [])

    trimmed, trace = normalize(inst)
    if algo == "auto":
        frozen = frozen_no(trimmed)
        if frozen is not None:
            # a one-colour vertex's colour left its neighbours' lists, so the
            # removed ones hold the input's other colours of the set's lists
            removed = [r.vertex for r in trace.removals if isinstance(r, SingletonRemoval)]
            frozen = tuple(sorted([trace.kept[v] for v in frozen] + removed))
            return SolveReport(False, None, [], Certificate("frozen", frozen))
    # a witness request sends auto past the sweep without recognizing anything
    sweep = algo == "caterpillar" or (algo == "auto" and not want_witness)
    answer, refusal, certificate = True, None, None
    reports = []
    witness_steps: Optional[list[Step]] = [] if want_witness else None
    work = trimmed.graph.connected_components()
    for comp in work:  # the list grows by the peel's pieces as it is read
        sub = induced_instance(trimmed, comp)  # new id i is comp[i]
        try:
            found = _first_engine(sub, comp, algo, sweep, want_witness, state_cap, observer)
        except StateSpaceTooLarge as exc:
            refusal = refusal or exc  # another component may answer NO
            continue
        if isinstance(found, list):
            work.extend(found)
            continue
        name, yes, steps, cert, sizes = found
        vertices = tuple(trace.kept[v] for v in comp)
        reports.append(ComponentReport(vertices, name, yes, **sizes))
        if steps is not None and witness_steps is not None:
            witness_steps.extend((comp[v], c) for v, c in steps)
        if cert is not None:
            certificate = cert._replace(vertices=tuple(vertices[v] for v in cert.vertices))
        if not yes:
            answer = False
            break
    if refusal is not None and answer:
        raise refusal

    witness: Optional[list[Step]] = None
    if want_witness and answer:
        witness = lift_sequence(trace, inst, witness_steps)

    return SolveReport(answer, witness, reports, certificate)
