"""End-to-end solve pipeline shared by the CLI and the experiments runner.

Order of business: check the endpoints, shortcut f0 = fr, normalize, split
the trimmed graph into components, then run the caterpillar sweep or the
exhaustive oracle per component.  Witnesses only come from the oracle and
are lifted back through the normalization trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import caterpillar_dp, oracle
from .caterpillar_dp import SizeRecord
from .errors import ImproperEndpoints, NotCaterpillar
from .graph import CaterpillarStructure, recognize_caterpillar
from .instance import (
    LcrInstance,
    NormalizationTrace,
    Step,
    induced_instance,
    is_proper_list_coloring,
    lift_sequence,
    normalize,
)

ALGORITHMS = ("auto", "caterpillar", "bruteforce")


@dataclass
class ComponentReport:
    vertices: tuple[int, ...]  # ids in the normalized instance
    algorithm: str
    answer: bool
    oracle_nodes: Optional[int] = None
    oracle_edges: Optional[int] = None
    size_history: list[SizeRecord] = field(default_factory=list)
    instance: Optional[LcrInstance] = None  # the sub-instance that was swept
    structure: Optional[CaterpillarStructure] = None

    @property
    def enode_peak(self) -> Optional[int]:
        if not self.size_history:
            return None
        return max(rec.pre_extraction for rec in self.size_history)


@dataclass
class SolveReport:
    answer: bool
    algorithm: str  # "trivial" | "caterpillar" | "bruteforce"
    witness: Optional[list[Step]]
    components: list[ComponentReport]
    seconds: float

    @property
    def size_history(self) -> list[SizeRecord]:
        return [rec for comp in self.components for rec in comp.size_history]


def solve_driver(
    inst: LcrInstance,
    algo: str = "auto",
    want_witness: bool = False,
    state_cap: int = oracle.DEFAULT_STATE_CAP,
) -> SolveReport:
    """Decide the instance; optionally return a recoloring witness.

    ``auto`` runs the caterpillar sweep when every component of the trimmed
    graph is a caterpillar and the oracle otherwise.  Witness extraction is
    oracle-only, so ``want_witness`` overrides the sweep unless the caller
    insisted on it, in which case a witness request is an error.  Each
    component is recognized at most once; the sweep reuses that structure.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if want_witness and algo == "caterpillar":
        raise ValueError("the caterpillar sweep is decision-only; no witnesses")
    started = time.perf_counter()

    if not is_proper_list_coloring(inst, inst.f0):
        raise ImproperEndpoints("f0 is not a proper list coloring")
    if not is_proper_list_coloring(inst, inst.fr):
        raise ImproperEndpoints("fr is not a proper list coloring")

    if inst.f0 == inst.fr:
        return SolveReport(
            True, "trivial", [] if want_witness else None, [],
            time.perf_counter() - started,
        )

    trimmed, trace = normalize(inst)
    comps = trimmed.graph.connected_components()
    sub_insts = [induced_instance(trimmed, comp) for comp in comps]

    # components are connected, so recognition answers None or a structure
    sweep = algo == "caterpillar" or (algo == "auto" and not want_witness)
    structures: list[CaterpillarStructure] = []
    if sweep:
        for comp, (sub, _) in zip(comps, sub_insts):
            structure = recognize_caterpillar(sub.graph)
            if structure is None:
                if algo == "caterpillar":
                    raise NotCaterpillar(
                        f"component {comp} of the trimmed graph is not a caterpillar"
                    )
                sweep = False
                break
            structures.append(structure)
    chosen = "caterpillar" if sweep else "bruteforce"

    answer = True
    reports = []
    witness_steps: Optional[list[Step]] = [] if want_witness else None
    for i, (comp, (sub, id_map)) in enumerate(zip(comps, sub_insts)):
        if chosen == "caterpillar":
            history = []
            eg = None
            for eg, rec in caterpillar_dp.encoding_history(sub, structures[i]):
                history.append(rec)
            comp_answer = eg.tar is not None
            reports.append(
                ComponentReport(
                    tuple(comp), "caterpillar", comp_answer, size_history=history,
                    instance=sub, structure=structures[i],
                )
            )
        else:
            rg = oracle.build(sub.graph, sub.lists, state_cap)
            steps = oracle.reachable(rg, sub.f0, sub.fr)
            comp_answer = steps is not None
            reports.append(
                ComponentReport(
                    tuple(comp), "bruteforce", comp_answer,
                    oracle_nodes=rg.num_nodes, oracle_edges=rg.num_edges,
                    instance=sub,
                )
            )
            if comp_answer and witness_steps is not None:
                back = {new: old for old, new in id_map.items()}
                witness_steps.extend((back[v], c) for v, c in steps)
        answer = answer and comp_answer

    witness: Optional[list[Step]] = None
    if want_witness and answer:
        witness = lift_sequence(trace, inst, witness_steps)

    return SolveReport(
        answer, chosen, witness, reports, time.perf_counter() - started
    )
