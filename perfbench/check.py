"""The benchmark's own checkers, kept apart from the solver's code.

None of these call ``lcr.is_valid_sequence`` or the solver: a recolouring
witness is replayed against the instance as this benchmark built it, and a
rerouting is checked against the generated graph with a distance of its own.
The one program function used as a reference is ``lcr.rerouting.brute_solve``
(exhaustive search over shortest paths) for the rerouting answers.
"""

from __future__ import annotations

from collections import deque

from lcr.graph import Graph
from lcr.rerouting import brute_solve, build_spr_instance

from workloads import LcrCase, SprCase


def parse_steps(text: str) -> list[tuple[int, int]]:
    """Steps of a witness in the 'r <vertex> <color>' format."""
    steps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] != "r" or len(line) != 3:
            raise ValueError(f"not a recolouring step: {raw!r}")
        steps.append((int(line[1]), int(line[2])))
    return steps


def valid_recoloring(case: LcrCase, steps) -> bool:
    """True if steps lead from f0 to fr through proper list colourings."""
    cur = list(case.f0)
    for v, c in steps:
        if not 0 <= v < case.n or c == cur[v] or c not in case.lists[v]:
            return False
        if any(cur[u] == c for u in case.adj[v]):
            return False
        cur[v] = c
    return cur == case.fr


def _distances(case: SprCase, start: int) -> dict[int, int]:
    adj: dict[int, list[int]] = {}
    for u, v in case.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def valid_rerouting(case: SprCase, paths) -> bool:
    """True if paths run p0..pr, each a shortest s-t path, and consecutive
    paths differ in exactly one vertex."""
    d = _distances(case, case.s).get(case.t)
    edges = set(case.edges) | {(v, u) for u, v in case.edges}
    if d is None or not paths:
        return False
    if tuple(paths[0]) != case.p0 or tuple(paths[-1]) != case.pr:
        return False
    for p in paths:
        if len(p) != d + 1 or p[0] != case.s or p[-1] != case.t:
            return False
        if any((a, b) not in edges for a, b in zip(p, p[1:])):
            return False
    for p, q in zip(paths, paths[1:]):
        if sum(a != b for a, b in zip(p, q)) != 1:
            return False
    return True


def spr_reference(case: SprCase) -> bool:
    """Reachability by exhaustive rerouting search, independent of the reduction."""
    spr = build_spr_instance(Graph(case.n, case.edges), case.s, case.t, case.p0, case.pr)
    return brute_solve(spr) is not None


def check_output(case, out: dict) -> tuple[bool, int]:
    """(output is correct, witness steps it carries) for one instance.

    A documented refusal (``StateSpaceTooLarge``) is correct output: it is
    counted as a refusal, not as an error.
    """
    if "error" in out:
        return False, 0
    if isinstance(case, SprCase):
        if out.get("refused"):
            return True, 0
        if case.expect is None:
            case.expect = spr_reference(case)
        if out["answer"] != case.expect:
            return False, 0
        if out["answer"] and not valid_rerouting(case, out["reroute"]):
            return False, 0
        return True, out["steps"]
    if out["answer"] != case.expect:
        return False, 0
    if "witness" not in out:
        return True, 0
    if out["witness"] is None:
        return not case.expect, 0
    try:
        steps = parse_steps(out["witness"])
    except ValueError:
        return False, 0
    return valid_recoloring(case, steps), len(steps)
