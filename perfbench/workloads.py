"""Seeded inputs for the four benchmark workloads, with planted answers.

Every instance is built here together with a reference answer that does not
come from the solver:

* a planted YES: ``fr`` is the end of a seeded random walk of valid
  recolourings that starts at ``f0``;
* a planted NO: an edge whose two ends share one two-colour list is a frozen
  pair (neither end can ever move), so swapping its two colours in ``fr``
  makes ``fr`` unreachable;
* ``rich_witness``: once the forcing chain is gone every list has at least
  degree + 2 colours, so the answer is YES;
* ``spr_oracle``: the reference is ``lcr.rerouting.brute_solve`` on the
  rerouting instance, computed by the checker.

Only ``lcr.generators`` is used from the program (for the two caterpillar
families, as their baselines were measured on it); the instance text is
written by this module, so the program receives nothing but text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from lcr.generators import gen_caterpillar

# Ladders of size rungs: one instance per entry for the caterpillar and path
# families, SPR_PER_RUNG per depth for spr_oracle.  Growth exponents are fitted
# against each rung's mean vertex count.
LEAFY_SPINES = (781, 1563, 3125, 6250, 12500)  # n = 2 * spine: 1.6k .. 25k
PATH3_LENGTHS = (125, 177, 250, 354, 500)  # n = 1000 takes ~5 s: too few passes
RICH_LENGTHS = (500, 707, 1000, 1414, 2000)  # lift memory is O(n^2): 337 MiB at 2k
RICH_CHAIN = 8  # one-colour head plus this many two-colour links
SPR_DEPTHS = (4, 5, 6)
SPR_PER_RUNG = 300
# (width, missing pairs per layer pair, bottleneck) for the three kinds in turn:
# open (mostly YES), a frozen bottleneck (YES or NO), and so wide that the
# product of list sizes passes the oracle's 2M cap (a documented refusal)
SPR_KINDS = ((3, 3, False), (2, 1, True), (7, 7, False))


@dataclass
class LcrCase:
    """A list colouring reconfiguration instance with its planted answer."""

    n: int
    edges: list[tuple[int, int]]
    lists: list[tuple[int, ...]]
    f0: list[int]
    fr: list[int]
    expect: bool
    adj: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)

    def text(self) -> str:
        k = 1 + max(max(lst) for lst in self.lists)
        out = [f"p lcr {self.n} {len(self.edges)} {k}"]
        out.extend(f"e {u} {v}" for u, v in self.edges)
        out.extend(
            "l " + " ".join(map(str, (v, *sorted(lst))))
            for v, lst in enumerate(self.lists)
        )
        out.extend(f"s {v} {c}" for v, c in enumerate(self.f0))
        out.extend(f"t {v} {c}" for v, c in enumerate(self.fr))
        return "\n".join(out) + "\n"


@dataclass
class SprCase:
    """A layered shortest-path rerouting instance; the answer is computed later."""

    n: int
    edges: list[tuple[int, int]]
    s: int
    t: int
    p0: tuple[int, ...]
    pr: tuple[int, ...]
    expect: Optional[bool] = None

    def text(self) -> str:
        out = [f"p spr {self.n} {len(self.edges)}"]
        out.extend(f"e {u} {v}" for u, v in self.edges)
        out.append(f"src {self.s}")
        out.append(f"dst {self.t}")
        out.append("p0 " + " ".join(map(str, self.p0)))
        out.append("pr " + " ".join(map(str, self.pr)))
        return "\n".join(out) + "\n"


@dataclass
class Batch:
    """One pass of a workload: instances, their rung keys and input texts."""

    workload: str
    cases: list
    rungs: list[int]
    texts: list[str]


def _from_generated(inst, expect: bool) -> LcrCase:
    g = inst.graph
    return LcrCase(
        g.n,
        sorted(g.edges),
        [tuple(sorted(lst)) for lst in inst.lists],
        list(inst.f0),
        list(inst.fr),
        expect,
    )


def _free_colors(case: LcrCase, f: list[int], v: int) -> list[int]:
    return [
        c for c in case.lists[v]
        if c != f[v] and all(f[u] != c for u in case.adj[v])
    ]


def random_walk(case: LcrCase, rng: random.Random, steps: int) -> list[int]:
    """End of a walk of valid single-vertex recolourings from ``f0``."""
    cur = list(case.f0)
    moved = 0
    while moved < steps or cur == case.f0:
        v = rng.randrange(case.n)
        free = _free_colors(case, cur, v)
        if free:
            cur[v] = rng.choice(free)
        moved += 1
        if moved > 50 * steps + 1000:
            raise RuntimeError("random walk could not leave f0")
    return cur


def plant_yes(case: LcrCase, rng: random.Random) -> LcrCase:
    case.fr = random_walk(case, rng, case.n)
    case.expect = True
    return case


def _repair(case: LcrCase, fr: list[int], v: int, banned: int) -> bool:
    """Recolour every neighbour of v that uses ``banned`` in fr; False if stuck."""
    for w in case.adj[v]:
        if fr[w] != banned:
            continue
        options = [
            c for c in case.lists[w]
            if c != banned and all(fr[x] != c for x in case.adj[w] if x != v)
        ]
        if not options:
            return False
        fr[w] = options[0]
    return True


def plant_no(case: LcrCase, rng: random.Random, candidates) -> LcrCase:
    """Freeze the first workable edge of ``candidates`` and swap it in fr.

    The pair (u, v) gets the list {f0(u), f0(v)} on both ends, so f0 stays
    proper and neither end can ever move.  fr is a random walk's end with
    the pair swapped and any neighbour that would now clash recoloured.
    """
    walked = random_walk(case, rng, case.n)
    for u, v in candidates:
        a, b = case.f0[u], case.f0[v]
        saved = case.lists[u], case.lists[v]
        case.lists[u] = case.lists[v] = tuple(sorted((a, b)))
        fr = list(walked)
        fr[u], fr[v] = b, a
        if _repair(case, fr, u, b) and _repair(case, fr, v, a):
            case.fr = fr
            case.expect = False
            return case
        case.lists[u], case.lists[v] = saved
    raise RuntimeError("no edge could hold a frozen pair")


def _planted(case: LcrCase, yes: bool, rng: random.Random, candidates) -> LcrCase:
    return plant_yes(case, rng) if yes else plant_no(case, rng, candidates)


def build_leafy(seed: int, spines=LEAFY_SPINES) -> Batch:
    """Criterion-9 caterpillars, one per rung, answers alternating YES/NO."""
    rng = random.Random(seed)
    cases = []
    for i, spine in enumerate(spines):
        inst = gen_caterpillar(
            spine, colors=6, list_range=(2, 3), leaves_per_spine=1,
            seed=rng.getrandbits(63),
        )
        case = _from_generated(inst, True)
        # spine vertex x has its one leaf at id spine + x
        spots = rng.sample(range(1, spine - 1), min(20, max(spine - 2, 0)))
        candidates = [(x, spine + x) for x in spots]
        cases.append(_planted(case, i % 2 == 0, rng, candidates))
    return _batch("leafy", cases, [c.n for c in cases])


def build_path3(seed: int, lengths=PATH3_LENGTHS) -> Batch:
    """3-colour paths, one per rung, answers alternating YES/NO.

    The sweep starts at vertex 0, so a NO's frozen pair sits on the last
    edge: the encoding still grows over the whole path.
    """
    rng = random.Random(seed)
    cases = []
    for i, n in enumerate(lengths):
        inst = gen_caterpillar(
            n, leaf_prob=0, colors=3, list_range=(3, 3), seed=rng.getrandbits(63)
        )
        case = _from_generated(inst, True)
        cases.append(_planted(case, i % 2 == 0, rng, [(n - 2, n - 1)]))
    return _batch("path3", cases, [c.n for c in cases])


def rich_case(n: int, rng: random.Random, chain: int = RICH_CHAIN) -> LcrCase:
    """Path whose head is a forcing chain and whose tail has 4-colour lists.

    Vertex 0 has a one-colour list and vertices 1..chain two-colour lists
    {x(i-1), x(i)}, so normalization peels the chain as singletons; every
    later vertex then has at least degree + 2 colours and goes as rich.
    """
    colors = 6
    forced = [rng.randrange(colors)]
    for _ in range(chain):
        forced.append(rng.choice([c for c in range(colors) if c != forced[-1]]))
    lists = [(forced[0],)]
    lists += [tuple(sorted((forced[i - 1], forced[i]))) for i in range(1, chain + 1)]
    lists += [
        tuple(sorted(rng.sample(range(colors), 4))) for _ in range(chain + 1, n)
    ]

    def coloring() -> list[int]:
        f = list(forced)
        for v in range(chain + 1, n):
            f.append(rng.choice([c for c in lists[v] if c != f[-1]]))
        return f

    f0 = coloring()
    fr = coloring()
    while fr == f0:
        fr = coloring()
    return LcrCase(n, [(v, v + 1) for v in range(n - 1)], lists, f0, fr, True)


def build_rich_witness(seed: int, lengths=RICH_LENGTHS) -> Batch:
    rng = random.Random(seed)
    cases = [rich_case(n, rng) for n in lengths]
    return _batch("rich_witness", cases, [c.n for c in cases])


def layered_spr(
    depth: int, width: int, missing: int, rng: random.Random, bottleneck: bool = False
) -> SprCase:
    """Layered rerouting instance with a fixed shape.

    s = 0, interior layers 1..depth-1 hold ``width`` vertices each, t is
    last.  s and t see their whole neighbouring layer; between consecutive
    interior layers all pairs are edges except a seeded partial matching of
    ``missing`` pairs, so every vertex keeps a neighbour on each side and
    nothing is pruned.  With ``bottleneck`` the middle layer pair keeps only
    a perfect matching: the two picks there can never change, so the answer
    is NO whenever p0 and pr differ at that spot.

    A fixed shape keeps the oracle's state space, and so the cost, steady
    across seeds; ``gen_layered_spr`` draws random layer widths, which gives
    a per-instance cost with a coefficient of variation above 3.
    """
    layers = [[0]]
    nxt = 1
    for _ in range(depth - 1):
        layers.append(list(range(nxt, nxt + width)))
        nxt += width
    layers.append([nxt])
    edges = set()
    for i in range(depth):
        a, b = layers[i], layers[i + 1]
        if bottleneck and i == depth // 2:
            pairs = list(zip(a, rng.sample(b, width)))
        elif 1 <= i < depth - 1:
            drop = set(zip(rng.sample(a, missing), rng.sample(b, missing)))
            pairs = [(u, v) for u in a for v in b if (u, v) not in drop]
        else:
            pairs = [(u, v) for u in a for v in b]
        edges.update(pairs)
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)

    def walk() -> tuple[int, ...]:
        path = [0]
        for _ in range(depth):
            path.append(rng.choice(sorted(adj[path[-1]])))
        return tuple(path)

    return SprCase(nxt + 1, sorted(edges), 0, nxt, walk(), walk())


def build_spr_oracle(
    seed: int, depths=SPR_DEPTHS, per_rung: int = SPR_PER_RUNG
) -> Batch:
    """Fixed-shape layered rerouting instances, three kinds in turn: open
    (mostly YES), with a bottleneck (YES or NO), and too wide for the
    oracle's state cap (a documented refusal)."""
    rng = random.Random(seed)
    cases, rungs = [], []
    for depth in depths:
        for i in range(per_rung):
            width, missing, bottleneck = SPR_KINDS[i % len(SPR_KINDS)]
            cases.append(layered_spr(depth, width, missing, rng, bottleneck))
            rungs.append(depth)
    return _batch("spr_oracle", cases, rungs)


def _batch(name: str, cases, rungs) -> Batch:
    return Batch(name, cases, rungs, [c.text() for c in cases])


BUILDERS = {
    "leafy": build_leafy,
    "path3": build_path3,
    "rich_witness": build_rich_witness,
    "spr_oracle": build_spr_oracle,
}
