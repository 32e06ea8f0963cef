"""Config-driven agreement experiments with CSV output.

The config is line oriented ``key=value`` (``#`` comments).  Each generated
instance is solved once per requested algorithm and contributes one CSV row
per run; the ``agree`` column says whether all decided answers for that
instance matched.  A run whose oracle would pass ``state_cap`` is written
with ``answer=REFUSED`` and left out of ``agree``; the other runs go on.
Reruns with the same config are identical except for the wall-time column.

Caterpillar configs compare the incremental sweep against the exhaustive
oracle; layered configs compare direct rerouting search (``spr``) against
``solve_driver``'s oracle on the compiled instance (``reduction``).  Driver
runs read their size columns off the ``SolveReport``, so ``oracle_nodes``
sums the trimmed components in both kinds.  Values below the generators'
limits are refused up front, as is ``depth_min`` 1 when ``reduction`` runs.
"""

from __future__ import annotations

import csv
import io
import time

from . import oracle, rerouting
from .driver import ALGORITHMS, solve_driver
from .errors import ParseError, StateSpaceTooLarge
from .generators import gen_caterpillar, gen_layered_spr
from .reduction import compile_spr

_DEFAULTS = {
    "kind": "caterpillar",
    "count": 0,
    "seed": 0,
    "algos": "",
    "spine_min": 2,
    "spine_max": 6,
    "leaf_prob": 0.6,
    "colors": 4,
    "list_min": 2,
    "list_max": 3,
    "depth_min": 2,
    "depth_max": 4,
    "max_width": 3,
    "density_min": 0.5,
    "density_max": 0.9,
    "state_cap": oracle.DEFAULT_STATE_CAP,
}

CSV_FIELDS = [
    "instance", "kind", "seed", "n", "m", "algo", "answer",
    "oracle_nodes", "enode_peak", "slack_min", "slack_max", "agree", "wall_s",
]


def parse_config(text: str) -> dict:
    """Every setting converted to its default's type and checked, so a bad
    config fails before any instance is generated; ``algos`` becomes a list."""
    config = dict(_DEFAULTS)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value: {line}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ParseError(f"unknown config key: {key}")
        try:
            config[key] = type(_DEFAULTS[key])(value)
        except ValueError:
            raise ParseError(f"bad value for {key}: {value}") from None
    kind = config["kind"]
    if kind not in _KINDS:
        raise ParseError(f"unknown kind: {kind}")
    for key in ("count", "state_cap"):
        if config[key] < 0:
            raise ParseError(f"{key.replace('_', ' ')} must be non-negative, not {config[key]}")
    for key in ("leaf_prob", "density_min", "density_max"):
        if not 0 <= config[key] <= 1:  # NaN fails too
            raise ParseError(f"{key} must be within [0, 1], not {config[key]}")
    for knob in ("spine", "list", "depth", "density"):
        lo, hi = config[f"{knob}_min"], config[f"{knob}_max"]
        if lo > hi:
            raise ParseError(f"{knob}_min {lo} exceeds {knob}_max {hi}")
    _, known, default = _KINDS[kind]
    config["algos"] = [a for a in config["algos"].split(",") if a] or list(default)
    for algo in config["algos"]:
        if algo not in known:
            raise ParseError(f"unknown {kind} algorithm: {algo}")
    # the generators' own limits; compiling needs an s-t distance of 2 or more
    depth_least = 2 if "reduction" in config["algos"] else 1
    for key, least in (("spine_min", 1), ("colors", 2), ("list_min", 2),
                       ("max_width", 1), ("depth_min", depth_least)):
        if config[key] < least:
            raise ParseError(f"{key} must be at least {least}, not {config[key]}")
    return config


REFUSED = "REFUSED"


def _run(instance, algo: str, cap: int) -> dict:
    """The graph size, answer and size columns of one run of ``algo``; a run
    whose oracle would pass ``cap`` answers REFUSED with blank sizes."""
    if algo == "reduction":
        instance, algo = compile_spr(instance).lcr, "bruteforce"
    row = {"n": instance.graph.n, "m": instance.graph.m, "answer": REFUSED}
    try:
        if algo == "spr":
            found = rerouting.brute_solve(instance) is not None
            return {**row, "answer": "YES" if found else "NO"}
        report = solve_driver(instance, algo=algo, state_cap=cap)
    except StateSpaceTooLarge:
        return row
    records = [rec for c in report.components for rec in c.records or ()]
    slacks = [rec.bound - rec.pre_extraction for rec in records]
    return {
        **row, "answer": "YES" if report.answer else "NO",
        "oracle_nodes": sum(c.oracle_nodes or 0 for c in report.components) or "",
        "enode_peak": max((rec.pre_extraction for rec in records), default=""),
        "slack_min": min(slacks, default=""),
        "slack_max": max(slacks, default=""),
    }


def _caterpillar(config, seed, rng_params):
    spine = rng_params.randint(config["spine_min"], config["spine_max"])
    return gen_caterpillar(
        spine,
        leaf_prob=config["leaf_prob"],
        colors=config["colors"],
        list_range=(config["list_min"], config["list_max"]),
        seed=seed,
    )


def _layered(config, seed, rng_params):
    depth = rng_params.randint(config["depth_min"], config["depth_max"])
    density = rng_params.uniform(config["density_min"], config["density_max"])
    return gen_layered_spr(depth, max_width=config["max_width"], density=density, seed=seed)


# each kind's generator, its known algorithms, and those run when a config names none
_KINDS = {
    "caterpillar": (_caterpillar, ALGORITHMS, ("caterpillar", "bruteforce")),
    "layered": (_layered, ("spr", "reduction"), ("spr", "reduction")),
}


def run_experiments(config_text: str) -> str:
    """Run the configured experiment and return the CSV text."""
    import random

    config = parse_config(config_text)
    kind = config["kind"]
    generate = _KINDS[kind][0]
    base_seed = config["seed"]
    rng_params = random.Random(base_seed)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for i in range(config["count"]):
        seed = base_seed + 1 + i
        instance = generate(config, seed, rng_params)
        rows = []
        for algo in config["algos"]:
            start = time.perf_counter()
            row = _run(instance, algo, config["state_cap"])
            wall = time.perf_counter() - start
            # columns a run leaves out stay empty: DictWriter fills them with ""
            rows.append({**row, "instance": i, "kind": kind, "seed": seed,
                         "algo": algo, "wall_s": f"{wall:.6f}"})
        decided = {r["answer"] for r in rows} - {REFUSED}
        agree = "yes" if len(decided) <= 1 else "no"
        for r in rows:
            writer.writerow({**r, "agree": agree})
    return buf.getvalue()
