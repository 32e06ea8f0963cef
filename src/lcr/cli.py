"""Command line front end.

Decision output protocol: the first stdout line is YES or NO; witness steps
follow as ``r <vertex> <color>`` lines.  Exit code 0 covers any successful
decision (including FAIL verdicts from ``verify``), 2 flags usage or parse
problems or a failed write (a closed stdout among them), and 3 flags a
state-space cap overflow that leaves the answer open.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import fileio, oracle
from .driver import ALGORITHMS, solve_driver
from .errors import LcrError, ParseError, StateSpaceTooLarge
from .experiments import run_experiments
from .generators import gen_caterpillar, gen_layered_spr
from .graph import check_path_decomposition
from .instance import is_proper_list_coloring, is_valid_sequence, normalize
from .reduction import compile_spr, emit_path_decomposition, to_threshold

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3

# the --trace notice of each kind of NO certificate, given its vertex count
_CAPTIONS = {
    "frozen": "# no sweep: a frozen set of {} vertices, on which fr differs from f0:",
    "pair": "# heights: two-colour vertices whose bands fix different lifts of fr:",
    "cycle": "# heights: a cycle of {} vertices, around which f0 and fr wind differently:",
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise LcrError(f"cannot write {path}: {exc}") from exc


def _state_cap(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer: {text!r}")
    return int(text)


def _parse_instance_or_graph(text: str):
    """Accept either a bare graph file or a full instance file."""
    rows = [r for r in text.splitlines() if r.strip() and not r.lstrip().startswith("#")]
    if rows and rows[0].split()[1:2] == ["lcr"]:
        return fileio.parse_lcr(text).graph
    return fileio.parse_graph(text)


def _cmd_solve(args) -> int:
    inst = fileio.parse_lcr(_read(args.file))
    trace: list[list[str]] = []  # the lines of each swept component

    def trace_step(sweep, rec) -> None:
        if rec.kind == "init":
            trace.append([])
        eg = sweep.snapshot()
        trace[-1].append(f"step {rec.step} vertex {rec.vertex} {rec.kind}")
        trace[-1].extend(
            f"enode {i} col {col} ini {int(eg.ini == i)} tar {int(eg.tar == i)}"
            for i, col in enumerate(eg.cols)
        )
        trace[-1].extend(f"eedge {x} {y}" for x, y in eg.edges)

    report = solve_driver(
        inst, algo=args.algo, want_witness=args.witness, state_cap=args.state_cap,
        observer=trace_step if args.trace else None,
    )
    print("YES" if report.answer else "NO")
    sys.stdout.write(fileio.format_sequence(report.witness or ()))
    swept = (i for i, r in enumerate(report.components) if r.algorithm == "caterpillar")
    for i, lines in zip(swept, trace):
        print(f"component {i}", *lines, sep="\n")
    if args.trace and report.certificate is not None:
        kind, vertices = report.certificate
        print(_CAPTIONS[kind].format(len(vertices)), *vertices)
    elif args.trace and report.algorithm != "caterpillar":
        print("# trace available only for the caterpillar algorithm")
    elif args.trace and not trace:
        print("# no sweep: no component was left to sweep")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    inst = fileio.parse_lcr(_read(args.file))
    trimmed, trace = normalize(inst)
    _write(args.output, fileio.format_lcr(
        trimmed, comment=f"normalized, {len(trace.removals)} removals"
    ))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    if args.emit_witness and not args.threshold:
        raise ParseError("--emit-witness needs --threshold")
    spr = fileio.parse_spr(_read(args.file))
    red = compile_spr(spr)
    inst = red.lcr
    comment = "compiled from rerouting instance"
    if args.threshold:
        inst, witness = to_threshold(red)
        comment += ", threshold variant"
        if args.emit_witness:
            _write(args.emit_witness, fileio.format_threshold_witness(witness))
    _write(args.output, fileio.format_lcr(inst, comment=comment))
    if args.emit_decomposition:
        _write(
            args.emit_decomposition,
            fileio.format_decomposition(emit_path_decomposition(red)),
        )
    if args.emit_colormap:
        _write(args.emit_colormap, fileio.format_colormap(red))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.what != "coloring" and args.extra is None:
        raise ParseError(f"'verify {args.what}' needs a certificate file")
    if args.what == "coloring":
        inst = fileio.parse_lcr(_read(args.file))
        ok0 = is_proper_list_coloring(inst, inst.f0)
        okr = is_proper_list_coloring(inst, inst.fr)
        print("OK" if ok0 and okr else f"FAIL f0={'ok' if ok0 else 'bad'} fr={'ok' if okr else 'bad'}")
    elif args.what == "sequence":
        inst = fileio.parse_lcr(_read(args.file))
        text = _read(args.extra)
        answer, _, rest = text.partition("\n")
        if answer.strip() == "NO":
            raise ParseError("the answer line is NO: a NO answer has no sequence to verify")
        steps = fileio.parse_sequence(rest if answer.strip() == "YES" else text)
        print("OK" if is_valid_sequence(inst, steps) else "FAIL")
    elif args.what == "decomposition":
        g = _parse_instance_or_graph(_read(args.file))
        pd = fileio.parse_decomposition(_read(args.extra))
        result = check_path_decomposition(g, pd)
        if not result.valid and not pd.bags:
            print("FAIL no bags")  # rather than the empty decomposition's width -1
        else:
            print(f"{'OK' if result.valid else 'FAIL'} width {result.width}")
    elif args.what == "threshold":
        g = _parse_instance_or_graph(_read(args.file))
        witness = fileio.parse_threshold_witness(_read(args.extra))
        if len(witness.weights) != g.n:
            raise ParseError("witness weights do not match the vertex count")
        print("OK" if witness.verify(g) else "FAIL")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.what == "caterpillar":
        inst = gen_caterpillar(
            args.spine_len,
            leaf_prob=args.leaf_prob,
            colors=args.colors,
            list_range=(args.list_min, args.list_max),
            seed=args.seed,
            leaves_per_spine=args.leaves_per_spine,
        )
        _write(args.output, fileio.format_lcr(inst, comment=f"seed {args.seed}"))
    else:
        spr = gen_layered_spr(
            args.depth, max_width=args.max_width, density=args.density,
            seed=args.seed,
        )
        _write(args.output, fileio.format_spr(spr, comment=f"seed {args.seed}"))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst = fileio.parse_lcr(_read(args.file))
    rg = oracle.build(inst.graph, inst.lists, args.state_cap)
    comps = rg.components()
    print(f"nodes {rg.num_nodes}")
    print(f"edges {rg.num_edges}")
    print(f"components {len(comps)}")
    try:
        size = len(oracle.component_of(rg, inst.f0))
    except LcrError:
        size = 0
    print(f"f0_component {size}")
    return EXIT_OK


def _cmd_experiments(args) -> int:
    _write(args.output, run_experiments(_read(args.config)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcr", description="List coloring reconfiguration toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("file")
    p.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p.add_argument("--witness", action="store_true",
                   help="print a recoloring witness (from the heights or the oracle)")
    p.add_argument("--trace", action="store_true",
                   help="dump each step's encoding graph, up to a lost tar")
    p.add_argument("--state-cap", type=_state_cap, default=oracle.DEFAULT_STATE_CAP)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("normalize", help="write the trimmed instance")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("reduce", help="compile a rerouting instance")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--threshold", action="store_true",
                   help="emit the threshold-graph variant")
    p.add_argument("--emit-decomposition", metavar="DECFILE", default=None)
    p.add_argument("--emit-colormap", metavar="MAPFILE", default=None)
    p.add_argument("--emit-witness", metavar="WITFILE", default=None,
                   help="with --threshold, write the weights certificate")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="check a certificate against its input")
    p.add_argument("what", choices=["coloring", "sequence", "decomposition",
                                    "threshold"])
    p.add_argument("file", help="instance or graph file")
    p.add_argument("extra", nargs="?", default=None,
                   help="sequence / decomposition / witness file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    gsub = p.add_subparsers(dest="what", required=True)
    pc = gsub.add_parser("caterpillar")
    pc.add_argument("--spine-len", type=int, default=5)
    pc.add_argument("--leaf-prob", type=float, default=0.5)
    pc.add_argument("--leaves-per-spine", type=int, default=None)
    pc.add_argument("--colors", type=int, default=4)
    pc.add_argument("--list-min", type=int, default=2)
    pc.add_argument("--list-max", type=int, default=3)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(func=_cmd_gen)
    pl = gsub.add_parser("layered")
    pl.add_argument("--depth", type=int, default=3)
    pl.add_argument("--max-width", type=int, default=3)
    pl.add_argument("--density", type=float, default=0.6)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("-o", "--output", default=None)
    pl.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="reconfiguration graph statistics")
    osub = p.add_subparsers(dest="what", required=True)
    ps = osub.add_parser("stats")
    ps.add_argument("file")
    ps.add_argument("--state-cap", type=_state_cap, default=oracle.DEFAULT_STATE_CAP)
    ps.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiments", help="run a config file, write CSV")
    p.add_argument("config")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_experiments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError as exc:
        # shutdown flushes stdout once more: let that flush reach devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (LcrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
