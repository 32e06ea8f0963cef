"""Outside-in tracing: timing shims swapped onto the program's module attributes.

The traced run replaces the public functions the driver reaches through
module attributes with shims that record a span around each call, then puts
every original back.  Nothing inside ``src/`` knows about it, and the
untraced run installs nothing, so tracing off costs nothing.

Spans nest: a span's self time is its duration minus the time of the spans
opened inside it.  Totals are kept per (rung, name), so per-layer growth
exponents can be fitted over the size ladder.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import lcr.caterpillar_dp
import lcr.driver
import lcr.oracle
from lcr.errors import StateSpaceTooLarge
from lcr.graph import Graph

perf_counter = time.perf_counter


class Recorder:
    """Span totals, self times and counters, keyed by (rung, name)."""

    def __init__(self):
        self.rung = 0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = {}
        self.minima = {}
        self._children: list[float] = []

    def begin(self) -> float:
        self._children.append(0.0)
        return perf_counter()

    def end(self, name, t0: float) -> None:
        """Close the innermost span; name None folds it into its parent."""
        dur = perf_counter() - t0
        children = self._children.pop()
        if name is None:
            return
        key = (self.rung, name)
        self.total[key] += dur
        self.self_time[key] += dur - children
        self.calls[key] += 1
        if self._children:
            self._children[-1] += dur

    @contextmanager
    def span(self, name):
        t0 = self.begin()
        try:
            yield
        finally:
            self.end(name, t0)

    def count(self, name, value=1) -> None:
        self.counts[(self.rung, name)] += value

    def peak(self, name, value) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def minimum(self, name, value) -> None:
        self.minima[name] = min(self.minima.get(name, value), value)


class NullRecorder:
    """What the untraced run passes: spans and counters that do nothing."""

    rung = 0
    _span = nullcontext()

    def span(self, name):
        return self._span

    def count(self, name, value=1) -> None:
        pass


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        t0 = rec.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(name, t0)
        if after is not None:
            after(rec, result, args)
        return result

    return shim


def _after_normalize(rec, result, args):
    rec.count("instance.removals", len(result[1].removals))


def _after_lift(rec, result, args):
    rec.count("instance.lift_added_steps", len(result) - len(args[2]))


def _after_components(rec, result, args):
    rec.count("graph.components", len(result))


def _oracle_build_shim(rec: Recorder, fn):
    @functools.wraps(fn)
    def build(g, lists, *args, **kwargs):
        t0 = rec.begin()
        try:
            rg = fn(g, lists, *args, **kwargs)
        except StateSpaceTooLarge:
            rec.count("oracle.refusals")
            raise
        finally:
            rec.end("oracle.build", t0)
        rec.count("oracle.states", rg.num_nodes)
        rec.count("oracle.edges", rg.num_edges)
        rec.count("oracle.state_space", lcr.oracle.state_space_size(rg.lists))
        return rg

    return build


def _history_shim(rec: Recorder, fn):
    """Time each ``next()`` of the sweep and file it under the step's kind."""

    @functools.wraps(fn)
    def encoding_history(*args, **kwargs):
        steps = fn(*args, **kwargs)
        while True:
            t0 = rec.begin()
            try:
                eg, size = next(steps)
            except StopIteration:
                rec.end(None, t0)
                return
            except BaseException:
                rec.end(None, t0)
                raise
            rec.end("caterpillar_dp." + size.kind, t0)
            rec.count("caterpillar_dp.enodes_built", size.pre_extraction)
            rec.count("caterpillar_dp.enodes_kept", size.final_size)
            rec.peak("caterpillar_dp.enode_peak", size.pre_extraction)
            if size.kind != "init":  # the start K2 meets its bound of 2 exactly
                slack = size.prev_size + size.degree - size.pre_extraction
                rec.minimum("caterpillar_dp.bound_slack_min", slack)
            yield eg, size

    return encoding_history


def shim_table(rec: Recorder):
    """(owner, attribute, shim) for every function the traced run wraps."""
    drv, dp, orc = lcr.driver, lcr.caterpillar_dp, lcr.oracle
    return [
        (drv, "normalize", _timed(rec, "instance.normalize", drv.normalize, _after_normalize)),
        (drv, "lift_sequence", _timed(rec, "instance.lift", drv.lift_sequence, _after_lift)),
        (drv, "induced_instance", _timed(rec, "instance.induced", drv.induced_instance)),
        (drv, "is_proper_list_coloring",
         _timed(rec, "instance.endpoint_check", drv.is_proper_list_coloring)),
        (drv, "recognize_caterpillar", _timed(rec, "graph.recognize", drv.recognize_caterpillar)),
        (dp, "recognize_caterpillar", _timed(rec, "graph.recognize", dp.recognize_caterpillar)),
        (dp, "encoding_history", _history_shim(rec, dp.encoding_history)),
        (Graph, "connected_components",
         _timed(rec, "graph.components", Graph.connected_components, _after_components)),
        (orc, "build", _oracle_build_shim(rec, orc.build)),
        (orc, "reachable", _timed(rec, "oracle.bfs", orc.reachable)),
    ]


@contextmanager
def installed(rec: Recorder):
    """Swap the shims in for the duration of the block, then restore."""
    table = shim_table(rec)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, shim in table:
            setattr(owner, attr, shim)
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
