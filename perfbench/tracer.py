"""Outside-in tracing of the gesselgamma layers, and the benchmark's statistics.

The package imports functions by name (``from .stirling import statistics``
in ``harness``, ``counts``, ``action`` and ``cli``), so a wrapper is only
seen by every caller when the name is rebound in every module that holds
it.  :class:`Tracer` does that, keeps one span stack per process, derives
self time from nesting, times generator functions per ``next()`` and puts
every original binding back on :meth:`Tracer.restore`.

Campaigns run cells in forked pool workers.  A tracer that was given a
``dump_dir`` resets itself in each forked child and, after every harness
check call, writes the child's counters to ``<dump_dir>/<pid>.json``; the
parent merges those files with :meth:`Tracer.merge_dumps` once the pool has
shut down.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from functools import wraps
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

# Layer functions wrapped by a full trace, as "<module>.<function>".
FUNCTIONS = (
    "stirling.statistics",
    "trees.gessel_forward",
    "trees.gessel_inverse",
    "trees.leaf_census",
    "trees.serialize",
    "trees.parse_tree",
    "trees.validate_tree",
    "action.balance_report",
    "action.canonical_representative",
    "action.is_canonical",
    "action.orbit",
    "action.prune",
    "counts.c_polynomial_enum",
    "counts.gamma_count_trees",
    "counts.gamma_count_perms",
    "counts.gamma_count_mma",
    "counts.gamma_count_ternary",
    "grammar.derive",
    "grammar.change_of_variables_check",
    "poly.gamma_extract",
    "poly.is_symmetric",
    "cli.main",
)
GENERATORS = (
    "stirling.enumerate_stirling",
    "action.enumerate_canonical",
)
# Functions whose results are also sized: name -> result -> count.
RESULT_SIZES = {
    "grammar.derive": lambda p: len(p.terms),
}


@dataclasses.dataclass
class Stat:
    """Counters of one traced function (per process)."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    items: int = 0  # generator yields, or summed result sizes
    max_items: int = 0  # most items from a single call

    def add(self, other: Stat) -> None:
        self.calls += other.calls
        self.busy_s += other.busy_s
        self.self_s += other.self_s
        self.items += other.items
        self.max_items = max(self.max_items, other.max_items)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples, in exact
    decimal arithmetic (99.9% of 10 000 is 9 990, not 9 991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def highest_reportable(n: int, candidates=(99.9, 99.0, 90.0, 50.0)) -> float | None:
    """The highest candidate percentile that leaves at least ten samples
    beyond it, or None when even the lowest does not."""
    for p in candidates:
        if n - _rank(p, n) >= 10:
            return p
    return None


def tail_percentile(values, p: float) -> float:
    """The p-th percentile, refused when fewer than ten samples lie beyond it."""
    best = highest_reportable(len(values))
    if best is None or p > best:
        raise ValueError(
            f"p{p:g} needs at least ten samples beyond it; {len(values)} samples allow "
            f"{'none' if best is None else f'p{best:g}'}")
    return percentile(values, p)


class Tracer:
    """Spans and counters for wrapped gesselgamma functions.

    ``install(functions, generators, checks)`` rebinds the named functions
    in every loaded ``gesselgamma`` module and, with ``checks``, replaces
    each ``harness.CHECKS[id]`` by a copy whose ``run`` is timed as
    ``harness.check.<id>``; each such call is one cell, whose time at the
    reference speed (see ``speed.py``) is kept in ``cell_ms`` under
    ``"<id>:<multiset spec>"``.  Spans keep raw times.
    """

    def __init__(self, dump_dir: Path | None = None):
        self.dump_dir = dump_dir
        self.stats: dict[str, Stat] = {}
        self.parent_items: dict[str, int] = {}  # "<parent>><child>" -> items
        self.cell_ms: dict[str, float] = {}
        self.probe = SpeedProbe()
        self._stack: list[list] = []  # [child seconds, span name]
        self._undo: list[tuple[dict, str, object]] = []
        self._in_child = False
        if dump_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _close(self, name: str, frame: list, dt: float) -> None:
        st = self._stat(name)
        st.busy_s += dt
        st.self_s += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt

    def wrap(self, name: str, fn):
        """A wrapper of fn that records one span per call under name."""
        size = RESULT_SIZES.get(name)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._close(name, frame, dt)
                self._stat(name).calls += 1
            if size is not None:
                st = self._stat(name)
                n = size(result)
                st.items += n
                st.max_items = max(st.max_items, n)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A wrapper of a generator function that times each next() as a span
        and counts the items, also by the span the consumer was in."""
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            self._stat(name).calls += 1
            it = fn(*args, **kwargs)
            count = 0
            try:
                while True:
                    frame = [0.0, name]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        stack.pop()
                        self._close(name, frame, dt)
                    count += 1
                    if stack:
                        key = f"{stack[-1][1]}>{name}"
                        self.parent_items[key] = self.parent_items.get(key, 0) + 1
                    yield item
            finally:
                it.close()
                st = self._stat(name)
                st.items += count
                st.max_items = max(st.max_items, count)

        return traced

    def _wrap_check(self, check_id: str, run):
        inner = self.wrap(f"harness.check.{check_id}", run)

        @wraps(run)
        def cell(m):
            self.probe.calibrate_if_due()
            t0 = perf_counter()
            try:
                return inner(m)
            finally:
                raw = perf_counter() - t0
                self.cell_ms[f"{check_id}:{m.spec()}"] = self.probe.scale(raw) * 1000.0
                if self._in_child:
                    self._dump()

        return cell

    # -- installing and restoring -----------------------------------------

    def _rebind(self, original, replacement) -> int:
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gesselgamma" or modname.startswith("gesselgamma.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, attr, original))
                    namespace[attr] = replacement
                    hits += 1
        return hits

    def install(self, functions=FUNCTIONS, generators=GENERATORS, checks: bool = True) -> None:
        import importlib

        for kind, names in (("function", functions), ("generator", generators)):
            for name in names:
                modname, attr = name.split(".")
                original = getattr(importlib.import_module(f"gesselgamma.{modname}"), attr)
                wrapper = (self.wrap if kind == "function" else self.wrap_generator)(name, original)
                if not self._rebind(original, wrapper):
                    raise RuntimeError(f"{name} is bound nowhere")
        if checks:
            from gesselgamma import harness

            for cid, cd in list(harness.CHECKS.items()):
                self._undo.append((harness.CHECKS, cid, cd))
                harness.CHECKS[cid] = dataclasses.replace(cd, run=self._wrap_check(cid, cd.run))

    def restore(self) -> None:
        """Put back every binding install() replaced, newest first."""
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    # -- pool workers -------------------------------------------------------

    def _after_fork(self) -> None:
        if not self._undo:  # not installed
            return
        self._in_child = True
        self.stats = {}
        self.parent_items = {}
        self.cell_ms = {}
        self.probe = SpeedProbe()
        self._stack.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {k: dataclasses.asdict(v) for k, v in self.stats.items()},
            "parent_items": self.parent_items,
            "cell_ms": self.cell_ms,
            "probe": self.probe.totals(),
        }

    def _dump(self) -> None:
        path = self.dump_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def merge_dumps(self) -> int:
        """Fold every child's dump into this tracer, delete it, return how many."""
        if self.dump_dir is None:
            return 0
        paths = sorted(self.dump_dir.glob("*.json"))
        for path in paths:
            data = json.loads(path.read_text())
            for name, fields in data["stats"].items():
                self._stat(name).add(Stat(**fields))
            for key, n in data["parent_items"].items():
                self.parent_items[key] = self.parent_items.get(key, 0) + n
            self.cell_ms.update(data["cell_ms"])
            self.probe.add_totals(data["probe"])
            path.unlink()
        return len(paths)
