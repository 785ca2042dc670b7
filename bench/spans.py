"""Per-layer tracing of corrbox from outside its source tree.

Tracer.install() replaces each traced function with a wrapper that records
a span (name, start, end, parent, command) and puts the original back on
uninstall().  Names that other modules took in with `from ... import` are
replaced too, by identity, so a call counts whichever module makes it.  A
name that no longer exists is reported as absent rather than failing, so
the modules stay free to change shape.

Spans stay in memory until the run ends.  Self time is a span's duration
minus the time its child spans cover; the solver counters (pivots, Bland
loops, infeasible programs) are counted at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# span name -> (module, attribute).  "_cmd_*" stands for every subcommand
# handler of the CLI.
SPANS = {
    "cli.parse": ("cli", "_build_parser"),
    "cli.command": ("cli", "_cmd_*"),
    "cli.emit": ("cli", "_emit"),
    "verify.fuzz": ("verify", "fuzz"),
    "verify.property_results": ("verify", "_property_results"),
    "verify.reproduce_paper": ("verify", "reproduce_paper"),
    "cost.communication_cost": ("cost", "communication_cost"),
    "cost.find_distinct_decompositions": ("cost", "find_distinct_decompositions"),
    "lp.solve_prepared": ("lp", "_solve_prepared"),
    "lp.phase1": ("lp", "_Engine._loop"),
    "lp.phase2": ("lp", "_Engine._loop"),
    "lp.drive_out": ("lp", "_Engine._drive_out_artificials"),
    "lp.check_basic_state": ("lp", "_Engine.check_basic_state"),
    "lp.point": ("lp", "_Engine.point"),
    "lp.reoptimize": ("lp", "_Engine.reoptimize"),
    "measures.signal": ("measures", "signal"),
    "measures.chsh": ("measures", "chsh"),
    "measures.unpredictability": ("measures", "unpredictability"),
    "measures.uncertainty": ("measures", "uncertainty"),
    "generators.sample": ("generators", "sample"),
    "boxes.mix": ("boxes", "mix"),
    "boxes.box_from_json_obj": ("boxes", "box_from_json_obj"),
    "boxes.box_to_json_obj": ("boxes", "box_to_json_obj"),
}
# Pivots after which the simplex loop switches to Bland's rule (lp._BLAND_AFTER).
BLAND_AFTER_DEFAULT = 200


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index of the enclosing span, -1 at the top
    command: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.command = -1
        self.counts = {"lp.pivots": 0, "lp.infeasible": 0, "lp.bland_loops": 0}
        self.absent: set[str] = set()
        self._patches: list[tuple[Any, str, Any]] = []
        self._modules: list[Any] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.command))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    # -- wrappers with more than a span --------------------------------------

    def _parse(self, build: Callable) -> Callable:
        # The span runs from building the parser until parse_args returns.
        def traced(*args, **kwargs):
            index = self.open("cli.parse")
            parser = build(*args, **kwargs)
            parse_args = parser.parse_args

            def parse(*a, **k):
                try:
                    return parse_args(*a, **k)
                finally:
                    self.close(index)
            parser.parse_args = parse
            return parser
        return traced

    def _loop(self, loop: Callable, bland_after: int) -> Callable:
        # Engine._loop(col_cost, allowed): no objective is phase 1, the
        # program's objective over all columns is phase 2, and a loop over
        # an allowed set belongs to the reoptimize span around it.
        def traced(engine, *args, **kwargs):
            col_cost = args[0] if args else kwargs.get("col_cost")
            allowed = args[1] if len(args) > 1 else kwargs.get("allowed")
            pivots = self.counts["lp.pivots"]
            if allowed is not None:
                result = loop(engine, *args, **kwargs)
            else:
                index = self.open("lp.phase1" if col_cost is None else "lp.phase2")
                try:
                    result = loop(engine, *args, **kwargs)
                finally:
                    self.close(index)
            if self.counts["lp.pivots"] - pivots > bland_after:
                self.counts["lp.bland_loops"] += 1
            return result
        return traced

    def _command(self, main: Callable) -> Callable:
        # Numbers the commands, so the spans of one command share an id.
        def counted(*args, **kwargs):
            self.command += 1
            return main(*args, **kwargs)
        return counted

    def _pivot(self, pivot: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.counts["lp.pivots"] += 1
            return pivot(*args, **kwargs)
        return counted

    def _solve(self, solve: Callable) -> Callable:
        traced_solve = self.span("lp.solve_prepared", solve)

        def counted(*args, **kwargs):
            result = traced_solve(*args, **kwargs)
            if getattr(result[0], "status", None) == "infeasible":
                self.counts["lp.infeasible"] += 1
            return result
        return counted

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("corrbox.cli")
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == "corrbox" or name.startswith("corrbox.")]
        bland_after = getattr(sys.modules.get("corrbox.lp"), "_BLAND_AFTER",
                              BLAND_AFTER_DEFAULT)
        special = {
            "cli.parse": self._parse,
            "lp.solve_prepared": self._solve,
            "lp.phase1": lambda fn: self._loop(fn, bland_after),
        }
        for owner, key, original in self._resolve("cli", "main"):
            self._replace(owner, key, original, self._command(original))
        for name, (module_name, attr) in SPANS.items():
            if name == "lp.phase2":
                continue  # one wrapper on Engine._loop gives both phases
            targets = self._resolve(module_name, attr)
            if not targets:
                self.absent.add(name)
                if name == "lp.phase1":
                    self.absent.add("lp.phase2")
                continue
            wrap = special.get(name, lambda fn, name=name: self.span(name, fn))
            for owner, key, original in targets:
                self._replace(owner, key, original, wrap(original))
        pivot = self._resolve("lp", "_Engine._pivot")
        if pivot:
            owner, key, original = pivot[0]
            self._replace(owner, key, original, self._pivot(original))
        else:
            self.absent.add("lp.pivots")

    @staticmethod
    def _resolve(module_name: str, attr: str) -> list[tuple[Any, str, Any]]:
        """(owner, key, function) for corrbox.<module_name>.<attr>; empty
        when the module or name is gone."""
        try:
            owner = importlib.import_module(f"corrbox.{module_name}")
        except ModuleNotFoundError:
            return []
        *path, key = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return []
        names = vars(owner)
        if key.endswith("*"):
            keys = [k for k in names if k.startswith(key[:-1]) and callable(names[k])]
        else:
            keys = [key] if callable(names.get(key)) else []
        return [(owner, k, names[k]) for k in keys]

    def _replace(self, owner: Any, key: str, original: Any, wrapped: Any) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapped)
        if isinstance(owner, type):
            return
        for module in self._modules:
            for name, value in list(vars(module).items()):
                if value is original and module is not owner:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """<span>.calls and <span>.self_ms for every span, then the counters."""
        calls = dict.fromkeys(SPANS, 0)
        self_ns = dict.fromkeys(SPANS, 0)
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] += 1
            self_ns[span.name] += duration
            if span.parent >= 0:
                self_ns[self.spans[span.parent].name] -= duration
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        solves = calls["lp.solve_prepared"]
        out["lp.pivots"] = (self.counts["lp.pivots"], "count")
        out["lp.pivots_per_solve"] = (self.counts["lp.pivots"] / solves if solves else 0.0, "count")
        out["lp.infeasible"] = (self.counts["lp.infeasible"], "count")
        out["lp.bland_loops"] = (self.counts["lp.bland_loops"], "count")
        return out

    def write(self, path: str) -> None:
        """One JSON line per span, in start order, then one line of absences."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "parent": s.parent, "name": s.name,
                                         "command": s.command, "start_ns": s.start,
                                         "end_ns": s.end}) + "\n")
            handle.write(json.dumps({"absent": sorted(self.absent)}) + "\n")
