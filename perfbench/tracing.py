"""Spans and counts around the program's layer boundaries.

A traced job rebinds the program's public functions in the modules that
look them up (``install``) and restores the originals afterwards
(``uninstall``). The benchmark also opens spans around its own calls into
each layer. A span is ``[name, start, end, parent, job, tag]``: ``parent``
is the index of the enclosing span (-1 at the top) and ``job`` identifies
the solve it belongs to. Spans stay in memory until the run writes them.

``dominates`` is called millions of times per solve, so it is counted, not
timed; its time, and the counter's, stays in the search's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
from time import perf_counter

# (module, attribute, span name) for every rebound function; ``None`` as
# the span name marks a call that is only counted.
TARGETS = (
    ("eqmatch.search", "init_candidates", "candidates.init"),
    ("eqmatch.search", "greedy_node_cover", "candidates.cover"),
    ("eqmatch.search", "find_equivalence_classes", "equivalence.partition"),
    ("eqmatch.search", "count_tewe", "equivalence.count"),
    ("eqmatch.search", "dominates", None),
    ("eqmatch.equivalence", "is_subgraph_isomorphism", "graphs.iso_check"),
    ("eqmatch.cli", "load_problem", "cli.load_problem"),
    ("eqmatch.cli", "parse_lad", "graphs.parse"),
    ("eqmatch.cli", "parse_multiplex_edgelist", "graphs.parse"),
    ("eqmatch.cli", "solve", "search.solve"),
    ("eqmatch.cli", "induce_subgraph", "reporting.class_report"),
    ("eqmatch.cli", "compress", "reporting.class_report"),
    ("eqmatch.cli", "export_dot", "reporting.class_report"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.first_class: dict[int, float] = {}  # solve span -> first class
        self.classes: dict[int, int] = {}        # solve span -> classes seen
        self.missing: list[str] = []             # targets absent from the program
        self._dominates = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str, tag=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, tag])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        index = self.begin(name, tag)
        try:
            yield index
        finally:
            self.end(index)

    def class_hook(self, solve_span: int, callback=None, name=None):
        """An ``on_class`` callback noting the first class and the class
        count of ``solve_span``; ``callback`` runs inside span ``name``."""
        def on_class(sc):
            if solve_span not in self.first_class:
                self.first_class[solve_span] = perf_counter()
            self.classes[solve_span] = self.classes.get(solve_span, 0) + 1
            if callback is not None:
                with self.span(name):
                    callback(sc)
        return on_class

    @property
    def dominates_calls(self) -> int:
        return self._dominates.__reduce__()[1][0]

    # -- rebinding -------------------------------------------------------------

    def _wrap(self, fn, name):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)
        return traced

    def _wrap_solve(self, fn, name):
        """``cli.solve``: a solve span tagged with the mode, whose class
        callback (the CLI's JSONL writer) runs in a ``cli.on_class`` span."""
        @functools.wraps(fn)
        def traced(problem, mode, *args, **kwargs):
            index = self.begin(name, tag=str(getattr(mode, "value", mode)))
            kwargs["on_class"] = self.class_hook(
                index, kwargs.get("on_class"), "cli.on_class")
            try:
                return fn(problem, mode, *args, **kwargs)
            finally:
                self.end(index)
        return traced

    def _count(self, fn):
        tick = self._dominates.__next__

        @functools.wraps(fn)
        def counted(world_edge, template_edge):
            tick()
            return fn(world_edge, template_edge)
        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            if name is None:
                wrapped = self._count(fn)
            elif name == "search.solve":
                wrapped = self._wrap_solve(fn, name)
            else:
                wrapped = self._wrap(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


class NullTracer:
    """Stands in for a tracer in untraced runs."""

    job = -1

    def span(self, name, tag=None):
        return contextlib.nullcontext(-1)

    def class_hook(self, solve_span, callback=None, name=None):
        return callback

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
