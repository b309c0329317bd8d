"""Equivalence-aware recursive tree search over template-in-world matching.

Seven search modes share one recursion. Each mode is one row of
``_RULES``: whether it interchanges statically equivalent template
vertices, whether it interchanges statically equivalent world vertices,
and which dynamic cell builder groups the candidates of the branching
vertex into interchangeable cells:

* ``ne``   -- no template partition, no world partition, no builder:
  every solution is its own class.
* ``te``   -- template partition only.
* ``we``   -- world partition only.
* ``tewe`` -- both partitions.
* ``ce``   -- world partition, builder ``_ce_cells``: candidate
  equivalence recomputed per assignment, usable only when a cell's members
  are candidates of no other unmatched vertex (blocked cells fall back to
  world classes, which are always safe).
* ``fe``   -- builder ``_fe_cells``: full candidate equivalence (with
  respect to every template vertex), always usable.
* ``nc``   -- builder ``_nc_cells``: candidate equivalence until a greedy
  node cover of the template is fully matched, then membership-vector
  grouping. The cover is matched first.

Everything else follows from the row. Without a builder the cells are the
world classes of the candidates (singletons under the trivial partition),
and once a branch is exhausted, its world class is dropped from the
candidates of the other members of the branching vertex's template class
(a no-op for singleton classes).

A solution class has one path. ``_Searcher._recurse`` yields it, weighed
when it is created: without a builder by ``count_tewe``, which re-verifies
the map and applies the static interchange count; with one, by the product
of its slot multipliers. ``solve`` alone counts, streams, collects and
stops, and ``expand_solution_class`` expands every mode by one quota
recursion over the slots.

One filter prunes the candidates: ``init_candidates`` applies the unary
tests once, and ``_propagate`` keeps the sets arc consistent, from every
vertex at the root and from the branching vertex's template class below.

Candidate sets kept during search include already-used world vertices (a
used vertex stays listed while it remains joinable); this lets recomputed
cells report the full interchange class, with multipliers discounting the
members consumed by earlier assignments.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import prod
from typing import Callable, NamedTuple

from .graphs import MultiplexGraph, Problem, dominates
from .equivalence import (Partition, count_tewe, find_equivalence_classes,
                          interchange_count)
from .candidates import greedy_node_cover, init_candidates


class Mode(str, Enum):
    NE = "ne"
    TE = "te"
    WE = "we"
    TEWE = "tewe"
    CE = "ce"
    FE = "fe"
    NC = "nc"


ALL_MODES = tuple(Mode)

_NOT_CANDIDATE = 0  # token for "outside this vertex's candidate set"


@dataclass(frozen=True)
class Slot:
    """One assignment step of a solution class.

    ``template_class`` is the full template equivalence class for modes that
    interchange template vertices, otherwise the singleton ``(vertex,)``.
    ``members`` is the world interchange class at assignment time (including
    members already used by earlier slots); ``multiplier`` counts the
    members that were still available.
    """

    template_vertex: int
    template_class: tuple[int, ...]
    world_vertex: int
    members: tuple[int, ...]
    multiplier: int


@dataclass(frozen=True)
class SolutionClass:
    """A representative solution plus the interchanges it stands for."""

    mode: Mode
    slots: tuple[Slot, ...]
    count: int

    def mapping(self) -> dict[int, int]:
        return {s.template_vertex: s.world_vertex for s in self.slots}

    def to_json(self) -> dict:
        return {
            "assignments": [[s.template_vertex, list(s.members)] for s in self.slots],
            "count": str(self.count),
        }


@dataclass
class SearchReport:
    """Per-run statistics; counts are lower bounds unless status is completed."""

    representatives: int
    total: int
    wall_time_s: float
    status: str  # "completed" | "timed_out" | "truncated"

    @property
    def compression_rate(self) -> Fraction | None:
        if self.total == 0:
            return None
        return Fraction(self.representatives, self.total)

    def to_json(self) -> dict:
        rate = self.compression_rate
        return {
            "representatives": self.representatives,
            "total": str(self.total),
            "compression_rate": None if rate is None else float(rate),
            "wall_time_s": self.wall_time_s,
            "status": self.status,
        }


class _Stop(Exception):
    """Unwinds the search at the deadline."""


def _template_neighbor_profile(t: MultiplexGraph):
    """For each vertex: [(neighbor, out requirement, in requirement)] plus
    the self-loop requirement, aggregating both edge directions."""
    profiles = []
    selfs = []
    for u in range(t.vertex_count):
        nbrs = set(t.out[u]) | set(t.inn[u])
        nbrs.discard(u)
        profiles.append(tuple((u2, t.edge(u, u2), t.edge(u2, u))
                              for u2 in sorted(nbrs)))
        selfs.append(t.edge(u, u))
    return profiles, selfs


def _propagate(w: MultiplexGraph, tnbrs, jc: list[set[int]], changed,
               deadline: float | None = None) -> None:
    """Arc consistency, in place, from the vertices in ``changed``.

    Every other arc must already be consistent. A popped vertex ``x``
    revises each template neighbour's candidates against ``jc[x]``; a
    neighbour that loses candidates is queued again. Out- and in-support
    are independent: each may come from a different candidate of ``x``."""
    queue = dict.fromkeys(changed)  # an ordered set, popped last-in first
    while queue:
        if deadline is not None and time.monotonic() >= deadline:
            raise _Stop
        x = queue.popitem()[0]
        dx = jc[x]
        for y, req_in, req_out in tnbrs[x]:  # x -> y needs req_in, y -> x req_out
            drop = [c for c in jc[y]
                    if (req_out is not None and not any(
                        c2 in dx and dominates(e, req_out)
                        for c2, e in w.out[c].items()))
                    or (req_in is not None and not any(
                        c2 in dx and dominates(e, req_in)
                        for c2, e in w.inn[c].items()))]
            if drop:
                jc[y].difference_update(drop)
                queue[y] = None


class _Searcher:
    def __init__(self, problem: Problem, mode: Mode, deadline: float):
        self.problem = problem
        self.t = problem.template
        self.w = problem.world
        self.nt = self.t.vertex_count
        self.mode = mode
        self.deadline = deadline

        rule = _RULES[mode]
        self.tnbrs, self.tself = _template_neighbor_profile(self.t)
        self.tp = (find_equivalence_classes(self.t) if rule.template_partition
                   else Partition.trivial(self.nt))
        self.wp = (find_equivalence_classes(self.w) if rule.world_partition
                   else Partition.trivial(self.w.vertex_count))
        self.cells = rule.cells
        self.cover: frozenset[int] = (frozenset(greedy_node_cover(self.t))
                                      if rule.cells is _Searcher._nc_cells
                                      else frozenset())

        self.assigned: dict[int, int] = {}
        self.used: set[int] = set()
        self.slots: list[Slot] = []

    # -- dynamic equivalence ----------------------------------------------

    def _sig(self, uprime: int, c: int, jc: list[set[int]]):
        w = self.w
        parts = []
        for u2, req_out, req_in in self.tnbrs[uprime]:
            if req_out is not None:
                parts.append(frozenset(
                    c2 for c2 in jc[u2] if dominates(w.edge(c, c2), req_out)))
            if req_in is not None:
                parts.append(frozenset(
                    c2 for c2 in jc[u2] if dominates(w.edge(c2, c), req_in)))
        return tuple(parts)

    def _labels_wrt(self, uprime: int, universe, jc: list[set[int]]) -> dict[int, object]:
        """Equivalence-class labels, with respect to ``uprime``, for every
        candidate in ``universe`` (which must lie inside ``jc[uprime]``).

        Two candidates are equivalent when they agree on every other layer
        and, in ``uprime``'s own layer (its self-loop), have equal open
        neighbourhoods (no edge between them) or equal closed ones (edges
        both ways). A candidate whose closed signature no other candidate
        shares is labelled by its open one."""
        selfreq = self.tself[uprime]
        if selfreq is None:
            return {c: self._sig(uprime, c, jc) for c in universe}
        w, own = self.w, jc[uprime]
        sigs = {}
        for c in universe:
            outs = frozenset(c2 for c2 in own if dominates(w.edge(c, c2), selfreq))
            ins = frozenset(c2 for c2 in own if dominates(w.edge(c2, c), selfreq))
            rest = (self._sig(uprime, c, jc), c in outs)
            sigs[c] = ((True, rest, outs | {c}, ins | {c}),
                       (False, rest, outs - {c}, ins - {c}))
        shared = Counter(closed for closed, _ in sigs.values())
        return {c: closed if shared[closed] > 1 else opened
                for c, (closed, opened) in sigs.items()}

    def _ce_cells(self, u: int, jc: list[set[int]]) -> list[list[int]]:
        labels = self._labels_wrt(u, jc[u], jc)
        dyn: dict[object, list[int]] = {}
        for c in jc[u]:
            dyn.setdefault(labels[c], []).append(c)
        others = [u2 for u2 in range(self.nt)
                  if u2 != u and u2 not in self.assigned]
        cells: list[list[int]] = []
        fallback: dict[int, list[int]] = {}
        for members in dyn.values():
            blocked = any(c in jc[u2] for u2 in others for c in members)
            if not blocked:
                cells.append(sorted(members))
            else:
                for c in members:
                    fallback.setdefault(self.wp.class_of[c], []).append(c)
        cells.extend(sorted(g) for g in fallback.values())
        return cells

    def _fe_cells(self, u: int, jc: list[set[int]]) -> list[list[int]]:
        universe = sorted(jc[u])
        tokens: dict[int, list[object]] = {c: [] for c in universe}
        memo: dict[object, dict[int, object]] = {}
        frozen = [frozenset(s) for s in jc]
        # Matched vertices are fixed points; only unmatched vertices can
        # distinguish candidates that remain interchangeable.
        for uprime in (v for v in range(self.nt) if v not in self.assigned):
            inside = [c for c in universe if c in jc[uprime]]
            profile = (self.tnbrs[uprime], self.tself[uprime], frozen[uprime],
                       tuple(frozen[u2] for u2, _, _ in self.tnbrs[uprime]))
            if profile in memo:
                labels = memo[profile]
            else:
                labels = self._labels_wrt(uprime, inside, jc)
                memo[profile] = labels
            for c in universe:
                tokens[c].append(labels.get(c, _NOT_CANDIDATE)
                                 if c in jc[uprime] else _NOT_CANDIDATE)
        groups: dict[object, list[int]] = {}
        for c in universe:
            groups.setdefault(tuple(tokens[c]), []).append(c)
        return [sorted(g) for g in groups.values()]

    def _nc_cells(self, u: int, jc: list[set[int]]) -> list[list[int]]:
        if not self.cover <= set(self.assigned):
            return self._ce_cells(u, jc)
        noncover = [v for v in range(self.nt)
                    if v not in self.cover and v not in self.assigned]
        groups: dict[frozenset[int], list[int]] = {}
        for c in jc[u]:
            vec = frozenset(v for v in noncover if c in jc[v])
            groups.setdefault(vec, []).append(c)
        return [sorted(g) for g in groups.values()]

    # -- branch generation -------------------------------------------------

    def _generate(self, u: int, jc: list[set[int]]):
        """Entries (representative, members, multiplier) for branching on ``u``."""
        used = self.used
        if self.cells is None:
            wp = self.wp
            cells = {wp.class_of[c]: wp.classes[wp.class_of[c]]
                     for c in jc[u]}.values()
        else:
            cells = self.cells(self, u, jc)
        entries = []
        for members in cells:
            avail = [c for c in members if c in jc[u] and c not in used]
            if not avail:
                continue
            entries.append((min(avail), tuple(sorted(members)),
                            len(members) - sum(1 for c in members if c in used)))
        entries.sort(key=lambda e: e[0])
        return entries

    # -- recursion ---------------------------------------------------------

    def _recurse(self, jc: list[set[int]], changed):
        """Yield the solution classes below the current partial map."""
        if time.monotonic() >= self.deadline:
            raise _Stop
        assigned, used = self.assigned, self.used
        if len(assigned) == self.nt:
            slots = tuple(self.slots)
            if self.cells is None:
                count = count_tewe(self.problem, dict(assigned), self.tp, self.wp)
            else:
                count = prod(s.multiplier for s in slots)
            yield SolutionClass(self.mode, slots, count)
            return
        _propagate(self.w, self.tnbrs, jc, changed, self.deadline)
        free = [cs - used for cs in jc]
        if not all(free[v] for v in range(self.nt) if v not in assigned):
            return
        u = next_template_vertex(self.problem, free, assigned, self.cover)
        del free  # one level's copy must not live across the recursion
        tclass = self.tp.classes[self.tp.class_of[u]]
        for rep, members, mult in self._generate(u, jc):
            assigned[u] = rep
            used.add(rep)
            self.slots.append(Slot(u, tclass, rep, members, mult))
            # The prune below may have shrunk u's template siblings.
            yield from self._recurse([{rep} if v == u else set(cs)
                                      for v, cs in enumerate(jc)], tclass)
            self.slots.pop()
            used.discard(rep)
            del assigned[u]
            # Template-equivalent vertices would only repeat this branch's
            # classes (a no-op for singleton template classes).
            for u2 in tclass:
                if u2 != u and u2 not in assigned:
                    jc[u2].difference_update(members)


class _Rule(NamedTuple):
    """How a mode groups candidates into cells and weighs a class."""

    template_partition: bool  # interchange statically equivalent template vertices
    world_partition: bool     # interchange statically equivalent world vertices
    cells: Callable | None    # dynamic cell builder; None groups by world class


_RULES = {
    Mode.NE: _Rule(False, False, None),
    Mode.TE: _Rule(True, False, None),
    Mode.WE: _Rule(False, True, None),
    Mode.TEWE: _Rule(True, True, None),
    Mode.CE: _Rule(False, True, _Searcher._ce_cells),
    Mode.FE: _Rule(False, False, _Searcher._fe_cells),
    Mode.NC: _Rule(False, False, _Searcher._nc_cells),
}


def solve(problem: Problem, mode: Mode | str, timeout: float = 600.0,
          max_solutions: int | None = None, on_class=None,
          collect: bool = True) -> tuple[SearchReport, list[SolutionClass]]:
    """Enumerate the solution space of ``problem`` under ``mode``.

    Returns the report and the emitted solution classes (empty when
    ``collect`` is false; ``on_class`` streams them either way). When the
    run completes, ``total`` is the exact number of subgraph isomorphisms
    and the classes are disjoint and jointly exhaustive; after a timeout or
    a ``max_solutions`` stop the counts are lower bounds.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    start = time.monotonic()
    searcher = _Searcher(problem, Mode(mode), start + timeout)
    nt = problem.template.vertex_count
    representatives = total = 0
    classes: list[SolutionClass] = []
    status = "completed"
    try:
        if nt <= problem.world.vertex_count:
            for sc in searcher._recurse(init_candidates(problem), range(nt)):
                representatives += 1
                total += sc.count
                if on_class is not None:
                    on_class(sc)
                if collect:
                    classes.append(sc)
                if max_solutions is not None and representatives >= max_solutions:
                    status = "truncated"
                    break
    except _Stop:
        status = "timed_out"
    report = SearchReport(representatives, total, time.monotonic() - start,
                          status)
    return report, classes


def apply_filters(match, csets: list[set[int]], problem: Problem) -> list[set[int]]:
    """Arc-consistent candidate sets with ``match`` fixed, used vertices
    removed. ``csets`` must be derived from
    :func:`~eqmatch.candidates.init_candidates`, which applies the unary
    tests (label, degree, self-loop); this checks only the binary ones."""
    assigned = dict(match)
    jc = [{assigned[u]} if u in assigned else set(cs)
          for u, cs in enumerate(csets)]
    _propagate(problem.world, _template_neighbor_profile(problem.template)[0],
               jc, range(len(jc)))
    used = set(assigned.values())
    return [cs if u in assigned else cs - used for u, cs in enumerate(jc)]


def next_template_vertex(problem: Problem, csets: list[set[int]], matched,
                         cover=()) -> int:
    """The branching vertex: node-cover vertices first, then the smallest
    candidate set, ties by max template degree, then lowest index."""
    t = problem.template
    matched = set(matched)
    cover = set(cover)
    def key(u: int):
        return (u not in cover, len(csets[u]), -t.degree(u), u)
    choices = [u for u in range(t.vertex_count) if u not in matched]
    if not choices:
        raise ValueError("no unmatched template vertex")
    return min(choices, key=key)


def expansion_count_of(sc: SolutionClass) -> int:
    """Recompute the exact expansion count of ``sc`` from its slots.

    Modes with a dynamic cell builder multiply the slot multipliers. The
    static modes apply :func:`~eqmatch.equivalence.interchange_count` to
    the slots' (template class, world class) incidence, as ``count_tewe``
    does when the search weighs the class.
    """
    if _RULES[sc.mode].cells is None:
        return interchange_count((s.template_class, s.members) for s in sc.slots)
    return prod(s.multiplier for s in sc.slots)


def expand_solution_class(sc: SolutionClass):
    """Yield every full mapping represented by ``sc`` (each exactly once).

    The slots are filled in order. A template vertex takes an unused member
    of any cell that its template class maps into, each cell as often as
    the representative fills it from that class (its quota). The search
    built every later cell given the representative's image ``r``, so
    taking ``c`` from the vertex's own cell instead composes the world swap
    ``(r c)``, and later cells are read through the swaps made so far.
    """
    slots = sc.slots
    quota: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for s in slots:
        key = (s.template_class, s.members)
        quota[key] = quota.get(key, 0) + 1
    options = [[(key, key[1] == s.members) for key in quota
                if key[0] == s.template_class] for s in slots]
    image: dict[int, int] = {}   # representative's world -> current world
    source: dict[int, int] = {}  # the inverse; both default to the identity
    taken: set[int] = set()
    mapping: dict[int, int] = {}

    def swap(r: int, c: int) -> None:
        """Compose ``(r c)``: whatever maps to ``r`` now maps to ``c``, and
        the reverse. Applying it twice undoes it."""
        a, b = source.get(r, r), source.get(c, c)
        image[a], image[b] = c, r
        source[c], source[r] = a, b

    def fill(i: int):
        if i == len(slots):
            yield dict(mapping)
            return
        s = slots[i]
        r = image.get(s.world_vertex, s.world_vertex)
        for key, own in options[i]:
            if not quota[key]:
                continue
            quota[key] -= 1
            for m in key[1]:
                c = image.get(m, m)
                if c in taken:
                    continue
                moved = own and c != r
                if moved:
                    swap(r, c)
                taken.add(c)
                mapping[s.template_vertex] = c
                yield from fill(i + 1)
                taken.discard(c)
                if moved:
                    swap(r, c)
            quota[key] += 1

    yield from fill(0)
