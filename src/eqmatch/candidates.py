"""Candidate sets, the materialized candidate structure, node covers, and
the dynamic equivalence relations defined on them.

The materialized :class:`CandidateStructure` builds the full pair-node graph
and is intended for small instances (tests, DOT dumps); the search core
answers the same equivalence queries implicitly from adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import inf
from operator import ge, itemgetter

from .graphs import Graph, MultiplexGraph, Problem, dominates
from .equivalence import _CHECK_EVERY, _check_deadline, structurally_equivalent

MatchPairs = list[tuple[int, int]]


def init_candidates(problem: Problem,
                    deadline: float = inf) -> list[frozenset[int]]:
    """Initial candidate sets by the unary tests: label, degree, self-loop.

    Sound prefilter: a world vertex survives for template vertex ``u`` only
    if it carries u's label when u is labeled, has at least u's in- and
    out-degree in every channel (counting multiplicity), and has a self-loop
    dominating u's when u has one. The search tests only the other edges. An
    empty set is a legal result and signals unsatisfiability downstream.
    A zero requirement always holds, so degrees are summed only over the
    channels where the template has an arc, by ``map`` in C, and set-up
    grows with the template's channels, not the world's. One pass groups
    the world vertices by (label, self-loop, degree tuple). The tests then
    run once per distinct (label, degrees, self-loop) profile of the
    template and, for it, once per group (of its label, when it has one),
    comparing degree tuples in C by ``all(map(operator.ge, ...))``; the
    groups that pass make up the profile's one immutable set, which its
    template vertices share.
    Given a ``deadline`` (a ``time.monotonic()`` value), the grouping pass
    checks it every few hundred world vertices and each profile checks it
    once, raising :class:`DeadlineExceeded` once it has passed.
    """
    t, w = problem.template, problem.world
    # Channel 0 stands in for an arcless template, whose degrees are zero.
    chans = sorted({i for arcs in t.out for e in arcs.values()
                    for i, m in enumerate(e) if m}) or [0]
    # Degrees are summed in C, as a column per (direction, channel) or as
    # a row per (direction, vertex) of the arc tuples cut to ``chans``. A
    # column costs each vertex two C calls per channel, a row about six
    # in all: columns win up to four channels and rows from five.
    if len(chans) <= 4:
        def degrees(g: MultiplexGraph):
            """Each vertex's in-degrees over ``chans``, then its out-degrees."""
            return zip(*[list(map(sum, map(map, repeat(itemgetter(i)),
                                           map(dict.values, adj))))
                         for adj in (g.inn, g.out) for i in chans])
    else:
        zero = (0,) * len(chans)
        # On every channel the arc tuples are summed as they are.
        pick = None if len(chans) == t.channels else itemgetter(*chans)

        def sums(arcs: dict) -> tuple[int, ...]:
            cuts = arcs.values() if pick is None else map(pick, arcs.values())
            return tuple(map(sum, zip(zero, *cuts)))

        def degrees(g: MultiplexGraph):
            """Each vertex's in-degrees over ``chans``, then its out-degrees."""
            return map(tuple.__add__, map(sums, g.inn), map(sums, g.out))

    n = w.vertex_count
    groups: dict[tuple, list[int]] = {}
    keys = zip(w.labels or repeat(None), map(dict.get, w.out, range(n)),
               degrees(w))
    for start in range(0, n, _CHECK_EVERY):
        _check_deadline(deadline)
        for c, key in zip(range(start, start + _CHECK_EVERY), keys):
            groups.setdefault(key, []).append(c)
    by_label: dict[str | None, list[tuple]] = {}
    for key in groups:
        by_label.setdefault(key[0], []).append(key)
    by_profile: dict[tuple, frozenset[int]] = {}
    csets: list[frozenset[int]] = []
    for u, tdeg in enumerate(degrees(t)):
        profile = (t.label(u), tdeg, t.edge(u, u))
        if profile not in by_profile:
            _check_deadline(deadline)
            lbl, _, selfreq = profile
            by_profile[profile] = frozenset(chain.from_iterable(
                groups[key]
                for key in (groups if lbl is None else by_label.get(lbl, ()))
                if all(map(ge, key[2], tdeg))
                and (selfreq is None or dominates(key[1], selfreq))))
        csets.append(by_profile[profile])
    return csets


@dataclass
class CandidateStructure:
    """The pair-node graph over (template vertex, candidate) pairs.

    There is an edge ``(u1,c1) -> (u2,c2)`` exactly when the template has an
    edge ``u1 -> u2`` and the world edge ``c1 -> c2`` dominates it in every
    positive channel.
    """

    problem: Problem
    csets: list[set[int]]
    nodes: list[tuple[int, int]]
    index: dict[tuple[int, int], int]
    pair_graph: Graph

    def candidate_equivalent(self, u: int, c1: int, c2: int) -> bool:
        """Candidate equivalence of ``c1, c2`` with respect to ``u``.

        Both outside ``C[u]`` counts as equivalent; both inside requires the
        pair nodes ``(u,c1)`` and ``(u,c2)`` to be structurally equivalent
        within the pair-node graph.
        """
        in1, in2 = c1 in self.csets[u], c2 in self.csets[u]
        if in1 != in2:
            return False
        if not in1:
            return True
        if c1 == c2:
            return True
        return structurally_equivalent(
            self.pair_graph, self.index[(u, c1)], self.index[(u, c2)])

    def fully_candidate_equivalent(self, c1: int, c2: int) -> bool:
        """Candidate equivalence with respect to every template vertex."""
        return all(self.candidate_equivalent(u, c1, c2)
                   for u in range(self.problem.template.vertex_count))


def build_candidate_structure(problem: Problem,
                              csets: list[set[int]]) -> CandidateStructure:
    """Materialize the pair-node graph for the given candidate sets."""
    t, w = problem.template, problem.world
    nodes = [(u, c) for u in range(t.vertex_count) for c in sorted(csets[u])]
    index = {node: i for i, node in enumerate(nodes)}
    pg = Graph(len(nodes))
    for i, (u1, c1) in enumerate(nodes):
        for u2, req in t.out[u1].items():
            for c2 in csets[u2]:
                if dominates(w.edge(c1, c2), req):
                    j = index[(u2, c2)]
                    pg.add_edge(i, j)
    return CandidateStructure(problem, [set(cs) for cs in csets], nodes, index, pg)


def greedy_node_cover(t: MultiplexGraph) -> tuple[int, ...]:
    """Greedy node cover: repeatedly take the vertex covering the most
    uncovered edges (ties to the lowest index) until no edges remain."""
    edges: set[tuple[int, int]] = {(u, v) for u in range(t.vertex_count)
                                   for v in t.out[u]}
    cover: list[int] = []
    while edges:
        incident = [0] * t.vertex_count
        for u, v in edges:
            incident[u] += 1
            if v != u:
                incident[v] += 1
        best = max(range(t.vertex_count), key=lambda v: (incident[v], -v))
        cover.append(best)
        edges = {(u, v) for (u, v) in edges if u != best and v != best}
    return tuple(sorted(cover))


def is_node_cover(t: MultiplexGraph, cover) -> bool:
    """True iff removing ``cover`` and incident edges leaves ``t`` edgeless."""
    cs = set(cover)
    return all(u in cs or v in cs
               for u in range(t.vertex_count) for v in t.out[u])


def node_cover_equivalent(csets: list[set[int]], cover, match: MatchPairs,
                          w1: int, w2: int) -> bool:
    """Node-cover equivalence: identical candidate membership outside the cover.

    ``csets`` must be derived with :func:`~eqmatch.search.apply_filters`
    from ``match``, and ``match`` must assign every cover vertex (contract
    error otherwise).
    """
    return all((w1 in csets[u]) == (w2 in csets[u])
               for u in _noncover(len(csets), cover, match))


def _noncover(n: int, cover, match: MatchPairs) -> list[int]:
    """The vertices ``0..n-1`` outside ``cover``, after checking that
    ``match`` assigns every cover vertex (a contract error otherwise)."""
    cs = set(cover)
    missing = cs - {v for v, _ in match}
    if missing:
        raise ValueError(f"node cover vertices {sorted(missing)} are not matched")
    return [u for u in range(n) if u not in cs]
