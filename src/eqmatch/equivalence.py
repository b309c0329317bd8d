"""Static structural-equivalence partitioning and interchange counting.

Two vertices are structurally equivalent when their neighborhoods coincide
once the pair itself is excluded: every third vertex sees them identically
in every channel, any edges between the two are mutual with equal
multiplicity, and (when present) their labels and self-loops agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

from .graphs import MultiplexGraph, Problem, is_subgraph_isomorphism

_SELF = object()  # sentinel for self-loop keys in neighbor signatures
_CHECK_EVERY = 256  # vertices between deadline checks


class DeadlineExceeded(TimeoutError):
    """A computation given a deadline ran past it."""


@dataclass(frozen=True)
class Partition:
    """Disjoint equivalence classes covering ``0..n-1``.

    Classes are sorted by smallest member for determinism; ``class_of[v]``
    is the index of the class containing ``v``.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @staticmethod
    def from_groups(groups: list[list[int]], n: int) -> "Partition":
        classes = tuple(tuple(sorted(g)) for g in sorted(groups, key=min))
        class_of = [-1] * n
        for i, cls in enumerate(classes):
            for v in cls:
                class_of[v] = i
        if -1 in class_of:
            raise ValueError("groups do not cover the vertex set")
        return Partition(classes, tuple(class_of))

    @staticmethod
    def trivial(n: int) -> "Partition":
        """All-singleton partition."""
        return Partition(tuple((v,) for v in range(n)), tuple(range(n)))

    def to_json(self) -> list[list[int]]:
        return [list(c) for c in self.classes]

    def same_class(self, v: int, w: int) -> bool:
        return self.class_of[v] == self.class_of[w]


def structurally_equivalent(g: MultiplexGraph, v: int, w: int) -> bool:
    """Decide whether ``v`` and ``w`` can be swapped without changing ``g``."""
    g._check_vertex(v)
    g._check_vertex(w)
    if v == w:
        return True
    if g.label(v) != g.label(w):
        return False
    # Any edges between the pair must be mutual with equal multiplicity,
    # and self-loops must agree (a swap would otherwise alter the graph).
    if g.edge(v, w) != g.edge(w, v):
        return False
    if g.edge(v, v) != g.edge(w, w):
        return False
    skip = (v, w)
    for a, b in ((v, w), (w, v)):
        for u, mult in g.out[a].items():
            if u in skip:
                continue
            if g.edge(b, u) != mult:
                return False
        for u, mult in g.inn[a].items():
            if u in skip:
                continue
            if g.edge(u, b) != mult:
                return False
    return True


def _signature(g: MultiplexGraph, v: int):
    out_sig = frozenset((_SELF if u == v else u, m) for u, m in g.out[v].items())
    in_sig = frozenset((_SELF if u == v else u, m) for u, m in g.inn[v].items())
    return (g.label(v), out_sig, in_sig)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def find_equivalence_classes(g: MultiplexGraph,
                             deadline: float | None = None) -> Partition:
    """Compute the maximal structural-equivalence partition of ``g``.

    Non-adjacent equivalent vertices share an exact neighbor signature, so a
    hash pass groups them in near-linear time; equivalent vertices that are
    adjacent to each other (mutual-edge pairs) are caught by testing each
    edge pairwise, and only when the two have equal out- and in-neighbour
    counts: a swap maps one neighbourhood onto the other, so unequal
    counts rule the pair out. The result is independent of visit order.
    Given a ``deadline`` (a ``time.monotonic()`` value), both passes check
    it every few hundred vertices and raise :class:`DeadlineExceeded` once
    it has passed.
    """
    def check(v: int) -> None:
        if (deadline is not None and v % _CHECK_EVERY == 0
                and time.monotonic() >= deadline):
            raise DeadlineExceeded

    n = g.vertex_count
    uf = _UnionFind(n)
    by_sig: dict[object, int] = {}
    for v in range(n):
        check(v)
        sig = _signature(g, v)
        if sig in by_sig:
            uf.union(by_sig[sig], v)
        else:
            by_sig[sig] = v
    out, inn = g.out, g.inn
    for v in range(n):
        check(v)
        nout, nin = len(out[v]), len(inn[v])
        for w in out[v]:
            if (w != v and len(out[w]) == nout and len(inn[w]) == nin
                    and uf.find(v) != uf.find(w)
                    and structurally_equivalent(g, v, w)):
                uf.union(v, w)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(uf.find(v), []).append(v)
    return Partition.from_groups(list(groups.values()), n)


def count_factorial_lower_bound(p: Partition) -> int:
    """Exact product of factorials of the class sizes (an isomorphism-count floor)."""
    result = 1
    for cls in p.classes:
        result *= factorial(len(cls))
    return result


def interchange_count(triples) -> int:
    """Count the maps that one solution class stands for.

    ``triples`` holds one ``(template class, world cell, image)`` triple per
    template vertex, in placement order: the member tuples of the vertex's
    template class and of the world cell its image was drawn from, and the
    image. The count is the product over the triples of ``|cell|`` less the
    cell's members that earlier triples took as images, times
    ``|C|! / prod_j k_Cj!`` for each template class ``C``, where ``k_Cj``
    counts the members of ``C`` placed in cell ``j``: ``|C|!`` permutes the
    class, and the slot product already orders the members that share a
    cell. Every mode weighs its classes so. A static mode's cells are world
    classes; a singleton template class has multinomial 1, which leaves the
    product of the slot multipliers. A singleton vertex in a singleton cell
    weighs 1 and is only recorded as taken; with trivial partitions (NE)
    every triple is such a triple.
    """
    taken: set[int] = set()
    incidence: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    result = 1
    for tcls, cell, image in triples:
        if len(cell) > 1:
            result *= len(cell) - len(taken.intersection(cell))
        if len(tcls) > 1:
            incidence[tcls, cell] = incidence.get((tcls, cell), 0) + 1
        taken.add(image)
    for tcls in {tcls for tcls, _ in incidence}:
        result *= factorial(len(tcls))
    for k in incidence.values():
        result //= factorial(k)
    return result


def count_tewe(problem: Problem, mapping: dict[int, int],
               template_partition: Partition, world_partition: Partition) -> int:
    """Count isomorphisms reachable from ``mapping`` by template/world swaps:
    :func:`interchange_count` of each vertex's template class, the world
    class of its image and the image, in the mapping's order.

    Raises ``ValueError`` unless ``mapping`` is a subgraph isomorphism. The
    check reads one world dict entry per template arc and calls
    ``dominates`` only where the world tuple differs from the template's;
    an equal tuple always dominates."""
    if not is_subgraph_isomorphism(problem, mapping):
        raise ValueError("mapping is not a subgraph isomorphism")
    tp, wp = template_partition, world_partition
    return interchange_count((tp.classes[tp.class_of[v]],
                              wp.classes[wp.class_of[img]], img)
                             for v, img in mapping.items())
