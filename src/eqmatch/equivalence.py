"""Static structural-equivalence partitioning and interchange counting.

Two vertices are structurally equivalent when swapping them leaves the
graph unchanged: every third vertex sees them identically in every
channel, any edges between the two are mutual with equal multiplicity,
and (when present) their labels and self-loops agree.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from math import factorial, inf
from operator import add, gt

from .graphs import MultiplexGraph, Problem, is_subgraph_isomorphism

_CHECK_EVERY = 256  # vertices between deadline checks


class DeadlineExceeded(TimeoutError):
    """A computation given a deadline ran past it."""


def _check_deadline(deadline: float) -> None:
    """Raise :class:`DeadlineExceeded` once ``deadline`` (a
    ``time.monotonic()`` value) has passed."""
    if time.monotonic() >= deadline:
        raise DeadlineExceeded


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
        """The partition of ``0..n-1`` into ``groups``, which must hold
        each vertex once."""
        if sorted(chain.from_iterable(groups)) != list(range(n)):
            raise ValueError("groups do not partition the vertex set")
        return Partition._with_singletons([g for g in groups if len(g) > 1],
                                          n)

    @staticmethod
    def _with_singletons(groups: list[list[int]], n: int) -> "Partition":
        """The partition of ``0..n-1`` into the disjoint ``groups`` and one
        singleton per vertex in none. The singletons are 1-tuples made by
        ``zip``, and a class's index is a running count of the vertices
        that start a class (its smallest member), both in C; Python visits
        only the vertices of ``groups``."""
        groups = [tuple(sorted(g)) for g in groups]
        classes = list(zip(range(n)))  # each vertex's singleton
        start = bytearray(b"\1") * n
        for g in groups:
            classes[g[0]] = g
            for v in g[1:]:
                start[v] = 0
        class_of = list(accumulate(start, initial=-1))
        del class_of[0]  # class_of[v] is v's index when v starts a class
        for g in groups:
            for v in g[1:]:
                class_of[v] = class_of[g[0]]
        return Partition(tuple(compress(classes, start)), tuple(class_of))

    @staticmethod
    def trivial(n: int) -> "Partition":
        """All-singleton partition."""
        return Partition(tuple((v,) for v in range(n)), tuple(range(n)))

    def to_json(self) -> list[list[int]]:
        return [list(c) for c in self.classes]

    def same_class(self, v: int, w: int) -> bool:
        return self.class_of[v] == self.class_of[w]


def structurally_equivalent(g: MultiplexGraph, v: int, w: int) -> bool:
    """Decide whether ``v`` and ``w`` can be swapped without changing ``g``:
    equal labels and self-loops, any arcs between the two mutual with equal
    multiplicity, and equal arcs to and from every third vertex (the arcs
    on which the two dicts differ all lead to ``v`` or ``w``)."""
    g._check_vertex(v)
    g._check_vertex(w)
    out, inn, pair = g.out, g.inn, {v, w}
    return v == w or (
        g.label(v) == g.label(w)
        and out[v].get(v) == out[w].get(w)
        and out[v].get(w) == out[w].get(v)
        and {u for u, _ in out[v].items() ^ out[w].items()} <= pair
        and {u for u, _ in inn[v].items() ^ inn[w].items()} <= pair)


def _signature(g: MultiplexGraph, v: int):
    """``(label, self-loop, out-arcs, in-arcs)`` of ``v``, the arc sets
    without the self-loop: two vertices share it exactly when they are
    non-adjacent and structurally equivalent (open twins)."""
    out, inn = g.out[v], g.inn[v]
    loop = out.get(v)
    if loop is None:
        return (g.label(v), None, frozenset(out.items()),
                frozenset(inn.items()))
    own = ((v, loop),)
    return (g.label(v), loop, frozenset(out.items()).difference(own),
            frozenset(inn.items()).difference(own))


def _shared(keys: list[int]):
    """The vertex lists of the values in ``keys`` (one per vertex) that two
    or more vertices share: a ``Counter`` and the selection run in C, and
    Python reaches only the vertices that share a value."""
    counts = Counter(keys)
    buckets: dict[int, list[int]] = {}
    for v in compress(count(), map(gt, map(counts.__getitem__, keys),
                                   repeat(1))):
        buckets.setdefault(keys[v], []).append(v)
    return buckets.values()


def find_equivalence_classes(g: MultiplexGraph,
                             deadline: float = inf) -> Partition:
    """Compute the maximal structural-equivalence partition of ``g``.

    A class of two or more vertices is either pairwise non-adjacent (open
    twins: equal neighbourhoods) or a clique of mutual arcs of one tuple
    (closed twins), never mixed: if ``v`` were equivalent to a non-neighbour
    ``w`` and to a neighbour ``x``, swapping ``v`` and ``x`` would move the
    edge ``x``-``w`` onto ``v``-``w``. Each vertex gets cheap aggregates,
    computed by ``map`` in C: its out- and in-neighbour counts and the sums
    of its out- and in-neighbour ids, its own arc taken out when it has a
    self-loop. Open twins share the open key (label, self-loop, counts,
    sums); closed twins share the closed key, whose sums also hold the
    vertex itself. Only the vertices whose key hash another vertex shares
    get exact work: the exact signatures of :func:`_signature` settle each
    open bucket, so every open-twin class comes out whole, and each closed
    bucket is grouped by exact closed neighbourhood, then settled by
    :func:`structurally_equivalent` against the first member of each
    clique. No bucket's signatures outlive it.
    Given a ``deadline`` (a ``time.monotonic()`` value), the passes check
    it between them and every few hundred vertices of exact work, and raise
    :class:`DeadlineExceeded` once it has passed.
    """
    visits = count()  # vertices given exact work

    def check() -> None:
        if next(visits) % _CHECK_EVERY == 0:
            _check_deadline(deadline)

    n, out, inn = g.vertex_count, g.out, g.inn
    labels = g.labels or repeat(None)
    loops = list(map(dict.get, out, range(n)))
    nout, nin = list(map(len, out)), list(map(len, inn))
    sout, sin = list(map(sum, out)), list(map(sum, inn))  # sums of the keys
    for v in compress(range(n), loops):  # a self-loop is no neighbour
        nout[v] -= 1
        nin[v] -= 1
        sout[v] -= v
        sin[v] -= v
    groups = []
    _check_deadline(deadline)
    for bucket in _shared(list(map(hash, zip(labels, loops, nout, nin,
                                             sout, sin)))):
        by_sig: dict[object, list[int]] = {}
        for v in bucket:
            check()
            by_sig.setdefault(_signature(g, v), []).append(v)
        groups += [grp for grp in by_sig.values() if len(grp) > 1]
    _check_deadline(deadline)
    for bucket in _shared(list(map(hash, zip(
            labels, loops, nout, nin, map(add, sout, range(n)),
            map(add, sin, range(n)))))):
        by_nbhd: dict[object, list[int]] = {}
        for v in bucket:
            check()
            by_nbhd.setdefault((frozenset(out[v]).union((v,)),
                                frozenset(inn[v]).union((v,))), []).append(v)
        for nbhd in by_nbhd.values():
            cliques: list[list[int]] = []
            for v in nbhd:
                check()
                for clique in cliques:
                    if structurally_equivalent(g, clique[0], v):
                        clique.append(v)
                        break
                else:
                    cliques.append([v])
            groups += [clique for clique in cliques if len(clique) > 1]
    _check_deadline(deadline)
    del loops, nout, nin, sout, sin  # peak: aggregates or partition
    return Partition._with_singletons(groups, n)


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
