"""Equivalence-aware depth-first search over template-in-world matching.

Seven search modes share one search. Each mode is one row of
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
  equivalence with respect to the branching vertex, recomputed per
  assignment, usable only when a cell's members are candidates of no other
  unmatched vertex (blocked cells fall back to world classes, which are
  always safe).
* ``fe``   -- builder ``_fe_cells``: full candidate equivalence (with
  respect to every template vertex), always usable.
* ``nc``   -- builder ``_nc_cells``: CE until a greedy node cover of the
  template is fully matched, then FE. The cover is matched first.

Everything else follows from the row. Without a builder the cells are the
world classes of the candidates (singletons under the trivial partition),
and once a branch is exhausted, its world class is dropped from the
candidates of the other members of the branching vertex's template class
(a no-op for singleton classes).

A solution class has one path and one count formula,
:func:`~eqmatch.equivalence.interchange_count`. ``_Searcher._classes``
yields each class weighed when it is created. With a template partition
that has a class of two or more vertices (TE, TEWE on a symmetric
template) that is ``count_tewe``, which re-verifies the map and applies
the formula with its multinomial; otherwise every template class is a
singleton, and the class weighs the product of its slot multipliers,
which is the formula for them. ``expansion_count_of`` applies it to the
slots of any mode. ``solve`` alone counts, streams, collects and stops,
and ``expand_solution_class`` expands every mode by one quota search over
the slots. Both searches keep an explicit stack, so a template's size is
not bounded by Python's recursion limit, and neither gives its last level
a frame. The search keeps one frame per matched template vertex, which
also holds the product of the multipliers above it; once one template
vertex is left unmatched, each entry of its branch list is a class,
yielded as it is weighed, with no domain copy and no update of the match.
The node's slots become one head tuple, shared by its classes, and each
class is that head plus one slot, both tuples built by ``tuple.__new__``
with no call of the named tuples' Python-level constructors; a class
weighs the frame's product times its last multiplier, or ``count_tewe``.
The expander keeps one choice iterator per filled slot but the
last, whose iterator it hands to the caller with ``yield from``, so a map
costs one generator resume.

One filter prunes the candidates: ``init_candidates`` applies the unary
tests once, and ``_propagate`` keeps the domains arc consistent, from every
vertex at the root and from the branching vertex's template class below.
It pops the narrowest queued domain first (Wallace and Freuder, 1992), so
a wide domain is unioned after its narrow neighbours have cut it down, not
before. Below the root that is the branching vertex, whose domain is its
one image: after a sibling prune its template siblings are still nearly
as wide as the world, and that image narrows each adjacent sibling before
the sibling's own candidates are unioned. The closure is the same in any
order. A matched vertex is never revised: its image kept its support when
it was matched, and stays supported while its neighbours' domains are
non-empty. The search fails a node at its first emptied domain (at once
at the root when a candidate set is empty) and backs up, leaving the rest
of the closure unbuilt; ``apply_filters`` still returns the whole closure.

A domain is a Python ``int`` used as a bitset: bit ``c`` is set when world
vertex ``c`` is a candidate. A solve lists the distinct template-edge
requirements once, for both directions, since every template edge is read
from both of its ends. ``_support_masks`` keeps one ``_Masks`` memo per
direction, whose entry ``c`` holds one mask per requirement: the world
neighbours of ``c`` whose edge dominates it. A symmetric world, where
every arc has its reverse with the same tuple, has one memo for both
directions. The entry is built from one read of c's arcs, and
``dominates`` is called once per (edge tuple, requirement). A template
arc names its row table by a memo and a requirement index, and every
reader indexes the memo as ``masks[c][i]``.
A revision of ``y`` against a popped ``x`` ANDs ``jc[y]`` with the OR of
the masks of x's candidates (the one candidate's mask, read with no
decode, when ``x`` has one, as every matched vertex has), a cell is
refined by the key ``masks[c][i] & jc[u2]`` of one row at a time, and a
child's domain list shares every int of its parent's except the branching
vertex's, which becomes ``1 << image``.
A mask is as wide as the world, so entries are built on first use and
memoised within ``_ROW_BYTES`` per solve. A world of a few thousand
vertices fits whole. A revision whose rows cannot spend the budget left,
even at the largest cost an entry can have, ORs them in one plain loop;
otherwise it memoises rows while the budget lasts, then sets the bits of
the masks it lacks in a byte buffer, linear in the arcs it reads, and
checks the deadline every ``_CHECK_EVERY`` rows.
Domains kept during search include already-used world vertices (a used
vertex stays listed while it remains joinable); this lets recomputed cells
report the full interchange class, with multipliers discounting the
members consumed by earlier assignments. ``used`` is a bitset too.

A cell is a bitset as well, a subset of the branching vertex's domain.
One refinement, ``_fe_cells``, builds every builder's cells from
``[jc[u]]`` (partition refinement; Paige and Tarjan, SIAM J. Comput.
1987). For each unmatched vertex ``u'`` of a given set it splits every
cell by ``jc[u']``, refines the pieces inside by one support row of
``u'`` at a time, and last by the layer of its self-loop, if any:
refining by one coordinate at a time groups as the whole tuple would. A
``jc[u']`` that holds all of the branching domain or none of it splits
nothing, and one AND on the domain skips the split: in the first case
every cell lies inside and is still refined by the rows and the layer, in
the second there is nothing to refine. A matched neighbour's row is
skipped, since arc consistency keeps only candidates adjacent to its
image. FE refines by every unmatched vertex, CE by the branching vertex
alone, a cell being blocked when it meets the other unmatched domains.
Once the node cover is matched, every unmatched vertex has only matched
neighbours and no self-loop, so it splits cells by its domain and reads
no row: FE is then the membership-vector grouping of node-cover
equivalence. A branch's representative is the lowest free bit of its
cell, and its multiplier the number of the cell's unused bits.

A cell's members are decoded by ``_bits``, which peels up to ``_PEEL``
bits one at a time and reads more from one O(width) string. A cell of
more than ``_PEEL`` free members is decoded once per search path: each
node keeps the member tuples of its wide cells in a memo for its depth,
and its children read that memo before decoding, so the slots of one
path (and their expansions) share one tuple for an unchanged wide cell.
The memos hold O(depth x cells per node) entries. A narrower cell is
decoded where it is met, with no hash: hashing a world-wide int costs
more than peeling a few bits.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress
from math import inf
from typing import Callable, NamedTuple

from .graphs import MultiplexGraph, Problem, dominates
from .equivalence import (_CHECK_EVERY, DeadlineExceeded, Partition,
                          _check_deadline, count_tewe,
                          find_equivalence_classes, interchange_count)
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

class Slot(NamedTuple):
    """One assignment step of a solution class.

    ``template_class`` is the full template equivalence class for modes that
    interchange template vertices, otherwise the singleton ``(vertex,)``.
    ``members`` is the world interchange class at assignment time (including
    members already used by earlier slots); ``multiplier`` counts the
    members that were still available. Slots of one search path with equal
    members may hold one tuple object.
    """

    template_vertex: int
    template_class: tuple[int, ...]
    world_vertex: int
    members: tuple[int, ...]
    multiplier: int


class SolutionClass(NamedTuple):
    """A representative solution plus the interchanges it stands for.

    A named tuple, like :class:`Slot`: its field ``count`` (the number of
    isomorphisms the class stands for) shadows ``tuple.count``."""

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


_ONE = re.compile("1")
_FLAGS = bytes.maketrans(b"01", b"\0\1")
# The most bits ``_bits`` peels off one at a time; a wider set costs one
# O(width) string, so ``_generate`` keeps a wider cell's members per path.
_PEEL = 16


def _mask(cells) -> int:
    """The bitset holding the world vertices ``cells``, set in one byte
    buffer: linear in the width, where a shift per cell is quadratic."""
    buf = bytearray(max(cells, default=-1) // 8 + 1)
    for c in cells:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


def _bits(d: int) -> list[int]:
    """The world vertices in bitset ``d``, ascending. Up to ``_PEEL`` are
    peeled off lowest first; more are read from one O(width) binary
    string: a dense set by translating it to 0/1 bytes that select from
    the positions, a sparse one (density 1/8 or below) by matching its
    ones."""
    n = d.bit_count()
    if n > _PEEL:
        width = d.bit_length()
        if n * 8 > width:
            return list(compress(range(width),
                                 bin(d)[:1:-1].encode().translate(_FLAGS)))
        return [m.start() for m in _ONE.finditer(bin(d)[:1:-1])]
    out = []
    while d:
        low = d & -d
        out.append(low.bit_length() - 1)
        d ^= low
    return out


def _domains(csets) -> list[int]:
    """Bitset domains of candidate sets, converting each distinct set
    object once (``init_candidates`` shares one set per profile)."""
    masks: dict[int, int] = {}
    for cs in csets:
        if id(cs) not in masks:
            masks[id(cs)] = _mask(cs)
    return [masks[id(cs)] for cs in csets]


class _Accepts(dict):
    """The indices of the requirements ``reqs`` that each world edge tuple
    dominates, computed once per tuple and shared by both directions."""

    def __init__(self, reqs: list[tuple]):
        super().__init__()
        self.reqs = reqs

    def __missing__(self, e) -> list[int]:
        ok = self[e] = [i for i, req in enumerate(self.reqs)
                        if dominates(e, req)]
        return ok


class _Masks(dict):
    """The support masks of one direction (of both, in a symmetric world),
    keyed by world vertex: entry ``c`` holds, for each requirement ``i`` of
    the solve, the world out- (or in-) neighbours of ``c`` whose edge
    dominates it. One read of c's arcs sets each neighbour's bit in every
    mask its edge tuple is accepted by. Every reader takes the row of
    requirement ``i`` at ``c`` as ``masks[c][i]``, or ORs many rows by
    :meth:`union`.

    A mask is as wide as the highest neighbour it holds, so a full table
    would take O(|V_w|^2) bits in a large sparse world. Entries are
    therefore built on first use, for candidates only, and memoised within
    the solve's byte budget (a one-element list of bytes left, shared by
    both directions, zero once spent). An entry is kept until one no longer
    fits; past that, a missing entry is built and returned but not kept.
    ``most`` bounds the cost of any entry, so a reader of ``k`` rows knows
    that the budget lasts when ``k * most`` fits in it.

    A memo hashes by identity, so ``(masks, i)`` names one row table."""

    __hash__ = object.__hash__

    def __init__(self, adj, accepts: _Accepts, budget: list[int]):
        super().__init__()
        self.adj, self.accepts, self.budget = adj, accepts, budget
        self.most = 128 + len(accepts.reqs) * (len(adj) // 7 + 36)

    def __missing__(self, c: int) -> list[int]:
        masks, accepts = [0] * len(self.accepts.reqs), self.accepts
        for c2, e in self.adj[c].items():
            bit = 1 << c2
            for i in accepts[e]:
                masks[i] |= bit
        # About: the list and its entry, each int and its slot.
        cost = 128 + sum(m.bit_length() // 7 + 36 for m in masks)
        if self.budget[0] >= cost:
            self.budget[0] -= cost
            self[c] = masks
        else:
            self.budget[0] = 0
        return masks

    def union(self, i: int, cs: list[int], deadline: float = inf) -> int:
        """The OR of the rows of requirement ``i`` at ``cs``. When the
        budget left holds ``len(cs)`` entries of the largest cost, every
        row is (or becomes) part of a memoised entry. Otherwise each row is
        ORed in from its entry while it is memoised or the budget lasts;
        once the budget is spent, the bits of a row not memoised are set in
        one byte buffer, so that the cost stays linear in their arcs
        instead of growing with |cs| x |V_w|. The buffer is made only when
        some row needs it, and ``deadline`` is checked every
        ``_CHECK_EVERY`` rows."""
        m = 0
        if len(cs) * self.most <= self.budget[0]:
            for c in cs:
                m |= self[c][i]
            return m
        accepts, adj, budget, buf = self.accepts, self.adj, self.budget, None
        for start in range(0, len(cs), _CHECK_EVERY):
            _check_deadline(deadline)
            for c in cs[start:start + _CHECK_EVERY]:
                if c in self or budget[0]:
                    m |= self[c][i]
                    continue
                if buf is None:
                    buf = bytearray((len(adj) + 7) // 8)
                for c2, e in adj[c].items():
                    if i in accepts[e]:
                        buf[c2 >> 3] |= 1 << (c2 & 7)
        return m if buf is None else m | int.from_bytes(buf, "little")


_ROW_BYTES = 16 << 20  # memoised support masks per solve


def _support_masks(t: MultiplexGraph, w: MultiplexGraph):
    """World support masks for every template arc, ``(tnbrs, tself)``.

    Every template edge is read from both of its ends, so both directions
    share one list of the distinct requirements, and a row table is a
    ``(masks, i)`` pair: the :class:`_Masks` memo of a direction and the
    index of a requirement. ``tnbrs[u]`` holds ``(u2, masks, i)`` for each
    template edge between ``u`` and a neighbour ``u2``, grouped by
    neighbour: the out-table of ``t.edge(u, u2)``, whose row ``masks[c][i]``
    holds the candidates of ``u2`` that an image ``c`` of ``u`` supports
    through the edge ``u -> u2``, then the in-table of ``t.edge(u2, u)``;
    in a symmetric world one table serves both and is listed once.
    ``tself[u]`` is the out-pair and the in-pair of u's self-loop, ``None``
    for both when it has none."""
    reqs = list(dict.fromkeys(e for arcs in t.out for e in arcs.values()))
    accepts, budget = _Accepts(reqs), [_ROW_BYTES]
    masks = [_Masks(adj, accepts, budget)
             for adj in ((w.out,) if w.out == w.inn else (w.out, w.inn))]
    pairs = {None: (None, None)}
    for i, req in enumerate(reqs):
        pairs[req] = (masks[0], i), (masks[-1], i)

    tnbrs, tself = [], []
    for u in range(t.vertex_count):
        nbrs = sorted((t.out[u].keys() | t.inn[u].keys()) - {u})
        tnbrs.append(tuple(dict.fromkeys(
            (u2, *pair) for u2 in nbrs
            for pair in (pairs[t.edge(u, u2)][0], pairs[t.edge(u2, u)][1])
            if pair is not None)))
        tself.append(pairs[t.edge(u, u)])
    return tnbrs, tself


def _propagate(tnbrs, jc: list[int], changed,
               deadline: float = inf, matched=None) -> bool:
    """Arc consistency, in place, from the vertices in ``changed``.

    Every other arc must already be consistent. The queue maps each vertex
    to its domain size, and the narrowest is popped first, ties in the
    order queued. A popped vertex ``x`` revises each template neighbour
    ``y``: a candidate of ``y`` stays if some candidate of ``x`` supports
    it, so ``jc[y]`` is intersected with the OR of the masks of x's
    candidates (one mask when ``x`` is matched). A neighbour that loses
    candidates is queued again with its new size. Out- and in-support are
    independent: each may come from a different candidate of ``x``.
    When ``x`` has one candidate ``c`` (every matched vertex has), each
    neighbour is ANDed with its row ``masks[c][i]``, with no decode: read
    from its entry while memoised or the budget lasts, else by one
    ``masks.union`` per row table, whose byte buffer builds no entry.
    Wider candidates of ``x`` are decoded only when it has a neighbour to
    revise, so a vertex whose neighbours are all matched costs one pop.

    The vertices in ``matched`` are never revised. When ``y`` was matched
    to ``r``, it was popped and every neighbour was revised against
    ``{r}``; domains only shrink after that, and support holds both ways
    on an arc, so ``r`` keeps its support while each neighbour's domain is
    non-empty. An empty neighbour is unmatched, and no map extends the
    node's match then: given a ``matched`` dict (``{}`` at the root), the
    call returns ``False`` at the first domain a revision empties, or at
    once when a domain of ``changed`` is empty, leaving the other domains
    part-revised (MAC's wipe-out; Sabin and Freuder, 1994). It returns
    ``True`` when the queue drains. The search passes its matched vertices;
    ``apply_filters`` passes none, since a match given by hand may be
    inconsistent, and then gets the whole closure, whose empty domains
    empty every domain they reach."""
    queue = {v: jc[v].bit_count() for v in changed}
    stop = matched is not None
    if not stop:
        matched = ()
    elif not all(queue.values()):
        return False
    while queue:
        if time.monotonic() >= deadline:
            raise DeadlineExceeded
        if len(queue) == 1:
            x, size = queue.popitem()
        else:
            x = min(queue, key=queue.__getitem__)
            size = queue.pop(x)
        # The one candidate of x, from its domain size in the queue, with
        # no operation as wide as the world; an empty domain takes the
        # union path.
        one = jc[x].bit_length() - 1 if size == 1 else None
        # x's candidates, decoded for its first unmatched y that needs them
        xbits = None if one is None else (one,)
        unions = {}  # one OR per row table: neighbours often share tables
        for y, masks, i in tnbrs[x]:
            if y in matched:
                continue
            if one is not None and (one in masks or masks.budget[0]):
                support = masks[one][i]
            else:
                if xbits is None:
                    xbits = _bits(jc[x])
                table = masks, i
                support = unions.get(table)
                if support is None:
                    support = unions[table] = masks.union(i, xbits, deadline)
            keep = jc[y] & support
            if keep != jc[y]:
                jc[y] = keep
                if not keep and stop:
                    return False
                queue[y] = keep.bit_count()
    return True


class _Searcher:
    def __init__(self, problem: Problem, mode: Mode, deadline: float):
        self.problem = problem
        self.t = problem.template
        self.w = problem.world
        self.nt = self.t.vertex_count
        self.mode = mode
        self.deadline = deadline

        rule = _RULES[mode]
        t = self.t
        self.tnbrs, self.tself = _support_masks(t, self.w)
        self.tp = (find_equivalence_classes(t, deadline=deadline)
                   if rule.template_partition else Partition.trivial(self.nt))
        self.wp = (find_equivalence_classes(self.w, deadline=deadline)
                   if rule.world_partition
                   else Partition.trivial(self.w.vertex_count))
        self.cells = rule.cells
        # Only a template class of two or more vertices needs the
        # multinomial of ``count_tewe``; singletons weigh their multipliers.
        self.multinomial = any(len(c) > 1 for c in self.tp.classes)
        self.cover: frozenset[int] = (frozenset(greedy_node_cover(t))
                                      if rule.cells is _Searcher._nc_cells
                                      else frozenset())
        self.branch_order = _branch_order(t, self.cover)

        self.assigned: dict[int, int] = {}
        self.used = 0  # bitset of the assigned images
        self.slots: list[Slot] = []
        # ``wide[k + 1]``: the members of each cell of more than ``_PEEL``
        # free members built at the node of depth ``k`` on the current path.
        self.wide: list[dict[int, tuple[int, ...]]] = [{}]

    # -- dynamic equivalence ----------------------------------------------

    def _ce_cells(self, u: int, jc: list[int]) -> list[int]:
        """The refinement by ``u`` alone; a cell that meets the other
        unmatched domains is blocked, and its candidates fall back to world
        classes."""
        others = 0  # candidates of the other unmatched vertices
        for u2 in range(self.nt):
            if u2 != u and u2 not in self.assigned:
                others |= jc[u2]
        cells, blocked = [], 0
        for cell in self._fe_cells(u, jc, (u,)):
            if cell & others:
                blocked |= cell
            else:
                cells.append(cell)
        if blocked:
            class_of = self.wp.class_of
            cells.extend(_group({c: class_of[c]
                                 for c in _bits(blocked)}).values())
        return cells

    def _fe_cells(self, u: int, jc: list[int], vertices=None) -> list[int]:
        """Refine ``[jc[u]]`` by the candidate equivalence with respect to
        each unmatched vertex ``u'`` of ``vertices`` (every template vertex
        by default; matched vertices are fixed points): by ``jc[u']``, then
        the pieces inside it by one support row of ``u'`` at a time, then by
        the layer of its self-loop, if any.

        A ``jc[u']`` that holds all of ``jc[u]`` or none of it splits
        nothing, so the split is skipped: in the first case every cell lies
        inside and is refined as usual, in the second nothing is refined. A
        matched neighbour's row is skipped: arc consistency leaves its
        image in that row for every candidate of ``u'``."""
        domain, assigned = jc[u], self.assigned
        cells, size = [domain], domain.bit_count()
        for uprime in range(self.nt) if vertices is None else vertices:
            if len(cells) == size:  # all singletons
                break
            if uprime in assigned:
                continue
            d = jc[uprime]
            hit = domain & d
            if not hit:  # no cell meets it: nothing to split or refine
                continue
            if hit == domain:  # every cell lies inside it
                inside, cells = cells, []
            else:
                inside = [piece for cell in cells if (piece := cell & d)]
                cells = [piece for cell in cells if (piece := cell & ~d)]
            for u2, masks, i in self.tnbrs[uprime]:
                if u2 not in assigned:
                    d2 = jc[u2]
                    inside = _refine(inside, lambda cell: {
                        c: masks[c][i] & d2 for c in _bits(cell)})
            out, inn = self.tself[uprime]
            if out is not None:
                inside = _refine(inside, lambda cell: _own_labels(out, inn,
                                                                  d, cell))
            cells += inside
        return cells

    def _nc_cells(self, u: int, jc: list[int]) -> list[int]:
        """CE until the node cover is matched, FE after: every unmatched
        vertex then lies outside the cover, so it splits cells by its
        domain, which is node-cover equivalence."""
        if self.cover <= self.assigned.keys():
            return self._fe_cells(u, jc)
        return self._ce_cells(u, jc)

    # -- branch generation -------------------------------------------------

    def _generate(self, u: int, jc: list[int]):
        """Entries (representative, members, multiplier) for branching on
        ``u``, by ascending representative: the lowest free candidate.

        A cell of more than ``_PEEL`` free members takes its members from
        the parent node's memo when the parent built the same cell, else
        decodes them, and enters them in this node's memo, ``wide[depth +
        1]``, which replaces the memos of the deeper nodes of the last
        path. A narrower cell is decoded without a hash."""
        used = self.used
        free = jc[u] & ~used
        if not free:  # every candidate used: no entry
            return []
        if self.cells is None:
            # The world classes of the free candidates, first met at their
            # representatives.
            wp, entries = self.wp, {}
            for c in _bits(free):
                k = wp.class_of[c]
                if k not in entries:
                    members = wp.classes[k]
                    entries[k] = (c, members, 1 if len(members) == 1 else
                                  len(members) - sum(used >> m & 1
                                                     for m in members))
            return list(entries.values())
        entries, wide = [], self.wide
        depth = len(self.assigned)
        above, here = wide[depth], {}
        for cell in self.cells(self, u, jc):
            avail = cell & free
            if avail:
                mult = avail.bit_count()
                if mult > _PEEL:
                    members = here[cell] = (above.get(cell)
                                            or tuple(_bits(cell)))
                else:
                    members = tuple(_bits(cell))
                entries.append(((avail & -avail).bit_length() - 1, members,
                                mult))
        del wide[depth + 1:]
        wide.append(here)
        entries.sort()
        return entries

    # -- search ------------------------------------------------------------

    def _classes(self, jc: list[int]):
        """Yield the solution classes below the root domains ``jc``, depth
        first. A stack frame holds a node's domains, its branching vertex,
        that vertex's template class and the node's remaining entries. The
        last unmatched vertex gets no frame: each of its entries is a class,
        weighed and yielded on the spot."""
        if not self.nt:  # the one map of the empty template
            yield SolutionClass(self.mode, (), 1)
            return
        assigned, slots, nt, deadline = (self.assigned, self.slots, self.nt,
                                         self.deadline)
        mode, multinomial = self.mode, self.multinomial
        # A slot and a class are built by ``tuple.__new__``, skipping the
        # named tuples' Python-level ``__new__``: the fields are in order.
        new = tuple.__new__
        stack = []
        changed, base = range(nt), 1  # base: the matched multipliers' product
        while True:
            # ``_propagate`` checks the deadline before its first pop, and
            # ``changed`` is never empty: every vertex at the root, the
            # branching vertex's template class below. It stops at the
            # first wiped-out domain, and the node builds no sizes.
            free = ~self.used
            if not _propagate(self.tnbrs, jc, changed, deadline, assigned):
                pass  # a wiped-out domain: back up
            elif len(assigned) < nt - 1:
                sizes = {v: (jc[v] & free).bit_count()
                         for v in self.branch_order if v not in assigned}
                if all(sizes.values()):  # else a domain is all used: back up
                    u = _branch_vertex(sizes, self.cover)
                    stack.append((jc, u, self.tp.classes[self.tp.class_of[u]],
                                  iter(self._generate(u, jc)), base))
            else:
                # The last level leaves assigned, used and slots as they
                # are; the deadline is checked per class, since it can hold
                # |V_w| entries. Its vertex is the one unmatched: the sum of
                # every vertex less the sum of the matched ones.
                u = nt * (nt - 1) // 2 - sum(assigned)
                tclass = self.tp.classes[self.tp.class_of[u]]
                head = tuple(slots)
                for rep, members, mult in self._generate(u, jc):
                    if time.monotonic() >= deadline:
                        raise DeadlineExceeded
                    if multinomial:
                        count = count_tewe(self.problem, {**assigned, u: rep},
                                           self.tp, self.wp)
                    else:
                        count = base * mult
                    yield new(SolutionClass, (mode, head + (new(Slot, (
                        u, tclass, rep, members, mult)),), count))
            # Back up to the deepest node with an entry left.
            while stack:
                jc, u, tclass, entries, base = stack[-1]
                if u in assigned:  # back from its last child
                    slot = slots.pop()
                    self.used ^= 1 << slot.world_vertex
                    del assigned[u]
                    # Template-equivalent vertices would only repeat this
                    # branch's classes.
                    if len(tclass) > 1:
                        keep = ~_mask(slot.members)
                        for u2 in tclass:
                            if u2 != u and u2 not in assigned:
                                jc[u2] &= keep
                entry = next(entries, None)
                if entry is not None:
                    break
                stack.pop()
            else:
                return
            rep, members, mult = entry
            assigned[u] = rep
            self.used |= 1 << rep
            slots.append(new(Slot, (u, tclass, rep, members, mult)))
            jc = list(jc)
            jc[u] = 1 << rep
            base *= mult
            changed = tclass


def _refine(cells: list[int], labels) -> list[int]:
    """``cells`` split by ``labels(cell)``, which maps each candidate of a
    cell of two or more to its label; singletons are kept as they are."""
    return [piece for cell in cells
            for piece in (_group(labels(cell)).values()
                          if cell & (cell - 1) else (cell,))]


def _own_labels(out, inn, own: int, cell: int) -> dict[int, tuple]:
    """The labels, in the layer of a self-loop with the ``(masks, i)``
    pairs ``out`` and ``inn`` and domain ``own``, of the candidates of
    ``cell``: a candidate's closed neighbourhood (edges both ways to its
    twin) when another candidate of the cell shares it, its open one (no
    edge) otherwise. Each candidate passed the unary self-loop test, so its
    row holds itself. A candidate never has a twin of both kinds, so
    labelling per cell groups a cell as labelling the whole domain would."""
    (out, i), (inn, j) = out, inn
    closed = {c: (out[c][i] & own, inn[c][j] & own) for c in _bits(cell)}
    shared = Counter(closed.values())
    return {c: (True, *sig) if shared[sig] > 1
            else (False, sig[0] & ~(1 << c), sig[1] & ~(1 << c))
            for c, sig in closed.items()}


def _group(labels: dict[int, object]) -> dict[object, int]:
    """The candidates of each label (``labels`` maps candidate to label),
    as bitsets."""
    groups: dict[object, int] = {}
    for c, label in labels.items():
        groups[label] = groups.get(label, 0) | 1 << c
    return groups


class _Rule(NamedTuple):
    """How a mode groups candidates into cells and weighs a class: a
    template partition with a class of two or more vertices weighs by
    ``count_tewe``, every other case by the product of the slot
    multipliers."""

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


def _check_limits(timeout: float, max_solutions: int | None = None) -> None:
    """Raise ``ValueError`` unless ``timeout`` is positive and
    ``max_solutions``, when given, is at least 1 (NaN fails both)."""
    if not timeout > 0:
        raise ValueError("timeout must be positive")
    if max_solutions is not None and not max_solutions >= 1:
        raise ValueError("max_solutions must be positive")


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
    _check_limits(timeout, max_solutions)
    start = time.monotonic()
    nt = problem.template.vertex_count
    representatives = total = 0
    classes: list[SolutionClass] = []
    status = "completed"
    try:
        searcher = _Searcher(problem, Mode(mode), start + timeout)
        if nt <= problem.world.vertex_count:
            for sc in searcher._classes(_domains(
                    init_candidates(problem, deadline=searcher.deadline))):
                representatives += 1
                total += sc.count
                if on_class is not None:
                    on_class(sc)
                if collect:
                    classes.append(sc)
                if max_solutions is not None and representatives >= max_solutions:
                    status = "truncated"
                    break
    except DeadlineExceeded:
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
    jc = _domains(csets)
    for u, c in assigned.items():
        jc[u] = 1 << c
    _propagate(_support_masks(problem.template, problem.world)[0],
               jc, range(len(jc)))
    free = ~_mask(assigned.values())
    return [set(_bits(d if u in assigned else d & free))
            for u, d in enumerate(jc)]


def _branch_order(t: MultiplexGraph, cover) -> tuple[int, ...]:
    """The template vertices in the branching order that ties of domain
    size fall back to: max template degree, then lowest index, with the
    node-cover vertices first."""
    return tuple(sorted(range(t.vertex_count),
                        key=lambda u: (u not in cover, -t.degree(u), u)))


def _branch_vertex(sizes: dict[int, int], cover) -> int:
    """The unmatched vertex to branch on: node-cover vertices first, then
    the smallest domain, ties by max template degree, then lowest index.
    ``sizes`` maps each unmatched vertex to its domain size, in
    ``_branch_order``, so ``min`` returns the first of the smallest."""
    if not sizes:
        raise ValueError("no unmatched template vertex")
    return min(list(filter(cover.__contains__, sizes)) or sizes,
               key=sizes.__getitem__)


def next_template_vertex(problem: Problem, csets: list[set[int]], matched,
                         cover=()) -> int:
    """The branching vertex: node-cover vertices first, then the smallest
    candidate set, ties by max template degree, then lowest index."""
    matched, cover = set(matched), set(cover)
    return _branch_vertex({u: len(csets[u])
                           for u in _branch_order(problem.template, cover)
                           if u not in matched}, cover)


def expansion_count_of(sc: SolutionClass) -> int:
    """Recompute the exact expansion count of ``sc`` from its slots, in
    every mode, by :func:`~eqmatch.equivalence.interchange_count` of each
    slot's template class, members and world vertex. It reads neither the
    slot multipliers nor ``sc.count``, so it checks both ways the search
    weighs a class: ``count_tewe`` and the product of the multipliers.
    """
    return interchange_count((s.template_class, s.members, s.world_vertex)
                             for s in sc.slots)


def expand_solution_class(sc: SolutionClass):
    """Yield every full mapping represented by ``sc`` (each exactly once).

    The slots are filled in order. A template vertex takes an unused member
    of any cell that its template class maps into, each cell as often as
    the representative fills it from that class (its quota). The search
    built every later cell given the representative's image ``r``, so
    taking ``c`` from the vertex's own cell instead composes the world swap
    ``(r c)``, and later cells are read through the swaps made so far.
    Each distinct (template class, members) pair is numbered once, and
    the quotas are a list indexed by that number, so a choice hashes no
    members tuple.
    """
    slots = sc.slots
    number: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    own = [number.setdefault((s.template_class, s.members), len(number))
           for s in slots]
    quota = [0] * len(number)
    for k in own:
        quota[k] += 1
    # Slot i's options: (number, members, whether it is its own cell).
    options = [[(k, key[1], k == own[i]) for key, k in number.items()
                if key[0] == s.template_class] for i, s in enumerate(slots)]
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

    def choices(i: int):
        """Fill slot ``i`` with each of its images in turn, undoing each
        choice before the next; the last slot yields the full maps."""
        s = slots[i]
        if i == last:  # no later slot reads its swap or its mark
            v = s.template_vertex
            for k, members, _ in options[i]:
                if quota[k]:
                    for c in map(image.get, members, members):
                        if c not in taken:
                            mapping[v] = c
                            yield dict(mapping)
            return
        r = image.get(s.world_vertex, s.world_vertex)
        for k, members, mine in options[i]:
            if not quota[k]:
                continue
            quota[k] -= 1
            for m in members:
                c = image.get(m, m)
                if c in taken:
                    continue
                moved = mine and c != r
                if moved:
                    swap(r, c)
                taken.add(c)
                mapping[s.template_vertex] = c
                yield True
                taken.discard(c)
                if moved:
                    swap(r, c)
            quota[k] += 1

    if not slots:
        yield {}
        return
    last = len(slots) - 1
    stack = []  # one choice iterator per filled slot but the last
    while True:
        if len(stack) < last:
            stack.append(choices(len(stack)))
        else:  # every earlier slot is filled: the last yields the maps
            yield from choices(last)
        # Fill the deepest slot with a choice left.
        while stack and next(stack[-1], None) is None:
            stack.pop()
        if not stack:
            return
