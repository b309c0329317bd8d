"""Directed (multiplex multi)graph containers and text-format parsers.

A single-channel directed graph is stored as a multiplex graph with one
channel and multiplicities in {0, 1}, so the matching core is written once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain


class ParseError(ValueError):
    """Raised for malformed graph files; the message names the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MultiplexGraph:
    """Directed multigraph with ``channels`` edge-multiplicity functions.

    Edges are stored sparsely: ``out[v]`` maps a successor ``w`` to a
    length-``channels`` tuple of multiplicities, every stored tuple having at
    least one positive entry. Instances are immutable by convention once
    built; nothing mutates them after construction.

    Arcs share their tuples: ``add_edge`` and
    :func:`parse_multiplex_edgelist` store, for every arc with the same
    multiplicity vector, the one tuple object the graph's interning table
    holds for it, and ``out[u][v] is inn[v][u]`` for every arc. A parsed
    graph's table holds exactly its distinct vectors. An ``add_edge`` to an
    existing arc can leave the arc's old vector in the table with no arc
    holding it; the table is pruned once there are more such calls than
    arcs, so it never outgrows one tuple per arc beyond the distinct
    vectors, and pruning costs O(1) amortised per call.
    """

    __slots__ = ("vertex_count", "channels", "out", "inn", "labels", "_types",
                 "_slack")

    def __init__(self, vertex_count: int, channels: int = 1,
                 labels: list[str | None] | None = None):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if channels < 1:
            raise ValueError("channels must be positive")
        self.vertex_count = vertex_count
        self.channels = channels
        self.out: list[dict[int, tuple[int, ...]]] = [{} for _ in range(vertex_count)]
        self.inn: list[dict[int, tuple[int, ...]]] = [{} for _ in range(vertex_count)]
        if labels is not None and len(labels) != vertex_count:
            raise ValueError("labels must have one entry per vertex")
        self.labels = labels
        self._types: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._slack = 0  # add_edge calls on existing arcs until a prune

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range [0, {self.vertex_count})")

    def _check_arc(self, u: int, v: int, channel: int, multiplicity: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if not 1 <= channel <= self.channels:
            raise ValueError(f"channel {channel} out of range 1..{self.channels}")
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")

    def add_edge(self, u: int, v: int, channel: int = 1, multiplicity: int = 1) -> None:
        """Add ``multiplicity`` parallel edges u->v in ``channel`` (1-based)."""
        self._check_arc(u, v, channel, multiplicity)
        if v in self.out[u]:
            self._slack -= 1
        self._add_arcs(((u, v, channel, multiplicity),))
        if self._slack < 0:
            self._prune_types()

    def _add_arcs(self, arcs) -> None:
        """Add each checked ``(u, v, channel, multiplicity)`` of ``arcs``;
        the arc u->v then holds the interned tuple of its summed vector."""
        out, inn, types = self.out, self.inn, self._types
        zero = (0,) * self.channels
        for u, v, channel, multiplicity in arcs:
            new = list(out[u].get(v, zero))
            new[channel - 1] += multiplicity
            t = tuple(new)
            out[u][v] = inn[v][u] = types.setdefault(t, t)

    def _prune_types(self) -> None:
        """Keep in the interning table only the tuples that arcs hold."""
        self._types = {e: e for arcs in self.out for e in arcs.values()}
        self._slack = sum(map(len, self.out))

    def edge(self, u: int, v: int) -> tuple[int, ...] | None:
        """Per-channel multiplicities of u->v, or None if absent in all channels."""
        return self.out[u].get(v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out[u]

    def label(self, v: int) -> str | None:
        return None if self.labels is None else self.labels[v]

    def edge_count(self) -> int:
        """Total number of edges, counting multiplicity over all channels."""
        return sum(sum(t) for nbrs in self.out for t in nbrs.values())

    def degree(self, v: int) -> int:
        """Total in+out multiplicity over all channels (self-loops count twice)."""
        return (sum(sum(t) for t in self.out[v].values())
                + sum(sum(t) for t in self.inn[v].values()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiplexGraph)
                and self.vertex_count == other.vertex_count
                and self.channels == other.channels
                and self.out == other.out
                and self.labels == other.labels)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.vertex_count}, "
                f"K={self.channels}, edges={self.edge_count()})")


class Graph(MultiplexGraph):
    """Single-channel directed graph (multiplicities restricted to {0, 1})."""

    def __init__(self, vertex_count: int, labels: list[str | None] | None = None):
        super().__init__(vertex_count, channels=1, labels=labels)

    def add_edge(self, u: int, v: int, channel: int = 1, multiplicity: int = 1) -> None:
        # Presence semantics: any valid multiplicity adds the arc once, and
        # re-adding an existing arc is a no-op.
        self._check_arc(u, v, channel, multiplicity)
        if v not in self.out[u]:
            self.out[u][v] = self.inn[v][u] = (1,)


def dominates(world_edge: tuple[int, ...] | None, template_edge: tuple[int, ...]) -> bool:
    """True if the world edge supports the template edge in every channel.

    ``template_edge`` must have at least one positive channel; the world edge
    needs at least that multiplicity wherever the template demands one.
    """
    if world_edge is None:
        return False
    return all(w >= t for w, t in zip(world_edge, template_edge) if t > 0)


@dataclass(frozen=True)
class Problem:
    """A template-in-world matching instance (same channel count).

    ``directed`` records how the instance was drawn; the engine never reads
    it, since an undirected graph is stored as symmetric arcs.
    """

    template: MultiplexGraph
    world: MultiplexGraph
    directed: bool = True

    def __post_init__(self):
        if self.template.channels != self.world.channels:
            raise ValueError("template and world must have the same channel count")


class _Tokens:
    """The whitespace-separated tokens of a text, split into rows once.

    ``ints`` holds the tokens' values, converted by one ``map(int, ...)``;
    it stops before the first token that is not an integer. A token's line
    (and its text) is found by bisecting the running row lengths ``ends``,
    only when an error names it.
    """

    def __init__(self, text: str):
        self.rows = list(map(str.split, text.splitlines()))
        self.ends = list(accumulate(map(len, self.rows)))
        self.count = self.ends[-1] if self.ends else 0
        try:
            self.ints = list(map(int, chain.from_iterable(self.rows)))
        except ValueError:
            self.ints = []
            for word in chain.from_iterable(self.rows):
                try:
                    self.ints.append(int(word))
                except ValueError:
                    break

    def line(self, i: int) -> int:
        """The 1-based line of token ``i``."""
        return bisect_right(self.ends, i) + 1

    def word(self, i: int) -> str:
        """The text of token ``i``."""
        row = self.line(i) - 1
        return self.rows[row][i - self.ends[row] + len(self.rows[row])]

    def stop(self, what: str) -> ParseError:
        """The error for a reader that needs a token past ``ints``: the
        token there is malformed, or the text ends (at its last token)."""
        i = len(self.ints)
        if i < self.count:
            return ParseError(self.line(i), f"malformed token {self.word(i)!r}: expected {what}")
        return ParseError(self.line(i - 1) if i else 1, f"truncated file: expected {what}")


def parse_lad(text: str) -> Graph:
    """Parse a LAD-format graph: vertex count, then one adjacency list per vertex.

    Vertex ``v``'s list is its out-degree followed by that many neighbor
    indices in ``[0, n)``, each an arc; tokens may wrap across lines, and a
    repeated arc changes nothing. An undirected graph lists each edge from
    both ends.
    """
    toks = _Tokens(text)
    ints = toks.ints
    if not ints:
        raise toks.stop("vertex count")
    n = ints[0]
    if n < 0:
        raise ParseError(toks.line(0), f"negative vertex count {n}")
    if len(ints) > n:
        g = Graph(n)
        out, inn = g.out, g.inn
        ids = list(range(n))  # one key object per vertex, not per token
    else:
        # Fewer than n + 1 integers cannot hold n out-degrees, so the walk
        # raises at the text's first fault. Until then it writes into dicts
        # made for the vertices it reaches, not into n of each.
        out = inn = defaultdict(dict)
        ids = range(n)
    one = (1,)
    pos = 1
    for v in ids:
        if pos == len(ints):
            raise toks.stop(f"out-degree of vertex {v}")
        deg = ints[pos]
        if deg < 0:
            raise ParseError(toks.line(pos), f"negative out-degree {deg} for vertex {v}")
        pos += 1
        nbrs = ints[pos:pos + deg]
        outv = out[v]
        for i, w in enumerate(nbrs, pos):  # a repeated arc rewrites (1,)
            if not 0 <= w < n:
                raise ParseError(toks.line(i), f"neighbor index {w} out of range [0, {n})")
            outv[ids[w]] = inn[w][v] = one
        if len(nbrs) < deg:
            raise toks.stop(f"neighbor of vertex {v}")
        pos += deg
    if pos < toks.count:
        raise ParseError(toks.line(pos), f"unexpected trailing token {toks.word(pos)!r}")
    return g


def serialize_lad(g: MultiplexGraph) -> str:
    """Canonical LAD text for a single-channel graph: each vertex's
    out-neighbors, sorted."""
    if g.channels != 1:
        raise ValueError("LAD serialization requires a single-channel graph")
    lines = [str(g.vertex_count)]
    for v in range(g.vertex_count):
        nbrs = sorted(g.out[v])
        lines.append(" ".join([str(len(nbrs))] + [str(w) for w in nbrs]))
    return "\n".join(lines) + "\n"


def parse_multiplex_edgelist(text: str) -> MultiplexGraph:
    """Parse the multiplex quadruple edge-list format.

    Header ``n K`` on the first non-blank line; then lines ``src dst
    channel multiplicity`` with multiplicity >= 1 and channel in 1..K.
    Blank lines are skipped. Duplicate (src, dst, channel) lines sum their
    multiplicities.
    """
    toks = _Tokens(text)
    rows, ints = toks.rows, toks.ints
    if not toks.count:
        raise ParseError(1, "truncated file: expected header 'n K'")
    head = toks.line(0)
    if len(rows[head - 1]) != 2:
        raise ParseError(head, f"malformed header {' '.join(rows[head - 1])!r}: expected 'n K'")
    if len(ints) < 2:
        raise toks.stop("integers 'n K'")
    n, k = ints[0], ints[1]
    if n < 0:
        raise ParseError(head, f"negative vertex count {n}")
    if k < 1:
        raise ParseError(head, f"channel count {k} must be positive")
    # Edge quadruples run from token 2 to the first line that is not one
    # (wrong field count or a malformed token); past them is the error.
    end = 2 + (len(ints) - 2) // 4 * 4
    if not set(map(len, rows[head:])) <= {0, 4}:
        bad = next(r for r in range(head, len(rows)) if len(rows[r]) not in (0, 4))
        end = min(end, toks.ends[bad - 1])
    # Every field is checked before the graph is allocated, so a faulty
    # text costs no memory in proportion to the vertex count it declares.
    edges = ints[2:end]
    quads = iter(edges)
    for pos, src, dst, channel, mult in zip(range(2, end, 4), quads, quads, quads, quads):
        if not 0 <= src < n:
            raise ParseError(toks.line(pos), f"vertex {src} out of range [0, {n})")
        if not 0 <= dst < n:
            raise ParseError(toks.line(pos), f"vertex {dst} out of range [0, {n})")
        if not 1 <= channel <= k:
            raise ParseError(toks.line(pos), f"channel {channel} out of range 1..{k}")
        if mult < 1:
            raise ParseError(toks.line(pos), f"multiplicity {mult} must be >= 1")
    if end < toks.count:
        lineno = toks.line(end)
        if len(rows[lineno - 1]) != 4:
            raise ParseError(lineno, "expected 'src dst channel multiplicity'")
        raise toks.stop("'src dst channel multiplicity'")
    g = MultiplexGraph(n, channels=k)
    src, dst = edges[0::4], edges[1::4]
    # One key object per vertex, not per token: CPython already shares the
    # ints up to 256, and a vertex count above the endpoint tokens would
    # cost more ints than the tokens it saves.
    if 256 < n <= len(edges) // 2:
        ids = list(range(n))
        src, dst = map(ids.__getitem__, src), map(ids.__getitem__, dst)
    g._add_arcs(zip(src, dst, edges[2::4], edges[3::4]))
    if sum(map(len, g.out)) < len(edges) // 4:
        g._prune_types()  # some arc summed several quads
    return g


def serialize_multiplex_edgelist(g: MultiplexGraph) -> str:
    """Canonical multiplex edge-list text (edges sorted, one line per channel)."""
    lines = [f"{g.vertex_count} {g.channels}"]
    for u in range(g.vertex_count):
        for v in sorted(g.out[u]):
            mults = g.out[u][v]
            for ch, m in enumerate(mults, start=1):
                if m > 0:
                    lines.append(f"{u} {v} {ch} {m}")
    return "\n".join(lines) + "\n"


def degree_vector(g: MultiplexGraph, v: int) -> list[tuple[int, int]]:
    """Per-channel (in-degree, out-degree) pairs for ``v``, counting
    multiplicity; a self-loop counts in both. Each channel is summed in C,
    by ``map(sum, ...)`` over the columns of v's edge tuples (a column of
    zeros gives an isolated vertex ``(0, 0)`` per channel)."""
    g._check_vertex(v)
    zero = (0,) * g.channels
    return list(zip(map(sum, zip(zero, *g.inn[v].values())),
                    map(sum, zip(zero, *g.out[v].values()))))


def is_subgraph_isomorphism(problem: Problem, mapping: dict[int, int]) -> bool:
    """Check that ``mapping`` is injective, total, and edge-preserving.

    Multiplex edges require per-channel multiplicity dominance. Each
    template arc costs one dict lookup in the world; ``dominates`` runs
    only when the world tuple differs from the template's, since an equal
    tuple always dominates. A key outside the template's vertices makes
    the map not total.
    """
    t, w = problem.template, problem.world
    if len(mapping) != t.vertex_count:
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    nw, wout, tlabels, wlabels = w.vertex_count, w.out, t.labels, w.labels
    image = mapping.get  # None for a template vertex the map lacks
    for u, arcs in enumerate(t.out):
        img = image(u)
        if img is None or not 0 <= img < nw:
            return False
        if (tlabels is not None and tlabels[u] is not None
                and (wlabels is None or wlabels[img] != tlabels[u])):
            return False
        reached = wout[img]
        for v, req in arcs.items():
            edge = reached.get(image(v))
            if edge != req and not dominates(edge, req):
                return False
    return True
